"""The closed forms' input rules, one owner each: every caller refuses and rounds alike.

``reservoir`` decides what a count and a weight in [0, 1] are and that a
scalar call is a one-point array call; ``entanglement._coefficients`` decides
what a^2 + b^2 = 1 means.
"""

import math
import re

import numpy as np
import pytest

from fmoent import entanglement as ent
from fmoent import fidelity as fid
from fmoent.reservoir import damping, population_difference, survival

import dense

# (caller of one count, the message head it refuses with)
COUNT_CALLERS = [
    (lambda n: ent.w_mixture_entanglement(0.5, n), "n_qubits must be integers in 2..12"),
    (lambda n: fid.f_ghz_teleport(0.3, n), "n_parties must be integers >= 2"),
    (lambda n: fid.f_ghz_split(0.3, n), "n_parties must be integers >= 2"),
    (dense.w_state, "n_qubits must be integers >= 1"),
    (dense.ghz_state, "n_qubits must be integers >= 1"),
    (dense.enumerate_bipartitions, "n_qubits must be integers in 2..12"),
    (lambda n: dense.w_mixture_rho(0.64, n), "n_qubits must be integers in 2..12"),
]

# callers of one weight in [0, 1]
WEIGHT_CALLERS = [
    fid.f_w_teleport,
    fid.f_w_split,
    lambda p: fid.f_ghz_teleport(p, 4),
    lambda p: fid.f_ghz_split(p, 4),
    lambda s: ent.w_mixture_entanglement(s, 4),
    lambda s: dense.w_mixture_rho(s, 4),
]


class TestOneCountRule:
    @pytest.mark.parametrize(
        "n, shown",
        [
            ("4", "'4'"),
            (10**400, str(10**400)),
            (True, "True"),
            (4.5, "4.5"),
            (math.inf, "inf"),
            (math.nan, "nan"),
            (np.array(4.5), "4.5"),
            # repr refuses an int of over 4,300 digits; a refusal shows at most 500 characters of a value
            (10**5000, "an int of 16610 bits"),
            ("4" * 600, f"'{'4' * 499}... (602 characters)"),
            # a float that holds an exact integer shows as the integer, below 2**53 in magnitude
            (0.0, "0"),
            (np.array([-3.0]), "-3"),
            (-(2.0**53 - 1), "-9007199254740991"),
            (-(2.0**53), "-9007199254740992.0"),
            (-1e300, "-1e+300"),
        ],
        ids=[
            "str", "10**400", "True", "4.5", "inf", "nan", "0-d-4.5", "10**5000", "long-str",
            "0.0", "array-minus-3.0", "minus-2**53-plus-1", "minus-2**53", "-1e300",
        ],
    )
    def test_refused_with_the_one_message(self, n, shown):
        # w_mixture_entanglement once read "4" as 4, w_state("4") raised a
        # TypeError, and the dense builders said "an integer"
        for build, head in COUNT_CALLERS:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{head}, got {shown}')}$"):
                build(n)

    def test_an_integral_float_count_shows_as_typed(self):
        # a float count once showed its float repr: "got 13.0"
        with pytest.raises(ValueError, match=r"^n_qubits must be integers in 2\.\.12, got 13$"):
            ent.w_mixture_entanglement(0.5, 13.0)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_spellings_of_a_count_give_identical_values(self, n):
        spellings = [n, np.int64(n), float(n), np.array(n), np.array([n])]
        s = np.linspace(0.0, 1.0, 11)
        for weights in (s, *s[::5]):
            values = [np.asarray(ent.w_mixture_entanglement(weights, count)).ravel() for count in spellings]
            assert all(value.tobytes() == values[0].tobytes() for value in values)
        for build in (dense.w_state, dense.ghz_state):
            assert all(np.array_equal(build(count), build(n)) for count in spellings)
        groups = dense.enumerate_bipartitions(n)
        assert all(dense.enumerate_bipartitions(count) == groups for count in spellings)
        rho = dense.w_mixture_rho(0.64, n)
        for count in spellings:
            assert np.array_equal(dense.w_mixture_rho(0.64, count), rho)


class TestOneWeightRule:
    @pytest.mark.parametrize("x", ["0.5", True, np.array(["0.5"])], ids=["str", "True", "str-array"])
    def test_a_weight_that_is_not_a_real_number_is_refused(self, x):
        # f_w_teleport("0.5") once returned 0.75
        for call in WEIGHT_CALLERS:
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]$"):
                call(x)


class TestOneCoefficientRule:
    @pytest.mark.parametrize(
        "build",
        [
            lambda a, b: ent.meyer_wallach_closed(a, b, 0.5),
            lambda a, b: ent.meyer_wallach_register(a, b, 0.5),
            lambda a, b: dense.x_state_rho(a, b, 1.0, 1.0),
        ],
        ids=["meyer_wallach_closed", "meyer_wallach_register", "x_state_rho"],
    )
    @pytest.mark.parametrize(
        "a, b",
        [(math.nan, 0.6), (0.8, math.nan), (np.array([0.8, math.nan]), np.array([0.6, 0.6]))],
        ids=["nan-a", "nan-b", "array-nan"],
    )
    def test_a_nan_coefficient_is_refused(self, build, a, b):
        # meyer_wallach_closed(nan, 0.6, 0.5) once returned nan, x_state_rho
        # built a density matrix of NaN entries, and the register refused
        # only through its norm message
        with pytest.raises(ValueError, match=r"^a\^2 \+ b\^2 must equal 1$"):
            build(a, b)


def unit_disc_sample(seed: int = 17, size: int = 6000):
    """Derandomized (a, b, u): u from the square [-1, 1]^2 where |u| <= 1, b ~ U[0, 1], a = sqrt(1 - b^2)."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-1.0, 1.0, (2, size))
    u = (x + 1j * y)[x * x + y * y <= 1.0]
    b = rng.uniform(0.0, 1.0, u.size)
    return np.sqrt(1.0 - b * b), b, u


def test_scalar_calls_are_one_point_array_calls():
    # numpy's scalar ``**`` is ``pow`` and an array's is ``square``: 27 scalar
    # calls over this sample once differed from their array call in the last bit
    a, b, u = unit_disc_sample()
    s, n = survival(u), np.arange(u.size) % 11 + 2
    calls = [
        (survival, (u,)),
        (population_difference, (u,)),
        (damping, (u,)),
        (ent.w_mixture_entanglement, (s, n)),
        (ent.meyer_wallach_register, (a, b, u)),
        (ent.meyer_wallach_closed, (a, b, u)),
    ]
    for form, inputs in calls:
        whole = form(*inputs)
        for *point, expected in zip(*(x.tolist() for x in inputs), whole.tolist()):
            for scalars in (point, [np.asarray(x) for x in point]):
                value = form(*scalars)
                assert type(value) is float and value == expected, (form.__name__, point)
