import cmath
import itertools
import math
import re
import time
import warnings

import numpy as np
import pytest
from conftest import lorentzian_density, rk4_stepwise
from scipy.integrate import quad

from fmoent import ode, reservoir
from fmoent.ode import amplitude_ode_blocks, amplitude_ode_oracle
from fmoent.reservoir import (
    CM1_TO_RAD_PER_PS,
    ReservoirParams,
    amplitude,
    damping,
    population_difference,
    survival,
)

# the refusals of a reservoir whose half width is out of range
POSITIVE = "half_width must be positive, got "
REAL = "half_width must be finite and real, got "
OVERFLOW = (
    "gamma0, half_width and delta: the decay rates overflow "
    "(a rate above about 7e154 cm^-1, or gamma0 * half_width above about 2.5e309 cm^-2)"
)

MARKOVIAN = ReservoirParams(gamma0=10.0, half_width=4000.0, delta=0.0)
NON_MARKOVIAN = ReservoirParams(gamma0=1000.0, half_width=40.0, delta=0.0)

# the amplitude and the observables read from it, each as a function of (params, t)
RESERVOIR_OBSERVABLES = (
    amplitude,
    lambda params, t: population_difference(amplitude(params, t)),
    lambda params, t: damping(amplitude(params, t)),
)


def closed_form_reference(params, t, flip_branch=False):
    """Direct transcription of the closed form, with a selectable xi branch."""
    k = CM1_TO_RAD_PER_PS
    b = (params.half_width - 1j * params.delta) * k
    xi = cmath.sqrt(b * b - (params.gamma0 * k) * (2.0 * params.half_width * k))
    if flip_branch:
        xi = -xi
    return cmath.exp(-b * t / 2) * (cmath.cosh(xi * t / 2) + (b / xi) * cmath.sinh(xi * t / 2))


def bisect_amplitude_zero(params, lo, hi, iters=80):
    """Locate a zero crossing of Re(u) (u is real at zero detuning)."""
    f = lambda t: amplitude(params, t).real
    assert f(lo) * f(hi) < 0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            ReservoirParams(gamma0=0.0, half_width=40.0)
        with pytest.raises(ValueError):
            ReservoirParams(gamma0=10.0, half_width=-1.0)

    @pytest.mark.parametrize("field", ["gamma0", "half_width", "delta"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, field, bad):
        values = {"gamma0": 100.0, "half_width": 40.0, "delta": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ReservoirParams(**values)
        values[field] = np.array([1.0, bad])
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ReservoirParams(**values)

    def test_array_fields_validated_elementwise(self):
        with pytest.raises(ValueError, match="gamma0 must be positive, got -1.0"):
            ReservoirParams(gamma0=np.array([5.0, -1.0]), half_width=40.0)

    def test_array_fields_are_read_only_copies(self):
        # the caller's later write once reached the params (amplitude(p, 0.3)
        # moved from 0.0275 to 0.9166), and a write through p.gamma0 put a
        # rate the class refuses under amplitude
        gamma0, widths = np.array([1000.0]), [40.0]
        params = ReservoirParams(gamma0, half_width=widths)
        gamma0[0], widths[0] = 5.0, 1.0
        assert params.gamma0.tolist() == [1000.0] and params.half_width.tolist() == [40.0]
        assert amplitude(params, 0.3)[0] == amplitude(ReservoirParams(1000.0, half_width=40.0), 0.3)
        with pytest.raises(ValueError, match="read-only"):
            params.gamma0[0] = -1.0
        assert not ReservoirParams(gamma0, half_width=np.array([40.0])).half_width.flags.writeable
        # a scalar field is kept as given
        assert type(ReservoirParams(1000.0, half_width=40.0).gamma0) is float

    def test_half_width_round_trip(self):
        # the width is kept as given: the record once stored its double, np.float64(80.0), as delta_omega
        params = ReservoirParams(100, half_width=40, delta=5.0)
        assert type(params.half_width) is int and params.half_width == 40
        assert not hasattr(params, "delta_omega")

    def test_a_positional_width_is_refused(self):
        # ReservoirParams(1000.0, 40.0) once read 40 as the full width: half the CLI's --half-width 40
        with pytest.raises(TypeError):
            ReservoirParams(1000.0, 40.0)

    @pytest.mark.parametrize(
        "half_width, rule",
        [
            (1e308, OVERFLOW), (-1e308, f"{POSITIVE}-1e+308"), (np.array([40.0, 1e308]), OVERFLOW),
            (np.float64(-1e308), f"{POSITIVE}-1e+308"), (-5.0, f"{POSITIVE}-5.0"), (0.0, f"{POSITIVE}0.0"),
            (math.inf, f"{REAL}inf"), (math.nan, f"{REAL}nan"), (True, f"{REAL}True"), ("40", f"{REAL}'40'"),
            (10**400, f"{REAL}{10**400}"), (np.array(["40"]), f"{REAL}'40'"),
            (-(10**5000), f"{REAL}an int of 16610 bits"), ("4" * 600, f"{REAL}'{'4' * 499}... (602 characters)"),
        ],
        ids=[
            "overflow", "negative-overflow", "array-overflow", "float64-overflow", "negative", "zero", "inf", "nan",
            "True", "str", "big-int", "str-array", "int-beyond-repr", "long-str",
        ],
    )
    def test_bad_half_width_refused_by_its_own_name(self, half_width, rule):
        # 2 * half_width once overflowed with a RuntimeWarning, and a negative
        # half width was refused as the doubled "delta_omega"; True built
        # delta_omega = 2.0, and "40" and 10**400 raised TypeError and OverflowError.
        # A width that is positive and finite is refused where its rates overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refusal:
                amplitude(ReservoirParams(1000.0, half_width=half_width), 0.5)
        assert str(refusal.value) == rule

    @pytest.mark.parametrize("field", ["gamma0", "half_width", "delta"])
    @pytest.mark.parametrize(
        "bad, shown",
        [
            ("1000", "'1000'"), (True, "True"), (10**400, str(10**400)), (1j, "1j"), (np.array(["80.0"]), "'80.0'"),
            (10**5000, "an int of 16610 bits"), ("8" * 600, f"'{'8' * 499}... (602 characters)"),
        ],
        ids=["str", "True", "big-int", "complex", "str-array", "int-beyond-repr", "long-str"],
    )
    def test_a_rate_that_is_not_a_real_number_is_refused(self, field, bad, shown):
        # gamma0="1000" was kept as the string, True read as 1.0, 10**400
        # and 1j raised OverflowError and TypeError, and 10**5000 raised repr's
        # "Exceeds the limit (4300 digits)", which names neither field nor rule
        values = {"gamma0": 100.0, "half_width": 40.0, "delta": 0.0, field: bad}
        with pytest.raises(ValueError) as refusal:
            ReservoirParams(**values)
        assert str(refusal.value) == f"{field} must be finite and real, got {shown}"

    def test_largest_half_width_accepted(self):
        largest = np.finfo(float).max
        assert ReservoirParams(1000.0, half_width=largest).half_width == largest


class TestSpectralDensity:
    @pytest.mark.parametrize("gamma0", [111.0 / CM1_TO_RAD_PER_PS, 589.0, 42.0])
    def test_integral_by_adaptive_quadrature(self, gamma0):
        """The amplitude's curvature at t = 0 is minus the weight of the Lorentzian density.

        u'' = -C u at t = 0, with C the memory kernel at zero lag: the
        integral of J(omega) over the real line, converted to (rad/ps)^2.
        """
        params = ReservoirParams(gamma0=gamma0, half_width=40.0, delta=0.0)
        peak = 12210.0  # the transition frequency; the weight does not depend on it
        profile = lambda w: lorentzian_density(w, gamma0, params.half_width, peak)
        lo, hi = peak - 100 * params.half_width, peak + 100 * params.half_width
        total = (
            quad(profile, -np.inf, lo)[0]
            + quad(profile, lo, hi, points=[peak])[0]
            + quad(profile, hi, np.inf)[0]
        )
        # 2 (1 - u(h)) / h^2 = C - C B h / 3 + O(h^2); Richardson removes the O(h) term
        curvature = lambda h: 2.0 * (1.0 - amplitude(params, h).real) / h**2
        h = 2e-5
        kernel_weight = 2.0 * curvature(h) - curvature(2.0 * h)
        assert kernel_weight == pytest.approx(total * CM1_TO_RAD_PER_PS**2, rel=1e-6)


class TestAmplitude:
    def test_initial_value_is_one(self):
        for params in (MARKOVIAN, NON_MARKOVIAN):
            assert amplitude(params, 0.0) == 1.0 + 0.0j

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            amplitude(MARKOVIAN, -0.1)
        with pytest.raises(ValueError):
            amplitude(MARKOVIAN, math.nan)

    @pytest.mark.parametrize("t", [math.inf, np.array([0.1, math.inf])])
    def test_infinite_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            amplitude(MARKOVIAN, t)

    def test_markovian_limit_is_exponential(self):
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        t = np.linspace(0.0, 5.0 / rate, 400)
        survival = np.abs(amplitude(MARKOVIAN, t)) ** 2
        assert np.abs(survival / np.exp(-rate * t) - 1.0).max() < 0.01

    def test_nonmarkovian_zero_crossing_and_revival(self):
        # xi is imaginary here, so u oscillates through zero
        t_zero = bisect_amplitude_zero(NON_MARKOVIAN, 0.03, 0.09)
        assert abs(amplitude(NON_MARKOVIAN, t_zero)) < 1e-12
        assert damping(amplitude(NON_MARKOVIAN, t_zero)) == 1.0
        assert damping(amplitude(NON_MARKOVIAN, t_zero + 0.02)) < 1.0  # revival

    def test_zero_crossing_matches_ode_oracle(self):
        t_zero = bisect_amplitude_zero(NON_MARKOVIAN, 0.03, 0.09)
        grid = np.array([0.0, t_zero])
        from_ode = amplitude_ode_oracle(NON_MARKOVIAN, grid, max_step=1e-5)[-1]
        assert abs(from_ode) < 1e-6

    def test_survival_probability_bounded_on_dense_grid(self):
        t = np.linspace(0.0, 2.0, 10_000)
        for params in (
            MARKOVIAN,
            NON_MARKOVIAN,
            ReservoirParams(1000.0, half_width=20.0, delta=100.0),
            ReservoirParams(10.0, half_width=20.0, delta=100.0),
        ):
            survival = np.abs(amplitude(params, t)) ** 2
            assert survival.max() <= 1.0 + 1e-12
            assert survival.min() >= 0.0

    def test_detuning_sign_conjugates_amplitude(self):
        t = np.linspace(0.0, 1.5, 200)
        plus = amplitude(ReservoirParams(500.0, half_width=40.0, delta=120.0), t)
        minus = amplitude(ReservoirParams(500.0, half_width=40.0, delta=-120.0), t)
        assert np.abs(minus - plus.conj()).max() < 1e-12

    def test_observables_even_in_detuning(self):
        t = np.linspace(0.0, 1.5, 50)
        plus = ReservoirParams(800.0, half_width=30.0, delta=75.0)
        minus = ReservoirParams(800.0, half_width=30.0, delta=-75.0)
        assert np.abs(
            population_difference(amplitude(plus, t)) - population_difference(amplitude(minus, t))
        ).max() < 1e-13
        assert np.abs(damping(amplitude(plus, t)) - damping(amplitude(minus, t))).max() < 1e-13

    def test_branch_choice_of_xi_is_irrelevant(self):
        params = ReservoirParams(700.0, half_width=35.0, delta=50.0)
        for t in (0.05, 0.4, 1.3):
            direct = closed_form_reference(params, t, flip_branch=False)
            flipped = closed_form_reference(params, t, flip_branch=True)
            assert abs(direct - flipped) < 1e-12
            assert abs(amplitude(params, t) - direct) < 1e-12

    def test_degenerate_xi_uses_series(self):
        # gamma0 = half_width / 2 makes xi exactly zero at delta = 0
        params = ReservoirParams(gamma0=20.0, half_width=40.0, delta=0.0)
        grid = np.linspace(0.0, 2.0, 101)
        diff = np.abs(amplitude(params, grid) - amplitude_ode_oracle(params, grid))
        assert diff.max() < 1e-9

    def test_critically_damped_large_time_decays_to_zero(self):
        # gamma0 = half_width / 2 (check's own set 10, 20) takes the series
        # branch at every t, where exp(-B t / 2) underflows to 0 while the
        # cubic in t overflows: the limit 0 comes back, with no warning
        params = ReservoirParams(10.0, half_width=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e100, 1e200, 1e300):
                assert amplitude(params, t) == 0j
            assert amplitude(params, np.array([0.0, 1e200])).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "gamma0, half_width, delta",
        [
            (1000.0, 1e160, 0.0),  # B^2 overflows
            (1000.0, 40.0, 1e160),  # Re B^2 = inf - inf
            (1e300, 1e10, 0.0),  # gamma0 * half_width overflows
            (np.array([1000.0, 1000.0]), np.array([40.0, 1e200]), 0.0),
        ],
    )
    def test_overflowing_rates_refused(self, gamma0, half_width, delta):
        params = ReservoirParams(gamma0, half_width=half_width, delta=delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for observable in RESERVOIR_OBSERVABLES:
                with pytest.raises(ValueError, match=r"gamma0, half_width and delta: the decay rates overflow"):
                    observable(params, 0.5)

    @pytest.mark.parametrize(
        "half_width, delta, t, t_named",
        [
            (1e150, 0.0, 1e200, "1e+200"),
            (40.0, 1e150, 1e200, "1e+200"),
            (40.0, -1e150, 1e200, "1e+200"),
            (np.array([40.0, 1e150]), 0.0, 1e200, "1e+200"),
            # the first time that overflows is named
            (40.0, 0.0, np.array([0.5, 1e308, 1.5e308]), "1e+308"),
        ],
        ids=["half-width", "delta", "negative-delta", "array-rates", "array-times"],
    )
    def test_overflowing_exponents_refused(self, half_width, delta, t, t_named):
        params = ReservoirParams(1000.0, half_width=half_width, delta=delta)
        message = (
            r"^t and the rates gamma0, half_width and delta: the decay exponent "
            rf"B\*t/2 or xi\*t/2 overflows at t = {re.escape(t_named)} ps$"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for observable in RESERVOIR_OBSERVABLES:
                with pytest.raises(ValueError, match=message):
                    observable(params, t)

    def test_split_branch_exponent_overflow_refused(self):
        # xi*t/2 and B*t are finite here, but (xi + B)*t/2 overflows: this returned nan+nanj
        params = ReservoirParams(1000.0, half_width=20.0, delta=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflows at t = 3e\+306 ps$"):
                amplitude(params, 3e306)
            with pytest.raises(ValueError, match=r"overflows at t = 3e\+306 ps$"):
                amplitude(params, np.array([0.5, 3e306]))

    def test_rates_below_the_overflow_stay_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for half_width in (1e150, np.array([40.0, 1e153])):
                params = ReservoirParams(1000.0, half_width=half_width, delta=1e150)
                assert np.all(np.isfinite(amplitude(params, 0.5)))

    def test_scalar_and_array_evaluation_agree(self):
        t = np.linspace(0.0, 1.0, 7)
        batch = amplitude(NON_MARKOVIAN, t)
        singles = np.array([amplitude(NON_MARKOVIAN, float(x)) for x in t])
        assert np.array_equal(batch, singles)

    def test_scalar_calls_are_one_point_array_calls(self):
        # a derandomized sample (detuned points included), plus points on
        # the series (t = 0, xi = 0) and split-exponential branches; scalar
        # parameters once took Python's arithmetic for B and xi
        rng = np.random.default_rng(16)
        size = 4000
        gamma0, half_width = rng.uniform(1.0, 2000.0, size), rng.uniform(1.0, 200.0, size)
        delta, t = rng.uniform(-300.0, 300.0, size), rng.uniform(0.0, 3.0, size)
        extra = [(1000.0, 40.0, 50.0, 0.0), (10.0, 20.0, 0.0, 0.7), (10.0, 4000.0, 0.0, 1.0), (10.0, 4000.0, 30.0, 2.0)]
        gamma0, half_width, delta, t = (np.append(v, e) for v, e in zip((gamma0, half_width, delta, t), zip(*extra)))
        whole = amplitude(ReservoirParams(gamma0, half_width=half_width, delta=delta), t)
        for point in zip(gamma0.tolist(), half_width.tolist(), delta.tolist(), t.tolist(), whole.tolist()):
            g, hw, d, time_ps, expected = point
            scalar = amplitude(ReservoirParams(g, half_width=hw, delta=d), time_ps)
            zero_d = ReservoirParams(np.array(g), half_width=np.array(hw), delta=np.array(d))
            zero_d = amplitude(zero_d, np.array(time_ps))
            assert type(scalar) is complex and type(zero_d) is complex
            assert scalar == expected and zero_d == expected, point

    @pytest.mark.parametrize(
        "rates, t, branch",
        [
            *[
                pytest.param(rates, np.arange(20001) * 1e-4, "series" if rates == (10.0, 20.0, 0.0) else "hyperbolic",
                             id=f"check-{rates[0]:g}-{rates[1]:g}-{rates[2]:g}")
                for rates in itertools.product((10.0, 1000.0), (20.0, 40.0), (0.0, 100.0))
            ],
            # xi is tiny but not 0, so the series branch takes complex arithmetic
            pytest.param((10.0, 20.0, 1e-14), np.linspace(0.0, 2.0, 20001), "series", id="series-detuned"),
            pytest.param((10.0, 40.0, 30.0), np.linspace(150.0, 250.0, 20001), "split", id="split"),
            pytest.param(
                tuple(np.random.default_rng(21).uniform(lo, hi, 20001) for lo, hi in ((1, 2000), (5, 100), (-200, 200))),
                0.7, "hyperbolic", id="rate-arrays",
            ),
        ],
    )
    def test_one_call_of_any_size_equals_small_calls(self, rates, t, branch):
        # numpy evaluates an operator expression in place in its temporaries
        # from 16,384 complex values up; before amplitude called the ufuncs by
        # name, one 20,001-point call on the check grid differed from
        # 1,000-point calls at 6,520-11,740 points of each detuned set
        gamma0, half_width, delta = rates
        b, xi = reservoir._decay_rates(ReservoirParams(gamma0, half_width=half_width, delta=delta))
        x = xi * t / 2.0
        small, big = np.abs(x) < 5e-7, x.real > 350.0
        assert np.count_nonzero({"series": small, "split": big, "hyperbolic": ~small & ~big}[branch]) >= 16384

        def calls(size):
            cut = lambda v, lo: v[lo : lo + size] if np.ndim(v) else v
            return np.concatenate([
                amplitude(ReservoirParams(cut(gamma0, lo), half_width=cut(half_width, lo), delta=cut(delta, lo)),
                          cut(t, lo))
                for lo in range(0, 20001, size)
            ])

        assert calls(20001).tobytes() == calls(1000).tobytes()

    def test_check_shaped_calls_equal_scan_shaped_calls(self):
        # check passes scalar parameters with a block of t, a scan passes
        # parameter arrays: on the default check grid they agree bit for bit
        grid = np.arange(20001) * 1e-4
        for gamma0, half_width, delta in itertools.product((10.0, 1000.0), (20.0, 40.0), (0.0, 100.0)):
            for lo in range(0, grid.size, ode._ORACLE_BLOCK):
                t = grid[lo : lo + ode._ORACLE_BLOCK]
                scalar = amplitude(ReservoirParams(gamma0, half_width=half_width, delta=delta), t)
                g, hw, d = (np.full(t.shape, value) for value in (gamma0, half_width, delta))
                assert np.array_equal(scalar, amplitude(ReservoirParams(g, half_width=hw, delta=d), t))

    def test_rates_of_any_real_type_give_the_amplitude_of_their_doubles(self):
        # float32 rates once took float32 arithmetic: u(0.3) at gamma0 1000,
        # half width 40 read 0.0275490338 where the doubles give 0.0275490653
        t = np.linspace(0.0, 2.0, 21)
        doubles = amplitude(ReservoirParams(1000.0, half_width=40.0, delta=100.0), t)
        for kind in (np.float32, np.float16, np.int32, int):
            params = ReservoirParams(kind(1000), half_width=kind(40), delta=np.array([100], dtype=kind))
            assert amplitude(params, t).tobytes() == doubles.tobytes(), kind

    @pytest.mark.parametrize("shape", ["check", "scan"])
    def test_mixed_branch_blocks_equal_one_point_calls(self, shape):
        # one block meets the series branch (t = 0, and every t where xi = 0),
        # the hyperbolic form and the split-exponential branch (xi*t/2 > 350
        # on the broad reservoirs); the hyperbolic form, evaluated at every
        # point, is inf or nan on the others, and none of it may warn
        rates = [(10.0, 4000.0, 0.0), (10.0, 4000.0, 30.0), (10.0, 20.0, 0.0), (1000.0, 40.0, 100.0)]
        sets = [ReservoirParams(g, half_width=hw, delta=d) for g, hw, d in rates]
        t = np.array([0.0, 1e-10, 0.05, 0.3, 0.9, 1.0, 2.0, 7.5])
        xi_re = np.array([reservoir._decay_rates(r)[1][0].real for r in sets])
        assert (xi_re[:2] * t[-1] / 2.0 > 350.0).all() and xi_re[2] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if shape == "check":
                blocks = [amplitude(r, t) for r in sets]
            else:
                g, hw, d = (np.array(column)[:, None] for column in zip(*rates))
                full = np.empty((len(rates), t.size))
                full[...] = t
                blocks = amplitude(ReservoirParams(g, half_width=hw, delta=d), full)
            for r, block in zip(sets, blocks):
                points = [amplitude(r, time_ps) for time_ps in t.tolist()]
                assert block.tobytes() == np.array(points).tobytes(), r

    def test_critically_damped_check_grid_without_warning(self):
        # check's own set gamma0 = 10, half width 20 has xi = 0, so B/xi = inf:
        # every point of its grid takes the series branch, with no warning
        params = ReservoirParams(10.0, half_width=20.0)
        grid, block = np.arange(20001) * 1e-4, ode._ORACLE_BLOCK
        b = reservoir._decay_rates(params)[0][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo in range(0, grid.size, block):
                t = grid[lo : lo + block]
                # the limit xi -> 0 of the closed form: exp(-B t/2) (1 + B t/2)
                limit = np.exp(-b * t / 2.0) * (1.0 + b * t / 2.0)
                np.testing.assert_allclose(amplitude(params, t), limit, rtol=1e-14, atol=0)

    def test_parameters_broadcast_against_time(self):
        # every branch (series at xi = 0, hyperbolic, split-exponential) and
        # a detuned point; a row of the grid is the row's own call, bit for bit
        gamma0 = np.array([20.0, 1000.0, 10.0, 777.0])[:, None]
        half_width = np.array([40.0, 40.0, 4000.0, 33.0])[:, None]
        delta = np.array([0.0, 0.0, 0.0, 21.0])[:, None]
        t = np.array([0.0, 0.3, 1.0, 40.0])
        params = ReservoirParams(gamma0, half_width=half_width, delta=delta)
        grid = amplitude(params, t)
        assert grid.shape == (4, 4)
        for i in range(4):
            row = ReservoirParams(float(gamma0[i, 0]), half_width=float(half_width[i, 0]), delta=float(delta[i, 0]))
            assert np.array_equal(grid[i], amplitude(row, t))
        fixed_t = amplitude(params, 0.3)
        assert fixed_t.shape == (4, 1)
        assert np.array_equal(fixed_t[:, 0], grid[:, 1])


class TestOdeOracle:
    def test_initial_value(self):
        out = amplitude_ode_oracle(NON_MARKOVIAN, np.array([0.0, 0.1]))
        assert out[0] == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "gamma0,half_width,delta",
        [(10.0, 20.0, 0.0), (1000.0, 40.0, 100.0), (1000.0, 20.0, 100.0)],
    )
    def test_agreement_with_closed_form(self, gamma0, half_width, delta):
        params = ReservoirParams(gamma0, half_width=half_width, delta=delta)
        grid = np.linspace(0.0, 2.0, 201)
        diff = np.abs(amplitude(params, grid) - amplitude_ode_oracle(params, grid, max_step=1e-4))
        assert diff.max() < 1e-6

    def test_decoupled_limit_stays_at_one(self):
        params = ReservoirParams(1e-9, half_width=40.0, delta=0.0)
        grid = np.linspace(0.0, 2.0, 21)
        assert np.abs(amplitude_ode_oracle(params, grid) - 1.0).max() < 1e-6
        assert np.abs(amplitude(params, grid) - 1.0).max() < 1e-6

    def test_closed_form_solves_the_kernel_off_resonance(self):
        params = ReservoirParams(500.0, half_width=30.0, delta=100.0)
        grid = np.linspace(0.0, 1.0, 51)
        closed = amplitude(params, grid)
        assert np.abs(closed - amplitude_ode_oracle(params, grid)).max() < 1e-8

    def test_rejects_bad_grids_and_kernels(self):
        with pytest.raises(ValueError):
            amplitude_ode_oracle(MARKOVIAN, np.array([0.0, 0.2, 0.1]))
        with pytest.raises(ValueError):
            amplitude_ode_oracle(MARKOVIAN, np.array([-0.1, 0.2]))
        with pytest.raises(ValueError):
            amplitude_ode_oracle(MARKOVIAN, np.array([0.0, 0.1]), max_step=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                amplitude_ode_oracle(MARKOVIAN, np.array([0.0, bad]))
        with pytest.raises(ValueError, match="2\\*\\*62"):
            amplitude_ode_oracle(MARKOVIAN, np.array([0.0, 1.0]), max_step=1e-300)
        # only the kernel the closed form solves is integrated
        with pytest.raises(TypeError):
            amplitude_ode_oracle(MARKOVIAN, np.array([0.0, 0.1]), kernel="detuned")


WEAK = ReservoirParams(10.0, half_width=20.0, delta=100.0)
STRONG = ReservoirParams(1000.0, half_width=40.0, delta=100.0)
CHECK_GRID = np.arange(0.0, 2.0 + 0.5e-4, 1e-4)


def irregular_spans():
    """600 interval lengths from 1e-6 to 5e-3 ps, log-uniform: 1 to 50 steps of 1e-4 ps."""
    rng = np.random.default_rng(20070101)
    return 10.0 ** rng.uniform(-6.0, math.log10(5e-3), size=600)


class TestOracleMatchesStepwiseRk4:
    """The step-map oracle takes the same steps as the scalar RK4 loop."""

    @staticmethod
    def assert_same(params, grid, max_step=1e-4):
        diff = amplitude_ode_oracle(params, grid, max_step=max_step) - rk4_stepwise(
            params, grid, max_step
        )
        assert np.abs(diff).max() <= 1e-12

    @pytest.mark.parametrize("params", [WEAK, STRONG], ids=["weak", "strong"])
    def test_check_grid(self, params):
        self.assert_same(params, CHECK_GRID)

    def test_irregular_grid(self):
        spans = irregular_spans()
        steps = np.maximum(1, np.ceil(spans / 1e-4))
        assert steps.min() == 1 and steps.max() == 50
        for params in (WEAK, STRONG):
            self.assert_same(params, np.cumsum(spans))

    def test_one_point_grids_and_late_start(self):
        assert amplitude_ode_oracle(STRONG, [0.0]).tolist() == [1.0 + 0.0j]
        for grid in ([0.37], [0.25, 0.5, 1.0]):
            self.assert_same(STRONG, np.array(grid))

    @pytest.mark.parametrize("offset", [-1, 0, 1, ode._ORACLE_WIDTH + 3])
    def test_grid_sizes_at_a_block_edge(self, offset):
        size = ode._ORACLE_BLOCK + offset
        self.assert_same(STRONG, np.linspace(0.0, 0.5, size))
        self.assert_same(WEAK, np.linspace(0.0, 0.5, size), max_step=3e-4)

    @pytest.mark.parametrize(
        "size", [1, 2, ode._ORACLE_WIDTH - 1, ode._ORACLE_WIDTH, ode._ORACLE_WIDTH + 1]
    )
    def test_grid_sizes_at_a_run_edge(self, size):
        grid = np.linspace(0.0, 2e-3, size + 1)[1:]
        self.assert_same(STRONG, grid)
        self.assert_same(WEAK, grid, max_step=3e-4)

    def test_powered_intervals_either_side_of_a_carry(self):
        # single-step intervals except a few of four steps, placed on both
        # sides of a run edge and of the block edge the state is carried over
        block, width = ode._ORACLE_BLOCK, ode._ORACLE_WIDTH
        spans = np.full(2 * block + 5, 0.5e-4)
        powered = [0, width - 1, width, 3 * width - 1, block - 2, block - 1, block, block + 1]
        spans[powered] = 3.7e-4
        grid = np.cumsum(spans)
        steps = np.maximum(1, np.ceil(np.diff(grid, prepend=0.0) / 1e-4))
        assert np.flatnonzero(steps > 1).tolist() == powered
        for params in (WEAK, STRONG):
            self.assert_same(params, grid)

    def test_map_products_per_interval_on_the_check_grid(self, monkeypatch):
        # work-efficient scan: about 3 map products per interval (a doubling
        # scan over every interval takes about 12); the last one is formed
        # inline, so the helper sees about 2 of them, and the lower bound
        # shows that the count sees the scan's products
        work = []
        product = ode._map_product

        def counted(m1, m2, rates):
            # maps are stacked [p, q]: a product of size 2k multiplies k pairs
            work.append(np.broadcast(m1, m2).size // 2)
            return product(m1, m2, rates)

        monkeypatch.setattr(ode, "_map_product", counted)
        grid = np.arange(0.0, 2.0 + 0.5e-4, 1e-4)
        amplitude_ode_oracle(STRONG, grid)
        assert grid.size <= sum(work) <= 3 * grid.size

    def test_ten_million_steps_in_one_interval(self):
        # 1e7 steps: about 30 s for the stepwise loop, 24 squarings for the step maps
        params = ReservoirParams(1e-3, half_width=40.0, delta=0.0)
        start = time.perf_counter()
        u_end = amplitude_ode_oracle(params, [0.0, 1e3])[-1]
        assert time.perf_counter() - start < 1.0
        assert np.isfinite(u_end)
        assert abs(u_end - amplitude(params, 1e3)) < 1e-9


class TestOracleBlocks:
    """The streamed oracle: maps built per distinct interval length, sets interleaved per block."""

    @pytest.mark.parametrize("params", [WEAK, STRONG], ids=["weak", "strong"])
    @pytest.mark.parametrize("grid", [CHECK_GRID, np.cumsum(irregular_spans())], ids=["check", "irregular"])
    def test_distinct_span_maps_equal_the_per_interval_maps(self, grid, params):
        k = CM1_TO_RAD_PER_PS
        b = (params.half_width - 1j * params.delta) * k
        c = (params.gamma0 * k) * (2.0 * params.half_width * k) / 4.0
        # one reservoir's scalar C and B, stacked as the helpers take them
        rates = np.array([[c], [b]])
        block, width = ode._ORACLE_BLOCK, ode._ORACLE_WIDTH
        for lo in range(0, grid.size, block):
            t, t_in = grid[lo : lo + block], grid[lo - 1] if lo else 0.0
            h, n, where = ode._block_intervals(t, t_in, lo == 0, 1e-4)
            maps = ode._map_power(ode._step_map(h, rates), n, rates)
            # every interval's own map, as the oracle once built them
            spans = np.zeros(where.size)
            spans[: t.size] = np.diff(t, prepend=t_in)
            spans = spans.reshape(-1, width).T.copy()
            steps = np.maximum(1.0, np.ceil(spans / 1e-4)).astype(np.int64)
            each = ode._step_map(spans / steps, rates)
            multi = steps > 1
            each[:, multi] = ode._map_power(each[:, multi], steps[multi], rates)
            assert maps[0][where].tobytes() == each[0].tobytes()
            assert maps[1][where].tobytes() == each[1].tobytes()

    def test_the_check_grid_has_few_distinct_spans(self):
        block = ode._ORACLE_BLOCK
        for lo in range(0, CHECK_GRID.size, block):
            t = CHECK_GRID[lo : lo + block]
            h, _, _ = ode._block_intervals(t, CHECK_GRID[lo - 1] if lo else 0.0, lo == 0, 1e-4)
            assert h.size <= 32 < t.size

    def test_sets_interleave_by_block_and_keep_their_own_state(self):
        grid = np.linspace(0.0, 0.5, 2 * ode._ORACLE_BLOCK + 3)
        blocks = list(amplitude_ode_blocks([WEAK, STRONG], grid.size, lambda lo, hi: grid[lo:hi]))
        assert [i for i, _, _ in blocks] == [0, 1, 0, 1, 0, 1]
        assert np.array_equal(np.concatenate([t for i, t, _ in blocks if i == 0]), grid)
        for i, params in enumerate((WEAK, STRONG)):
            collected = np.concatenate([u for j, _, u in blocks if j == i])
            assert collected.tobytes() == amplitude_ode_oracle(params, grid).tobytes()

    def test_check_sets_stream_their_own_oracle(self):
        # the eight reservoirs of check, on its default grid: the step maps
        # built for all of them at once give each one its own integration
        rates = itertools.product((10.0, 1000.0), (20.0, 40.0), (0.0, 100.0))
        sets = [ReservoirParams(g, half_width=hw, delta=d) for g, hw, d in rates]
        blocks = list(amplitude_ode_blocks(sets, 20001, lambda lo, hi: np.arange(lo, hi) * 1e-4))
        assert [i for i, _, _ in blocks] == list(range(8)) * 5
        for i, params in enumerate(sets):
            collected = np.concatenate([u for j, _, u in blocks if j == i])
            assert collected.tobytes() == amplitude_ode_oracle(params, np.arange(20001) * 1e-4).tobytes()

    def test_one_element_array_reservoir_is_its_scalar(self):
        # the rates of every reservoir are stacked into one array: a
        # one-element array parameter still makes one reservoir
        single = ReservoirParams(np.array([1000.0]), half_width=40.0, delta=np.array([100.0]))
        grid = np.linspace(0.0, 0.5, 101)
        assert amplitude_ode_oracle(single, grid).tobytes() == amplitude_ode_oracle(STRONG, grid).tobytes()

    @pytest.mark.parametrize("field", ["gamma0", "half_width", "delta"])
    def test_array_reservoir_refused_before_the_first_block(self, field):
        # numpy's "could not broadcast input array from shape (2,) into
        # shape (1,)" once said nothing of the oracle's one reservoir per set
        values = {"gamma0": 1000.0, "half_width": 40.0, "delta": 100.0}
        values[field] = np.array([values[field], 10.0])
        params = ReservoirParams(**values)
        message = f"the RK4 oracle integrates one reservoir per set, got {field} of shape (2,)"
        read = []
        blocks = amplitude_ode_blocks([STRONG, params], 11, lambda lo, hi: read.append(lo) or np.arange(lo, hi) * 0.1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(blocks)
        assert read == []
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            amplitude_ode_oracle(params, np.linspace(0.0, 1.0, 11))

    def test_numpy_error_state_is_untouched_between_blocks(self):
        before = np.geterr()
        for _ in amplitude_ode_blocks([WEAK, STRONG], 3, lambda lo, hi: np.arange(lo, hi) * 5.0, max_step=5.0):
            assert np.geterr() == before

    def test_bad_grid_refused_in_a_later_block(self):
        block = ode._ORACLE_BLOCK
        grid = np.linspace(0.0, 1.0, block + 2)
        for bad, message in ((grid[block - 1], "strictly ascending"), (math.nan, "finite")):
            broken = grid.copy()
            broken[block] = bad
            with pytest.raises(ValueError, match=message):
                amplitude_ode_oracle(WEAK, broken)
        with pytest.raises(ValueError, match="max_step must be positive"):
            next(amplitude_ode_blocks([WEAK], 2, lambda lo, hi: np.arange(lo, hi) * 0.1, max_step=-1.0))


class TestDerivedObservables:
    def test_population_difference_at_t0(self):
        assert population_difference(amplitude(NON_MARKOVIAN, 0.0)) == 1.0

    def test_population_difference_matches_definition(self):
        t = np.linspace(0.0, 1.0, 33)
        expected = 2.0 * np.abs(amplitude(NON_MARKOVIAN, t)) ** 2 - 1.0
        assert np.array_equal(population_difference(amplitude(NON_MARKOVIAN, t)), expected)

    def test_population_difference_markovian_anchor(self):
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        value = population_difference(amplitude(MARKOVIAN, 1.0 / rate))
        assert abs(value - (2.0 / math.e - 1.0)) < 0.01

    def test_half_survival_crosses_zero(self):
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        t_half = math.log(2.0) / rate
        lo, hi = 0.5 * t_half, 1.5 * t_half
        for _ in range(80):
            mid = (lo + hi) / 2
            if population_difference(amplitude(MARKOVIAN, mid)) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(population_difference(amplitude(MARKOVIAN, (lo + hi) / 2))) < 1e-9

    def test_damping_boundaries(self):
        assert damping(amplitude(NON_MARKOVIAN, 0.0)) == 0.0
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        assert damping(amplitude(MARKOVIAN, 10.0 / rate)) >= 0.9999

    def test_survival_caps_at_one_within_the_slack(self):
        # amplitude's rounding may leave |u| just above 1; s, p and the difference stay in range
        u = np.array([0.6, 1.0 + 5e-10, 1j * (1.0 + 1e-9)])
        assert survival(u).tolist() == [0.36, 1.0, 1.0]
        assert damping(u)[1:].tolist() == [0.0, 0.0]
        assert population_difference(u)[1:].tolist() == [1.0, 1.0]
        assert type(survival(0.6 + 0.8j)) is float
        assert survival(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize(
        "u, named",
        [
            (1.0 + 2e-9, "1.000000002"),
            (6403.49718241 + 1.3e-43j, "6403.49718241"),
            (math.nan, "nan"),
            (complex(0.0, math.inf), "inf"),
            (np.array([[0.5, 1.0 + 2e-9], [0.25, 0.0]]), "1.000000002"),
            (np.array([0.5, math.nan, 2.0]), "nan"),
        ],
        ids=["slack-exceeded", "huge-detuning", "nan", "inf", "array", "array-nan"],
    )
    def test_bad_amplitude_refused_by_every_observable(self, u, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for observable in (survival, damping, population_difference):
                with pytest.raises(ValueError, match=rf"^\|u\| must not exceed 1, got {named}$"):
                    observable(u)
