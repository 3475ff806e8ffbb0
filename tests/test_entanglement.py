import math
import re

import numpy as np
import pytest

from fmoent import dense
from fmoent import entanglement as ent
from fmoent import qlin
from fmoent.reservoir import ReservoirParams, amplitude, damping, survival

from conftest import (
    decayed_pair_register,
    decayed_w_register,
    global_entanglement_brute,
    negativity_brute,
    random_density,
    random_unit_disc,
)

SQRT_HALF = 1 / math.sqrt(2)
W4 = dense.w_state(4)
W4_RHO = np.outer(W4, W4.conj())
# averaged normalized negativity of the pure four-qubit W state:
# sqrt(3)/2 across every 1|3 cut, 1/3 across every 2|2 cut
PURE_W4_GLOBAL = (math.sqrt(3) / 2 + 1 / 3) / 2


def ground_rho(n):
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


class TestBipartitions:
    def test_four_qubits(self):
        cuts = dense.enumerate_bipartitions(4)
        assert {m: len(subsets) for m, subsets in cuts.items()} == {1: 4, 2: 3}
        assert sum(map(len, cuts.values())) == 7

    def test_two_qubits(self):
        cuts = dense.enumerate_bipartitions(2)
        assert sum(map(len, cuts.values())) == 1
        assert cuts[1] == [(0,)]

    def test_six_qubits(self):
        cuts = dense.enumerate_bipartitions(6)
        assert {m: len(subsets) for m, subsets in cuts.items()} == {1: 6, 2: 15, 3: 10}
        assert sum(map(len, cuts.values())) == 31

    @pytest.mark.parametrize("n", range(2, 13))
    def test_total_count_formula(self, n):
        assert sum(map(len, dense.enumerate_bipartitions(n).values())) == 2 ** (n - 1) - 1

    def test_even_split_keeps_qubit_zero(self):
        cuts = dense.enumerate_bipartitions(6)
        assert all(0 in subset for subset in cuts[3])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dense.enumerate_bipartitions(1)
        with pytest.raises(ValueError):
            dense.enumerate_bipartitions(13)
        # an int beyond the float range
        with pytest.raises(ValueError):
            dense.enumerate_bipartitions(10**400)


class TestQubitCounts:
    """A qubit count is an integer: 4.5 once built a 4-qubit register with no error."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dense.w_mixture_rho(0.64, 4.5),
            lambda: dense.w_state(2.7),
            lambda: dense.ghz_state(3.5),
            lambda: dense.enumerate_bipartitions(4.9),
            lambda: dense.w_state(np.float64(3.5)),
            lambda: dense.ghz_state(np.inf),
            lambda: dense.w_state(np.nan),
        ],
        ids=["w_mixture_rho-4.5", "w_state-2.7", "ghz_state-3.5", "bipartitions-4.9", "float64-3.5", "inf", "nan"],
    )
    def test_non_integer_count_refused(self, build):
        with pytest.raises(ValueError, match=r"^n_qubits must be integers (>= 1|in 2\.\.12), got "):
            build()

    @pytest.mark.parametrize("n", [3.0, np.float64(3.0)], ids=["float", "float64"])
    def test_integral_float_count_accepted(self, n):
        assert np.array_equal(dense.w_state(n), dense.w_state(3))
        assert np.array_equal(dense.ghz_state(n), dense.ghz_state(3))
        assert dense.enumerate_bipartitions(n) == dense.enumerate_bipartitions(3)
        assert np.array_equal(dense.w_mixture_rho(0.64, n), dense.w_mixture_rho(0.64, 3))


class TestNormalizedNegativity:
    def test_separable_state_scores_zero(self):
        assert dense.normalized_negativity(ground_rho(4), 4, {0}) < 1e-12

    def test_pure_w4_single_qubit_cut(self):
        for q in range(4):
            value = dense.normalized_negativity(W4_RHO, 4, {q})
            assert abs(value - math.sqrt(3) / 2) < 1e-12

    def test_pure_w4_two_qubit_cut(self):
        for subset in [(0, 1), (0, 2), (0, 3)]:
            value = dense.normalized_negativity(W4_RHO, 4, subset)
            assert abs(value - 1 / 3) < 1e-12

    def test_matches_brute_force_on_random_mixtures(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho = random_density(rng, 16)
            for subset in [(0,), (2,), (0, 3)]:
                m = len(subset)
                expected = 2.0 / (2.0**m - 1.0) * negativity_brute(rho, 4, subset)
                assert abs(dense.normalized_negativity(rho, 4, subset) - expected) < 1e-10

    def test_side_independence_of_raw_negativity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_density(rng, 16)
            subset = (0, 2)
            complement = (1, 3)
            assert abs(
                negativity_brute(rho, 4, subset) - negativity_brute(rho, 4, complement)
            ) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="trace"):
            dense.normalized_negativity(2.0 * W4_RHO, 4, {0})
        skewed = W4_RHO.copy()
        skewed[0, 1] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            dense.normalized_negativity(skewed, 4, {0})
        with pytest.raises(ValueError, match="smaller side"):
            dense.normalized_negativity(W4_RHO, 4, {0, 1, 2})
        with pytest.raises(ValueError, match="at least one"):
            dense.normalized_negativity(W4_RHO, 4, set())


class TestGlobalEntanglement:
    def test_ground_state_scores_zero(self):
        assert dense.global_entanglement(ground_rho(4), 4) == 0.0

    def test_pure_w4_value(self):
        assert abs(dense.global_entanglement(W4_RHO, 4) - PURE_W4_GLOBAL) < 1e-12

    def test_ghz4_matches_brute_force(self):
        ghz = dense.ghz_state(4)
        rho = np.outer(ghz, ghz.conj())
        assert abs(dense.global_entanglement(rho, 4) - global_entanglement_brute(rho, 4)) < 1e-10

    def test_three_qubit_w_matches_brute_force(self):
        w3 = dense.w_state(3)
        rho = np.outer(w3, w3.conj())
        assert abs(dense.global_entanglement(rho, 3) - global_entanglement_brute(rho, 3)) < 1e-10


class TestWStateDecay:
    def test_pure_limit(self):
        rho = dense.w_mixture_rho(survival(1.0), 4)
        assert np.abs(rho - W4_RHO).max() < 1e-15

    def test_fully_decayed_limit(self):
        rho = dense.w_mixture_rho(survival(0.0), 4)
        assert np.array_equal(rho, ground_rho(4))
        assert dense.global_entanglement(rho, 4) == 0.0

    def test_reservoir_limits(self):
        assert np.array_equal(dense.w_mixture_rho(damping(1.0), 4), ground_rho(4))
        fully = dense.w_mixture_rho(damping(0.0), 4)
        assert np.abs(fully - W4_RHO).max() < 1e-15

    def test_closed_form_equals_register_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            u = random_unit_disc(rng)
            register = decayed_w_register(4, u)
            rho_full = np.outer(register, register.conj())
            rho_e = qlin.partial_trace(rho_full, 8, {0, 1, 2, 3})
            rho_r = qlin.partial_trace(rho_full, 8, {4, 5, 6, 7})
            assert np.abs(dense.w_mixture_rho(survival(u), 4) - rho_e).max() < 1e-12
            assert np.abs(dense.w_mixture_rho(damping(u), 4) - rho_r).max() < 1e-12

    def test_exciton_reservoir_exchange_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            u = random_unit_disc(rng)
            v = math.sqrt(max(0.0, 1.0 - abs(u) ** 2))
            swapped = dense.w_mixture_rho(survival(v), 4)
            assert np.abs(dense.w_mixture_rho(damping(u), 4) - swapped).max() < 1e-12

    def test_entanglement_transfers_to_reservoir(self):
        # by 'late' times the reservoir holds the W-state correlations
        e_exciton = dense.global_entanglement(dense.w_mixture_rho(survival(0.15), 4), 4)
        e_reservoir = dense.global_entanglement(dense.w_mixture_rho(damping(0.15), 4), 4)
        assert e_reservoir > e_exciton

    def test_emitted_phase_does_not_move_entanglement(self):
        rng = np.random.default_rng(23)
        u = 0.6 + 0.3j
        plain = decayed_w_register(4, u)
        phased = decayed_w_register(4, u, phases=rng.uniform(0, 2 * math.pi, size=4))
        for register in (plain, phased):
            rho_e = qlin.partial_trace(np.outer(register, register.conj()), 8, {0, 1, 2, 3})
            value = dense.global_entanglement(rho_e, 4)
            reference = dense.global_entanglement(dense.w_mixture_rho(survival(u), 4), 4)
            assert abs(value - reference) < 1e-10

    def test_amplitude_bound_enforced(self):
        with pytest.raises(ValueError):
            dense.x_state_register(0.0, 1.0, 1.2, 1.2)

    def test_refusal_prints_the_excess(self):
        # |u| = 1 + 2e-9 lies past the 1e-9 slack; six digits would print it as 1
        u = (1.0 + 2e-9) * np.exp(0.3j)
        with pytest.raises(ValueError, match=r"\|u1\| must not exceed 1, got 1\.000000002$"):
            dense.x_state_register(0.0, 1.0, u, u)

    @pytest.mark.parametrize("u", [math.nan, complex(0.5, math.inf)], ids=["nan", "inf-phase"])
    def test_non_finite_amplitude_refused(self, u):
        # a nan u once built a W mixture of nan entries
        with pytest.raises(ValueError, match=r"\|u1\| must not exceed 1, got (nan|inf)$"):
            dense.x_state_register(0.0, 1.0, u, u)


class TestWMixtureClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_route(self, n):
        for s in (0.0, 0.3, 0.7, 1.0):
            rho = dense.w_mixture_rho(s, n)
            route = dense.global_entanglement(rho, n)
            assert abs(ent.w_mixture_entanglement(s, n) - route) < 1e-12
        # the reservoir side is the same mixture with s -> 1 - s
        rho = dense.w_mixture_rho(0.7, n)
        route = dense.global_entanglement(rho, n)
        assert abs(ent.w_mixture_entanglement(0.7, n) - route) < 1e-12

    @pytest.mark.parametrize("s, n", [(0.5, 13), (1.5, 4), (0.5, 1), (math.nan, 4.5)], ids=["n13", "s1.5", "n1", "both"])
    def test_dense_state_refuses_what_the_closed_form_refuses(self, s, n, monkeypatch):
        with pytest.raises(ValueError) as closed:
            ent.w_mixture_entanglement(s, n)

        def build(n_qubits):
            raise AssertionError("a refused state reached the matrix build")

        monkeypatch.setattr(dense, "w_state", build)
        with pytest.raises(ValueError, match=f"^{re.escape(str(closed.value))}$"):
            dense.w_mixture_rho(s, n)
        with pytest.raises(ValueError, match="^s must be one weight, got 2 values$"):
            dense.w_mixture_rho(np.array([0.3, 0.4]), 4)

    def test_pure_w4_anchor(self):
        assert abs(ent.w_mixture_entanglement(1.0, 4) - PURE_W4_GLOBAL) < 1e-15
        assert ent.w_mixture_entanglement(0.0, 4) == 0.0

    def test_broadcasts_over_weight_and_qubit_count(self):
        s = np.linspace(0.0, 1.0, 9)
        n = np.arange(2.0, 13.0)[:, None]
        grid = ent.w_mixture_entanglement(s, n)
        assert grid.shape == (11, 9)
        for i, count in enumerate(range(2, 13)):
            assert np.array_equal(grid[i], ent.w_mixture_entanglement(s, count))
            assert grid[i, 4] == ent.w_mixture_entanglement(0.5, count)

    def test_refuses_bad_inputs(self):
        for n in (1, 13, 4.5):
            with pytest.raises(ValueError, match="2..12"):
                ent.w_mixture_entanglement(0.5, n)
        for s in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="s must lie"):
                ent.w_mixture_entanglement(s, 4)


class TestXState:
    def test_initial_pure_state(self):
        rho = dense.x_state_rho(0.6, 0.8, 1.0, 1.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.36
        expected[3, 3] = 0.64
        expected[0, 3] = expected[3, 0] = 0.48
        assert np.abs(rho - expected).max() < 1e-15

    def test_trace_is_one_for_any_amplitudes(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            b = rng.uniform(0.0, 1.0)
            params = (math.sqrt(1 - b * b), b, random_unit_disc(rng), random_unit_disc(rng))
            rho = dense.x_state_rho(*params)
            assert abs(np.trace(rho) - 1.0) < 1e-14
            assert np.abs(rho - rho.conj().T).max() < 1e-15

    def test_x_form_preserved_under_evolution(self):
        res = ReservoirParams(900.0, half_width=40.0, delta=60.0)
        x_zeros = [
            (0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 1), (3, 2),
        ]
        for t in (0.0, 0.05, 0.3, 0.8):
            u = amplitude(res, t)
            rho = dense.x_state_rho(0.6, 0.8, u, u)
            for i, j in x_zeros:
                assert rho[i, j] == 0.0

    def test_corner_carries_conjugated_amplitudes(self):
        u1, u2 = 0.5 + 0.4j, 0.3 - 0.6j
        rho = dense.x_state_rho(0.6, 0.8, u1, u2)
        assert abs(rho[0, 3] - 0.48 * (u1 * u2).conjugate()) < 1e-15

    def test_register_reduces_to_x_state(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            b = rng.uniform(0.0, 1.0)
            params = (math.sqrt(1 - b * b), b, random_unit_disc(rng), random_unit_disc(rng))
            register = dense.x_state_register(*params)
            rho_full = np.outer(register, register.conj())
            reduced = qlin.partial_trace(rho_full, 4, {0, 1})
            assert np.abs(reduced - dense.x_state_rho(*params)).max() < 1e-14

    def test_normalization_constraint_enforced(self):
        with pytest.raises(ValueError):
            dense.x_state_rho(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            dense.x_state_register(np.array([0.6, 0.5]), np.array([0.8, 0.5]), 1.0, 1.0)

    @pytest.mark.parametrize("label", ["u1", "u2"])
    def test_amplitude_refusal_prints_the_excess(self, label):
        amplitudes = {"u1": 0.5, "u2": 0.5, label: np.array([0.5, 1.0 + 2e-9])}
        with pytest.raises(ValueError, match=rf"\|{label}\| must not exceed 1, got 1\.000000002$"):
            dense.x_state_rho(0.6, 0.8, **amplitudes)

    @pytest.mark.parametrize("label", ["u1", "u2"])
    def test_non_finite_amplitude_refused(self, label):
        # a nan u once built a register of nan entries
        amplitudes = {"u1": 0.5, "u2": 0.5, label: np.array([0.5, math.nan])}
        with pytest.raises(ValueError, match=rf"\|{label}\| must not exceed 1, got nan$"):
            dense.x_state_register(0.6, 0.8, **amplitudes)

    def test_batched_register_equals_per_state(self):
        rng = np.random.default_rng(33)
        b = rng.uniform(0.0, 1.0, 6)
        u = np.array([random_unit_disc(rng) for _ in range(6)])
        batch = dense.x_state_register(np.sqrt(1 - b * b), b, u, u[::-1])
        assert batch.shape == (6, 16)
        for i in range(6):
            single = dense.x_state_register(math.sqrt(1 - b[i] ** 2), b[i], u[i], u[5 - i])
            # array complex products may round differently from scalar ones
            np.testing.assert_allclose(batch[i], single, rtol=0, atol=1e-15)

    def test_batched_rho_equals_per_state(self):
        # x_state_rho once read its arguments as scalars: array a and b raised a TypeError
        a, b, u1, u2 = np.array([0.6, 0.0]), np.array([0.8, 1.0]), 0.5 + 0.4j, np.array([0.3 - 0.6j, SQRT_HALF])
        batch = dense.x_state_rho(a, b, u1, u2)
        assert batch.shape == (2, 4, 4)
        for i in range(2):
            np.testing.assert_allclose(batch[i], dense.x_state_rho(a[i], b[i], u1, u2[i]), rtol=0, atol=1e-15)


class TestMeyerWallach:
    def test_product_states_score_zero(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            psi = np.array([1.0], dtype=complex)
            for _ in range(n):
                single = rng.normal(size=2) + 1j * rng.normal(size=2)
                single /= np.linalg.norm(single)
                psi = np.kron(psi, single)
            assert abs(dense.meyer_wallach_numeric(psi)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_balanced_ghz_scores_one(self, n):
        assert abs(dense.meyer_wallach_numeric(dense.ghz_state(n)) - 1.0) < 1e-12

    def test_register_anchor_at_half_survival(self):
        register = dense.x_state_register(0.0, 1.0, SQRT_HALF, SQRT_HALF)
        assert abs(dense.meyer_wallach_numeric(register) - 1.0) < 1e-12

    def test_closed_form_anchors(self):
        assert ent.meyer_wallach_closed(0.0, 1.0, SQRT_HALF) == 1.0
        assert ent.meyer_wallach_closed(1.0, 0.0, 0.37 + 0.1j) == 0.0
        assert ent.meyer_wallach_closed(0.6, 0.8, 1.0) == pytest.approx(2 * 0.36 * 0.64, abs=1e-15)

    def test_published_form_exceeds_one(self):
        # 2a^2 b^2 + 4 b^2 s (1 - s) peaks at 9/8, at b^2 = 3/4 and s = 1/2; the register reads 15/16 there
        b = math.sqrt(0.75)
        assert ent.meyer_wallach_closed(0.5, b, SQRT_HALF) == pytest.approx(1.125, abs=1e-15)
        assert ent.meyer_wallach_register(0.5, b, SQRT_HALF) == pytest.approx(0.9375, abs=1e-15)

    def test_closed_matches_numeric_when_fully_excited_pair(self):
        # b = 1 is the regime where the closed form equals the register value
        rng = np.random.default_rng(42)
        for _ in range(12):
            u = random_unit_disc(rng)
            numeric = dense.meyer_wallach_numeric(dense.x_state_register(0.0, 1.0, u, u))
            closed = ent.meyer_wallach_closed(0.0, 1.0, u)
            assert abs(numeric - closed) < 1e-12

    def test_register_value_for_partial_superposition(self):
        # the register evaluation carries b^4 on the emission term, which is
        # why it matches the closed form only at b = 1
        rng = np.random.default_rng(43)
        for _ in range(8):
            b = rng.uniform(0.1, 0.95)
            a = math.sqrt(1 - b * b)
            u = random_unit_disc(rng)
            survival = abs(u) ** 2
            expected = 2 * a * a * b * b + 4 * b**4 * survival * (1 - survival)
            assert abs(dense.meyer_wallach_numeric(dense.x_state_register(a, b, u, u)) - expected) < 1e-12

    def test_register_form_over_a_grid(self):
        # q_numeric's register: Q = 2b^2[s(1 - b^2 s) + (1 - s)(1 - b^2 (1 - s))], s = |u|^2
        b, s = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21), indexing="ij")
        u = np.sqrt(s) * np.exp(0.7j)
        numeric = dense.meyer_wallach_numeric(dense.x_state_register(np.sqrt(1.0 - b * b), b, u, u))
        register = 2 * b * b * (s * (1 - b * b * s) + (1 - s) * (1 - b * b * (1 - s)))
        assert np.abs(numeric - register).max() < 1e-12
        # the hand value at b = 0.6, s = 0.5, where the published closed form reads 0.8208
        u = math.sqrt(0.5)
        hand = dense.meyer_wallach_numeric(dense.x_state_register(0.8, 0.6, u, u))
        assert hand == pytest.approx(0.5904, abs=1e-12)
        assert ent.meyer_wallach_closed(0.8, 0.6, u) == pytest.approx(0.8208, abs=1e-12)

    def test_batched_equals_per_state(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 4, 5):
            states = rng.normal(size=(3, 4, 2**n)) + 1j * rng.normal(size=(3, 4, 2**n))
            states /= np.linalg.norm(states, axis=-1, keepdims=True)
            batch = dense.meyer_wallach_numeric(states)
            assert batch.shape == (3, 4)
            for index in np.ndindex(3, 4):
                assert batch[index] == dense.meyer_wallach_numeric(states[index])
        with pytest.raises(ValueError, match="normalized"):
            dense.meyer_wallach_numeric(np.stack([dense.ghz_state(2), np.ones(4)]))

    def test_emitted_phase_invariance(self):
        u = 0.5 + 0.5j
        base = dense.meyer_wallach_numeric(decayed_pair_register(0.6, 0.8, u, u))
        phased = dense.meyer_wallach_numeric(decayed_pair_register(0.6, 0.8, u, u, 1.3, -2.1))
        assert abs(base - phased) < 1e-12

    def test_rejects_bad_states(self):
        with pytest.raises(ValueError, match="normalized"):
            dense.meyer_wallach_numeric(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="power of two"):
            dense.meyer_wallach_numeric(np.ones(3) / math.sqrt(3))
        with pytest.raises(ValueError):
            ent.meyer_wallach_closed(0.9, 0.9, 0.5)


    @pytest.mark.parametrize(
        "u", [math.nan, complex(0.5, math.inf), 2.0, (1.0 + 2e-9) * np.exp(0.3j), np.array([0.5, math.nan])],
        ids=["nan", "inf-phase", "two", "past-the-slack", "array-nan"],
    )
    def test_closed_refuses_the_amplitude_the_register_refuses(self, u):
        # nan once came back as nan, u = 2 as 0.4608
        for form in (ent.meyer_wallach_closed, ent.meyer_wallach_register):
            with pytest.raises(ValueError, match="must not exceed 1"):
                form(0.6, 0.8, u)
        # the rounding slack of amplitude() is accepted by both
        assert ent.meyer_wallach_closed(0.6, 0.8, 1.0 + 5e-10) == pytest.approx(2 * 0.36 * 0.64, abs=1e-8)

class TestMeyerWallachRegister:
    """The closed form q_numeric evaluates, against the register it describes."""

    @staticmethod
    def register_route(a, b, u):
        return dense.meyer_wallach_numeric(dense.x_state_register(a, b, u, u))

    def test_anchors(self):
        assert ent.meyer_wallach_register(0.0, 1.0, SQRT_HALF) == pytest.approx(1.0, abs=1e-15)
        assert ent.meyer_wallach_register(1.0, 0.0, 0.37 + 0.1j) == 0.0
        # b = 1 with the pair fully decayed or fully surviving is a product state
        assert ent.meyer_wallach_register(0.0, 1.0, 0.0) == 0.0
        assert ent.meyer_wallach_register(0.0, 1.0, 1.0) == 0.0
        # the hand value at b = 0.6, s = 0.5 (the published form reads 0.8208)
        assert ent.meyer_wallach_register(0.8, 0.6, math.sqrt(0.5)) == pytest.approx(0.5904, abs=1e-15)

    def test_equals_the_register_over_a_grid(self):
        b, s = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21), indexing="ij")
        a, u = np.sqrt(1.0 - b * b), np.sqrt(s) * np.exp(0.7j)
        closed = ent.meyer_wallach_register(a, b, u)
        assert closed.shape == (21, 21)
        # the register route takes Q from purities near 1, so it carries
        # errors of a few ulps of 1 (3.6e-15 at b = 1, |u| = 1 - 1e-16)
        assert np.abs(closed - self.register_route(a, b, u)).max() < 5e-15

    def test_broadcasts_and_returns_a_float_for_scalars(self):
        b = np.array([0.0, 0.6, 1.0])[:, None]
        u = np.array([1.0, 0.3 + 0.4j, 0.0, -0.8j])
        grid = ent.meyer_wallach_register(np.sqrt(1.0 - b * b), b, u)
        assert grid.shape == (3, 4)
        value = ent.meyer_wallach_register(0.8, 0.6, 0.3 + 0.4j)
        assert type(value) is float and value == grid[1, 1]

    def test_refuses_a_broken_normalization(self):
        with pytest.raises(ValueError, match="a\\^2 \\+ b\\^2 must equal 1"):
            ent.meyer_wallach_register(0.5, 0.5, 0.3)
        with pytest.raises(ValueError, match="a\\^2 \\+ b\\^2 must equal 1"):
            ent.meyer_wallach_register(np.array([0.6, 0.5]), np.array([0.8, 0.5]), 0.3)

    @pytest.mark.parametrize("b", [0.0, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("excess", [2e-9, 6e-10])
    def test_refuses_an_amplitude_above_one_whenever_the_register_does(self, b, excess):
        # |u| = 1 + 2e-9 fails the |u| bound at every b; |u| = 1 + 6e-10
        # passes it but pushes the register's norm past 1e-9 at b = 1 only
        a, u = math.sqrt(1.0 - b * b), (1.0 + excess) * np.exp(0.3j)
        try:
            expected = self.register_route(a, b, u)
        except ValueError:
            with pytest.raises(ValueError, match="must not exceed 1|normalized"):
                ent.meyer_wallach_register(a, b, u)
        else:
            assert excess < 1e-9 and b < 1.0
            assert ent.meyer_wallach_register(a, b, u) == pytest.approx(expected, abs=1e-8)
        with pytest.raises(ValueError, match="must not exceed 1"):
            ent.meyer_wallach_register(a, b, np.array([0.5, 1.0 + 2e-9]))

    @pytest.mark.parametrize("u", [math.nan, complex(math.nan, 0.0), complex(0.5, math.inf), math.inf])
    def test_refuses_a_non_finite_amplitude(self, u):
        with pytest.raises(ValueError):
            self.register_route(0.8, 0.6, u)
        with pytest.raises(ValueError, match="normalized|must not exceed 1"):
            ent.meyer_wallach_register(0.8, 0.6, u)
        with pytest.raises(ValueError, match="normalized|must not exceed 1"):
            ent.meyer_wallach_register(0.8, 0.6, np.array([0.5, u]))


class TestDensityMatrixSanity:
    def test_w_state_outputs_are_densities(self):
        res = ReservoirParams(1200.0, half_width=30.0, delta=50.0)
        for t in np.linspace(0.0, 1.0, 9):
            u = amplitude(res, t)
            for rho in (dense.w_mixture_rho(survival(u), 4), dense.w_mixture_rho(damping(u), 4)):
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.abs(rho - rho.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(rho).min() > -1e-10
