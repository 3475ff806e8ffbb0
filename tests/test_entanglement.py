import math

import numpy as np
import pytest

from fmoent import entanglement as ent
from fmoent import qlin
from fmoent.reservoir import ReservoirParams, amplitude

from conftest import (
    decayed_pair_register,
    decayed_w_register,
    global_entanglement_brute,
    negativity_brute,
    random_density,
    random_unit_disc,
)

SQRT_HALF = 1 / math.sqrt(2)
W4 = ent.w_state(4)
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
        cuts = ent.enumerate_bipartitions(4)
        assert cuts.counts() == {1: 4, 2: 3}
        assert cuts.total == 7

    def test_two_qubits(self):
        cuts = ent.enumerate_bipartitions(2)
        assert cuts.total == 1
        assert cuts.groups[1] == [(0,)]

    def test_six_qubits(self):
        cuts = ent.enumerate_bipartitions(6)
        assert cuts.counts() == {1: 6, 2: 15, 3: 10}
        assert cuts.total == 31

    @pytest.mark.parametrize("n", range(2, 13))
    def test_total_count_formula(self, n):
        assert ent.enumerate_bipartitions(n).total == 2 ** (n - 1) - 1

    def test_even_split_keeps_qubit_zero(self):
        cuts = ent.enumerate_bipartitions(6)
        assert all(0 in subset for subset in cuts.groups[3])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ent.enumerate_bipartitions(1)
        with pytest.raises(ValueError):
            ent.enumerate_bipartitions(13)


class TestNormalizedNegativity:
    def test_separable_state_scores_zero(self):
        assert ent.normalized_negativity(ground_rho(4), 4, {0}) < 1e-12

    def test_pure_w4_single_qubit_cut(self):
        for q in range(4):
            value = ent.normalized_negativity(W4_RHO, 4, {q})
            assert abs(value - math.sqrt(3) / 2) < 1e-12

    def test_pure_w4_two_qubit_cut(self):
        for subset in [(0, 1), (0, 2), (0, 3)]:
            value = ent.normalized_negativity(W4_RHO, 4, subset)
            assert abs(value - 1 / 3) < 1e-12

    def test_matches_brute_force_on_random_mixtures(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho = random_density(rng, 16)
            for subset in [(0,), (2,), (0, 3)]:
                m = len(subset)
                expected = 2.0 / (2.0**m - 1.0) * negativity_brute(rho, 4, subset)
                assert abs(ent.normalized_negativity(rho, 4, subset) - expected) < 1e-10

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
            ent.normalized_negativity(2.0 * W4_RHO, 4, {0})
        skewed = W4_RHO.copy()
        skewed[0, 1] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            ent.normalized_negativity(skewed, 4, {0})
        with pytest.raises(ValueError, match="smaller side"):
            ent.normalized_negativity(W4_RHO, 4, {0, 1, 2})
        with pytest.raises(ValueError, match="at least one"):
            ent.normalized_negativity(W4_RHO, 4, set())


class TestGlobalEntanglement:
    def test_ground_state_scores_zero(self):
        assert ent.global_entanglement(ground_rho(4), 4) == 0.0

    def test_pure_w4_value(self):
        assert abs(ent.global_entanglement(W4_RHO, 4) - PURE_W4_GLOBAL) < 1e-12

    def test_ghz4_matches_brute_force(self):
        ghz = ent.ghz_state(4)
        rho = np.outer(ghz, ghz.conj())
        assert abs(ent.global_entanglement(rho, 4) - global_entanglement_brute(rho, 4)) < 1e-10

    def test_three_qubit_w_matches_brute_force(self):
        w3 = ent.w_state(3)
        rho = np.outer(w3, w3.conj())
        assert abs(ent.global_entanglement(rho, 3) - global_entanglement_brute(rho, 3)) < 1e-10


class TestWStateDecay:
    def test_pure_limit(self):
        rho = ent.w_state_exciton_rho(ent.WStateParams(u=1.0))
        assert np.abs(rho - W4_RHO).max() < 1e-15

    def test_fully_decayed_limit(self):
        rho = ent.w_state_exciton_rho(ent.WStateParams(u=0.0))
        assert np.array_equal(rho, ground_rho(4))
        assert ent.global_entanglement(rho, 4) == 0.0

    def test_reservoir_limits(self):
        assert np.array_equal(ent.w_state_reservoir_rho(ent.WStateParams(u=1.0)), ground_rho(4))
        fully = ent.w_state_reservoir_rho(ent.WStateParams(u=0.0))
        assert np.abs(fully - W4_RHO).max() < 1e-15

    def test_closed_form_equals_register_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            u = random_unit_disc(rng)
            register = decayed_w_register(4, u)
            rho_full = np.outer(register, register.conj())
            rho_e = qlin.partial_trace(rho_full, 8, {0, 1, 2, 3})
            rho_r = qlin.partial_trace(rho_full, 8, {4, 5, 6, 7})
            params = ent.WStateParams(u=u)
            assert np.abs(ent.w_state_exciton_rho(params) - rho_e).max() < 1e-12
            assert np.abs(ent.w_state_reservoir_rho(params) - rho_r).max() < 1e-12

    def test_exciton_reservoir_exchange_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            u = random_unit_disc(rng)
            v = math.sqrt(max(0.0, 1.0 - abs(u) ** 2))
            swapped = ent.w_state_exciton_rho(ent.WStateParams(u=v))
            assert np.abs(ent.w_state_reservoir_rho(ent.WStateParams(u=u)) - swapped).max() < 1e-12

    def test_entanglement_transfers_to_reservoir(self):
        # by 'late' times the reservoir holds the W-state correlations
        params = ent.WStateParams(u=0.15)
        e_exciton = ent.global_entanglement(ent.w_state_exciton_rho(params), 4)
        e_reservoir = ent.global_entanglement(ent.w_state_reservoir_rho(params), 4)
        assert e_reservoir > e_exciton

    def test_emitted_phase_does_not_move_entanglement(self):
        rng = np.random.default_rng(23)
        u = 0.6 + 0.3j
        plain = decayed_w_register(4, u)
        phased = decayed_w_register(4, u, phases=rng.uniform(0, 2 * math.pi, size=4))
        for register in (plain, phased):
            rho_e = qlin.partial_trace(np.outer(register, register.conj()), 8, {0, 1, 2, 3})
            value = ent.global_entanglement(rho_e, 4)
            reference = ent.global_entanglement(
                ent.w_state_exciton_rho(ent.WStateParams(u=u)), 4
            )
            assert abs(value - reference) < 1e-10

    def test_amplitude_bound_enforced(self):
        with pytest.raises(ValueError):
            ent.WStateParams(u=1.2)


class TestWMixtureClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_route(self, n):
        for s in (0.0, 0.3, 0.7, 1.0):
            rho = ent.w_state_exciton_rho(ent.WStateParams(math.sqrt(s), n))
            dense = ent.global_entanglement(rho, n)
            assert abs(ent.w_mixture_entanglement(s, n) - dense) < 1e-12
        # the reservoir side is the same mixture with s -> 1 - s
        rho = ent.w_state_reservoir_rho(ent.WStateParams(math.sqrt(0.3), n))
        dense = ent.global_entanglement(rho, n)
        assert abs(ent.w_mixture_entanglement(0.7, n) - dense) < 1e-12

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
        rho = ent.x_state_rho(ent.XStateParams(a=0.6, b=0.8, u1=1.0, u2=1.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.36
        expected[3, 3] = 0.64
        expected[0, 3] = expected[3, 0] = 0.48
        assert np.abs(rho - expected).max() < 1e-15

    def test_trace_is_one_for_any_amplitudes(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            b = rng.uniform(0.0, 1.0)
            params = ent.XStateParams(
                a=math.sqrt(1 - b * b),
                b=b,
                u1=random_unit_disc(rng),
                u2=random_unit_disc(rng),
            )
            rho = ent.x_state_rho(params)
            assert abs(np.trace(rho) - 1.0) < 1e-14
            assert np.abs(rho - rho.conj().T).max() < 1e-15

    def test_x_form_preserved_under_evolution(self):
        res = ReservoirParams.from_half_width(900.0, 40.0, 60.0)
        x_zeros = [
            (0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 1), (3, 2),
        ]
        for t in (0.0, 0.05, 0.3, 0.8):
            u = amplitude(res, t)
            rho = ent.x_state_rho(ent.XStateParams(a=0.6, b=0.8, u1=u, u2=u))
            for i, j in x_zeros:
                assert rho[i, j] == 0.0

    def test_corner_carries_conjugated_amplitudes(self):
        u1, u2 = 0.5 + 0.4j, 0.3 - 0.6j
        rho = ent.x_state_rho(ent.XStateParams(a=0.6, b=0.8, u1=u1, u2=u2))
        assert abs(rho[0, 3] - 0.48 * (u1 * u2).conjugate()) < 1e-15

    def test_register_reduces_to_x_state(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            b = rng.uniform(0.0, 1.0)
            params = ent.XStateParams(
                a=math.sqrt(1 - b * b),
                b=b,
                u1=random_unit_disc(rng),
                u2=random_unit_disc(rng),
            )
            register = ent.x_state_register(params)
            rho_full = np.outer(register, register.conj())
            reduced = qlin.partial_trace(rho_full, 4, {0, 1})
            assert np.abs(reduced - ent.x_state_rho(params)).max() < 1e-14

    def test_normalization_constraint_enforced(self):
        with pytest.raises(ValueError):
            ent.XStateParams(a=0.5, b=0.5, u1=1.0, u2=1.0)
        with pytest.raises(ValueError):
            ent.XStateParams(a=np.array([0.6, 0.5]), b=np.array([0.8, 0.5]), u1=1.0, u2=1.0)

    def test_batched_register_equals_per_state(self):
        rng = np.random.default_rng(33)
        b = rng.uniform(0.0, 1.0, 6)
        u = np.array([random_unit_disc(rng) for _ in range(6)])
        batch = ent.x_state_register(ent.XStateParams(a=np.sqrt(1 - b * b), b=b, u1=u, u2=u[::-1]))
        assert batch.shape == (6, 16)
        for i in range(6):
            single = ent.XStateParams(a=math.sqrt(1 - b[i] ** 2), b=b[i], u1=u[i], u2=u[5 - i])
            # array complex products may round differently from scalar ones
            np.testing.assert_allclose(batch[i], ent.x_state_register(single), rtol=0, atol=1e-15)


class TestMeyerWallach:
    def test_product_states_score_zero(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            psi = np.array([1.0], dtype=complex)
            for _ in range(n):
                single = rng.normal(size=2) + 1j * rng.normal(size=2)
                single /= np.linalg.norm(single)
                psi = np.kron(psi, single)
            assert abs(ent.meyer_wallach_numeric(psi)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_balanced_ghz_scores_one(self, n):
        assert abs(ent.meyer_wallach_numeric(ent.ghz_state(n)) - 1.0) < 1e-12

    def test_register_anchor_at_half_survival(self):
        params = ent.XStateParams(a=0.0, b=1.0, u1=SQRT_HALF, u2=SQRT_HALF)
        assert abs(ent.meyer_wallach_numeric(ent.x_state_register(params)) - 1.0) < 1e-12

    def test_closed_form_anchors(self):
        assert ent.meyer_wallach_closed(0.0, 1.0, SQRT_HALF) == 1.0
        assert ent.meyer_wallach_closed(1.0, 0.0, 0.37 + 0.1j) == 0.0
        assert ent.meyer_wallach_closed(0.6, 0.8, 1.0) == pytest.approx(2 * 0.36 * 0.64, abs=1e-15)

    def test_closed_matches_numeric_when_fully_excited_pair(self):
        # b = 1 is the regime where the closed form equals the register value
        rng = np.random.default_rng(42)
        for _ in range(12):
            u = random_unit_disc(rng)
            params = ent.XStateParams(a=0.0, b=1.0, u1=u, u2=u)
            numeric = ent.meyer_wallach_numeric(ent.x_state_register(params))
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
            params = ent.XStateParams(a=a, b=b, u1=u, u2=u)
            assert abs(ent.meyer_wallach_numeric(ent.x_state_register(params)) - expected) < 1e-12

    def test_batched_equals_per_state(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 4, 5):
            states = rng.normal(size=(3, 4, 2**n)) + 1j * rng.normal(size=(3, 4, 2**n))
            states /= np.linalg.norm(states, axis=-1, keepdims=True)
            batch = ent.meyer_wallach_numeric(states)
            assert batch.shape == (3, 4)
            for index in np.ndindex(3, 4):
                assert batch[index] == ent.meyer_wallach_numeric(states[index])
        with pytest.raises(ValueError, match="normalized"):
            ent.meyer_wallach_numeric(np.stack([ent.ghz_state(2), np.ones(4)]))

    def test_emitted_phase_invariance(self):
        u = 0.5 + 0.5j
        base = ent.meyer_wallach_numeric(decayed_pair_register(0.6, 0.8, u, u))
        phased = ent.meyer_wallach_numeric(decayed_pair_register(0.6, 0.8, u, u, 1.3, -2.1))
        assert abs(base - phased) < 1e-12

    def test_rejects_bad_states(self):
        with pytest.raises(ValueError, match="normalized"):
            ent.meyer_wallach_numeric(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="power of two"):
            ent.meyer_wallach_numeric(np.ones(3) / math.sqrt(3))
        with pytest.raises(ValueError):
            ent.meyer_wallach_closed(0.9, 0.9, 0.5)


class TestDensityMatrixSanity:
    def test_w_state_outputs_are_densities(self):
        res = ReservoirParams.from_half_width(1200.0, 30.0, 50.0)
        for t in np.linspace(0.0, 1.0, 9):
            u = amplitude(res, t)
            for rho in (
                ent.w_state_exciton_rho(ent.WStateParams(u=u)),
                ent.w_state_reservoir_rho(ent.WStateParams(u=u)),
            ):
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.abs(rho - rho.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(rho).min() > -1e-10
