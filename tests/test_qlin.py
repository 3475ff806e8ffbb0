import numpy as np
import pytest

from fmoent import qlin

from conftest import pt_by_bits, random_density

I2 = np.eye(2, dtype=complex)

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)
BELL_RHO = np.outer(BELL, BELL.conj())


class TestPartialTrace:
    def test_bell_pair_is_maximally_mixed(self):
        reduced = qlin.partial_trace(BELL_RHO, 2, {0})
        assert np.abs(reduced - I2 / 2).max() < 1e-15

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        assert np.abs(qlin.partial_trace(joint, 2, {0}) - rho_a).max() < 1e-14
        assert np.abs(qlin.partial_trace(joint, 2, {1}) - rho_b).max() < 1e-14

    def test_keep_order_is_ascending(self):
        rng = np.random.default_rng(4)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        both = qlin.partial_trace(joint, 2, {1, 0})
        assert np.abs(both - joint).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_trace_preserved_random(self, n):
        rng = np.random.default_rng(10 + n)
        rho = random_density(rng, 2**n)
        keep = set(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
        reduced = qlin.partial_trace(rho, n, keep)
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qlin.partial_trace(np.eye(3), 2, {0})
        with pytest.raises(ValueError):
            qlin.partial_trace(np.eye(4), 2, {5})


class TestPartialTranspose:
    def test_empty_subset_is_identity_map(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 8)
        assert np.array_equal(qlin.partial_transpose(rho, 3, set()), rho)

    def test_full_subset_is_transpose(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 8)
        assert np.array_equal(qlin.partial_transpose(rho, 3, {0, 1, 2}), rho.T)

    def test_bell_pair_eigenvalues(self):
        transposed = qlin.partial_transpose(BELL_RHO, 2, {0})
        eigenvalues = np.linalg.eigvalsh(transposed)
        assert np.abs(eigenvalues - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12

    @pytest.mark.parametrize("subset", [{0}, {1}, {0, 2}, {1, 3}])
    def test_involution_is_exact(self, subset):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 16)
        twice = qlin.partial_transpose(qlin.partial_transpose(rho, 4, subset), 4, subset)
        assert np.array_equal(twice, rho)

    def test_matches_bit_arithmetic_oracle(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 16)
        for subset in [{0}, {3}, {1, 2}, {0, 3}]:
            expected = pt_by_bits(rho, 4, subset)
            assert np.abs(qlin.partial_transpose(rho, 4, subset) - expected).max() == 0.0

    def test_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            rho = random_density(rng, 2**n)
            transposed = qlin.partial_transpose(rho, n, {0})
            eigenvalues = np.linalg.eigvalsh(transposed)
            assert abs(eigenvalues.sum() - 1.0) < 1e-12

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 8)
        transposed = qlin.partial_transpose(rho, 3, {1})
        assert np.abs(transposed - transposed.conj().T).max() < 1e-14

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qlin.partial_transpose(np.eye(6), 2, {0})

