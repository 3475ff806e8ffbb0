import math
import warnings

import numpy as np
import pytest

from fmoent import fmo

from conftest import jacobi_eigen

# Published seven-site Hamiltonian (cm^-1): reng diagonal + couplings.
SITE_HAMILTONIAN = np.array(
    [
        [240.0, -104.1, 5.1, -4.3, 4.7, -15.1, -7.8],
        [-104.1, 310.0, 32.6, 7.1, 5.4, 8.3, 0.8],
        [5.1, 32.6, 0.0, -46.8, 1.0, -8.1, 5.1],
        [-4.3, 7.1, -46.8, 110.0, -70.7, -14.7, -61.5],
        [4.7, 5.4, 1.0, -70.7, 340.0, 89.7, -2.5],
        [-15.1, 8.3, -8.1, -14.7, 89.7, 330.0, 32.7],
        [-7.8, 0.8, 5.1, -61.5, -2.5, 32.7, 260.0],
    ]
)

# Published exciton table: energies and site amplitudes (BChl rows 1..7,
# exciton columns in ascending energy order).
EXCITON_ENERGIES = np.array([-24.0, 86.0, 167.0, 251.0, 280.0, 385.0, 444.0])
EXCITON_AMPLITUDES = np.array(
    [
        [0.0553, 0.0750, 0.8081, -0.0444, -0.0305, 0.5688, 0.1087],
        [0.1155, 0.0609, 0.5555, -0.1127, -0.0950, -0.7943, -0.1475],
        [-0.9062, -0.3811, 0.1314, -0.1119, 0.0214, -0.0515, -0.0232],
        [-0.3903, 0.8121, -0.0124, 0.3431, -0.1501, -0.0722, 0.2061],
        [-0.0730, 0.2644, -0.0992, -0.4529, -0.4445, 0.1860, -0.6911],
        [-0.01267, -0.1020, 0.1048, 0.7200, 0.2077, 0.0561, -0.6432],
        [-0.0662, 0.3249, 0.0081, -0.3627, 0.8522, 0.0038, -0.1793],
    ]
)

DIFFS = {
    "reng": [240.0, 310.0, 0.0, 110.0, 340.0, 330.0, 260.0],
    "lorenExpt": [154.0, 384.0, 0.0, 181.0, 522.0, 284.0, 345.0],
    "wend": [140.0, 325.0, 0.0, 230.0, 450.0, 255.0, 275.0],
}


def random_symmetric(seed):
    """A real symmetric 7x7 with entries of a few hundred cm^-1 and no eigenvalue ties."""
    g = np.random.default_rng(seed).normal(scale=200.0, size=(7, 7))
    return (g + g.T) / 2


def amplitude_deviation_mod_sign(column, reference):
    """Max deviation between two unit columns modulo a global sign."""
    direct = np.abs(column - reference).max()
    flipped = np.abs(column + reference).max()
    return min(direct, flipped)


class TestDatasets:
    @pytest.mark.parametrize("name", sorted(DIFFS))
    def test_energy_diffs(self, name):
        data = fmo.dataset(name)
        assert np.array_equal(data.energy_diffs, DIFFS[name])

    def test_absolute_reference_energies(self):
        assert fmo.dataset("reng").site_energies[2] == 12210.0
        assert fmo.dataset("lorenExpt").site_energies[2] == 12112.0
        assert fmo.dataset("wend").site_energies[2] == 12175.0

    def test_energies_are_a_private_read_only_copy(self):
        with pytest.raises(ValueError, match="read-only"):
            fmo.dataset("reng").site_energies[0] = 0.0
        assert fmo.dataset("reng").site_energies[0] == 12450.0
        energies = np.array(SITE_HAMILTONIAN.diagonal()) + 12210.0
        data = fmo.SiteDataset("x", energies)
        energies[0] = 99.0
        assert data.site_energies[0] == 12450.0
        assert np.array_equal(data.energy_diffs, SITE_HAMILTONIAN.diagonal())

    def test_builtin_listing(self):
        names = [d.name for d in fmo.builtin_datasets()]
        assert sorted(names) == ["lorenExpt", "reng", "wend"]

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            fmo.dataset("tepidum")


class TestBuildHamiltonian:
    def test_matches_published_matrix(self):
        h = fmo.build_hamiltonian(fmo.dataset("reng"))
        assert np.array_equal(h, SITE_HAMILTONIAN)

    def test_first_coupling(self):
        h = fmo.build_hamiltonian(fmo.dataset("reng"))
        assert h[0][1] == -104.1

    def test_zero_couplings_gives_diagonal(self):
        data = fmo.dataset("reng")
        h = fmo.build_hamiltonian(data) - fmo.COUPLINGS_CM1
        assert np.array_equal(h, np.diag(data.energy_diffs))

    def test_offdiagonal_is_dataset_independent(self):
        builds = [fmo.build_hamiltonian(d) for d in fmo.builtin_datasets()]
        mask = ~np.eye(7, dtype=bool)
        for h in builds[1:]:
            assert np.array_equal(h[mask], builds[0][mask])

    def test_symmetric(self):
        for data in fmo.builtin_datasets():
            h = fmo.build_hamiltonian(data)
            assert np.array_equal(h, h.T)


class TestExcitonTable:
    def test_energies_match_published_values(self):
        table = fmo.exciton_table(SITE_HAMILTONIAN)
        assert np.abs(table.energies - EXCITON_ENERGIES).max() < 1.0

    def test_amplitudes_match_published_values(self):
        table = fmo.exciton_table(SITE_HAMILTONIAN)
        for k in range(7):
            deviation = amplitude_deviation_mod_sign(
                table.amplitudes[:, k], EXCITON_AMPLITUDES[:, k]
            )
            assert deviation < 0.02, f"exciton {k}: deviation {deviation}"

    def test_lowest_exciton_localized_on_bchl_3_and_4(self):
        table = fmo.exciton_table(SITE_HAMILTONIAN)
        col = table.amplitudes[:, 0]
        if col[2] > 0:  # compare modulo the global column sign
            col = -col
        assert abs(col[2] - (-0.9062)) < 0.02
        assert abs(col[3] - (-0.3903)) < 0.02

    def test_diagonal_input(self):
        table = fmo.exciton_table(np.diag(np.arange(1.0, 8.0)))
        assert np.array_equal(table.energies, np.arange(1.0, 8.0))
        assert np.array_equal(table.amplitudes, np.eye(7))

    def test_reconstruction(self):
        h = fmo.build_hamiltonian(fmo.dataset("reng"))
        table = fmo.exciton_table(h)
        rebuilt = (table.amplitudes * table.energies) @ table.amplitudes.T
        assert np.linalg.norm(rebuilt - h) < 1e-8

    def test_trace_invariance(self):
        for data in fmo.builtin_datasets():
            h = fmo.build_hamiltonian(data)
            table = fmo.exciton_table(h)
            assert abs(table.energies.sum() - data.energy_diffs.sum()) < 1e-8

    def test_runs_for_all_datasets(self):
        for data in fmo.builtin_datasets():
            table = fmo.exciton_table(fmo.build_hamiltonian(data))
            assert np.all(np.diff(table.energies) > 0)

    def test_diagonal_orders_ascending(self):
        order = [1, 2, 0, 6, 4, 3, 5]
        table = fmo.exciton_table(np.diag([3.0, 1.0, 2.0, 6.0, 5.0, 7.0, 4.0]))
        assert np.array_equal(table.energies, np.arange(1.0, 8.0))
        assert np.array_equal(table.amplitudes, np.eye(7)[:, order])

    def test_identity_is_fixed_point(self):
        # seven exact ties: larger leading components first
        table = fmo.exciton_table(np.eye(7))
        assert np.array_equal(table.energies, np.ones(7))
        assert np.array_equal(table.amplitudes, np.eye(7))

    def test_eigen_equation_residual(self):
        h = random_symmetric(42)
        table = fmo.exciton_table(h)
        residual = np.abs(h @ table.amplitudes - table.amplitudes * table.energies).max()
        assert residual < 1e-10 * np.linalg.norm(h)

    def test_sign_convention(self):
        for h in [random_symmetric(13), *map(fmo.build_hamiltonian, fmo.builtin_datasets())]:
            amplitudes = fmo.exciton_table(h).amplitudes
            pivots = amplitudes[np.argmax(np.abs(amplitudes), axis=0), np.arange(7)]
            assert np.all(pivots > 0.0)

    def test_deterministic_across_calls(self):
        h = random_symmetric(77)
        first, second = fmo.exciton_table(h), fmo.exciton_table(h.copy())
        assert np.array_equal(first.energies, second.energies)
        assert np.array_equal(first.amplitudes, second.amplitudes)

    def test_matches_jacobi_oracle(self):
        for h in [random_symmetric(207), *map(fmo.build_hamiltonian, fmo.builtin_datasets())]:
            table = fmo.exciton_table(h)
            oracle_energies, oracle_vectors = jacobi_eigen(h)
            assert np.abs(table.energies - oracle_energies).max() < 1e-10 * np.linalg.norm(h)
            # no ties: each column agrees with the oracle's up to its phase
            overlaps = np.abs(np.sum(table.amplitudes * oracle_vectors, axis=0))
            assert np.abs(overlaps - 1.0).max() < 1e-10

    def test_arrays_are_private_read_only_copies(self):
        table = fmo.exciton_table(SITE_HAMILTONIAN)
        with pytest.raises(ValueError, match="read-only"):
            table.energies[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table.amplitudes[0, 0] = 0.0
        energies, amplitudes = np.arange(7.0), np.eye(7)
        built = fmo.ExcitonTable(energies, amplitudes)
        energies[0], amplitudes[0, 0] = 99.0, 0.0
        assert built.energies[0] == 0.0 and built.amplitudes[0, 0] == 1.0
        assert np.array_equal(fmo.exciton_table(SITE_HAMILTONIAN).energies, table.energies)

    def test_asymmetric_rejected(self):
        bad = SITE_HAMILTONIAN.copy()
        bad[0, 1] = 0.0
        with pytest.raises(ValueError, match="symmetric"):
            fmo.exciton_table(bad)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            fmo.exciton_table(np.eye(6))

    @pytest.mark.parametrize(
        "row, col, bad",
        [(0, 0, math.inf), (3, 3, -math.inf), (0, 0, math.nan), (1, 2, math.nan), (2, 1, math.nan)],
        ids=["inf-diagonal", "minus-inf-diagonal", "nan-diagonal", "nan-upper", "nan-lower"],
    )
    def test_non_finite_entries_rejected(self, row, col, bad):
        # a NaN difference once passed the symmetry check: inf gave seven nan
        # energies with a RuntimeWarning, nan escaped as numpy's LinAlgError
        h = SITE_HAMILTONIAN.copy()
        h[row, col] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^site-basis Hamiltonian entries must be finite$"):
                fmo.exciton_table(h)


class TestSiteEnergyFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text(
            "# site energies, shuffled row order\n"
            "3 12210\n"
            "1 12450  # BChl 1\n"
            "4 12320\n"
            "6 12540\n"
            "7 12470\n"
            "2 12520\n"
            "5 12550\n"
        )
        data = fmo.load_site_energies(path)
        assert data.name == "custom"
        assert np.array_equal(data.site_energies, fmo.dataset("reng").site_energies)
        assert np.array_equal(data.energy_diffs, DIFFS["reng"])

    def test_missing_site_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1 12450\n2 12520\n")
        with pytest.raises(ValueError, match="missing BChl indices"):
            fmo.load_site_energies(path)

    @pytest.mark.parametrize("energy2", ["nan", "inf", "1e308"])
    def test_non_finite_energies_rejected(self, tmp_path, energy2):
        # 1e308 is finite, but its difference to BChl 3 (-1e308) overflows
        path = tmp_path / "wild.txt"
        path.write_text(f"1 12450\n2 {energy2}\n3 -1e308\n4 12320\n5 12550\n6 12540\n7 12470\n")
        with pytest.raises(ValueError, match="wild: site energies and their differences must be finite"):
            fmo.load_site_energies(path)

    def test_duplicate_site_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("\n".join(f"{i} 12000" for i in [1, 2, 3, 4, 5, 6, 6]))
        with pytest.raises(ValueError, match="duplicate BChl index 6"):
            fmo.load_site_energies(path)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 12450\nnot a row\n")
        with pytest.raises(ValueError, match=":2:"):
            fmo.load_site_energies(path)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("8 12450\n")
        with pytest.raises(ValueError, match="BChl index must be 1..7"):
            fmo.load_site_energies(path)
