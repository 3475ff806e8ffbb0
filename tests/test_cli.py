import copy
import gc
import io
import math
import operator
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fmoent
from fmoent import cli
from fmoent import entanglement as ent
from fmoent import fidelity as fid
from fmoent.cli import (
    AxisSpec,
    ConfigError,
    ScanResult,
    ScanSpec,
    build_scan_spec,
    emit_csv,
    load_config,
    run_scan,
)
from fmoent.fmo import build_hamiltonian, dataset, exciton_table
from fmoent.reservoir import ReservoirParams, amplitude, damping, population_difference, survival

import dense
from conftest import write_csv_reference

def scalar_route(observable, point):
    """One grid point through the library's scalar functions, one call each."""
    res = ReservoirParams(point["gamma0"], half_width=point["half_width"], delta=point["delta"])
    t, n = point["t"], int(point["n"])
    if observable == "delta_p":
        return [population_difference(amplitude(res, t))]
    u = amplitude(res, t)
    if observable == "u_amplitude":
        return [u.real, u.imag, abs(u) ** 2]
    if observable in ("e_exciton", "e_reservoir"):
        s = survival(u) if observable == "e_exciton" else damping(u)
        return [dense.global_entanglement(dense.w_mixture_rho(s, n), n)]
    if observable in ("q_closed", "q_numeric"):
        b = point["b"]
        a = math.sqrt(1.0 - b * b)
        if observable == "q_closed":
            return [ent.meyer_wallach_closed(a, b, u)]
        return [dense.meyer_wallach_numeric(dense.x_state_register(a, b, u, u))]
    p = damping(amplitude(res, t))
    if observable in ("f_ghz_tele", "f_ghz_split"):
        formula = fid.f_ghz_teleport if observable == "f_ghz_tele" else fid.f_ghz_split
        return [p, formula(p, n)]
    formula = fid.f_w_teleport if observable == "f_w_tele" else fid.f_w_split
    return [p, formula(p)]


def write_config(tmp_path, text):
    path = tmp_path / "scan.conf"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        path = write_config(
            tmp_path,
            "observable = u_amplitude\n"
            "axis1 = t:0:1:11\n"
            "gamma0 = 1000\n"
            "half_width = 40\n"
            "delta = 0\n",
        )
        spec = load_config(path)
        assert spec.observable == "u_amplitude"
        assert spec.axes == (AxisSpec("t", 0.0, 1.0, 11),)
        assert spec.fixed == {"gamma0": 1000.0, "half_width": 40.0, "delta": 0.0}

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(
            tmp_path,
            "# full-line comment\n"
            "\n"
            "observable = delta_p  # trailing comment\n"
            "axis1 = t:0:1:5\n"
            "gamma0 = 10\n"
            "half_width = 40\n",
        )
        assert load_config(path).observable == "delta_p"

    def test_missing_observable_named(self, tmp_path):
        path = write_config(tmp_path, "gamma0 = 10\n")
        with pytest.raises(ConfigError, match="observable"):
            load_config(path)

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = write_config(tmp_path, "observable = delta_p\nfoo = 1\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'foo'"):
            load_config(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_config(tmp_path, "observable delta_p\n")
        with pytest.raises(ConfigError, match=r":1:"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "observable = delta_p\nobservable = delta_p\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_bad_number_names_key(self, tmp_path):
        path = write_config(tmp_path, "observable = delta_p\ngamma0 = fast\n")
        with pytest.raises(ConfigError, match="gamma0"):
            load_config(path)

    def test_bad_axis_strings(self):
        with pytest.raises(ConfigError, match="axis1"):
            build_scan_spec({"observable": "delta_p", "axis1": "t:0:1"})
        with pytest.raises(ConfigError, match="steps must be >= 2"):
            build_scan_spec({"observable": "delta_p", "axis1": "t:0:1:1"})
        with pytest.raises(ConfigError, match="unknown axis name"):
            build_scan_spec({"observable": "delta_p", "axis1": "tau:0:1:5"})
        with pytest.raises(ConfigError, match="duplicates axis1"):
            build_scan_spec(
                {"observable": "delta_p", "axis1": "t:0:1:5", "axis2": "t:0:1:5"}
            )


class TestRunScan:
    def test_unknown_observable_names_field(self):
        with pytest.raises(ValueError, match="observable"):
            run_scan(ScanSpec(observable="nope"))

    def test_missing_parameter_named(self):
        spec = ScanSpec(observable="delta_p", axes=(AxisSpec("t", 0, 1, 5),))
        with pytest.raises(ValueError, match="gamma0"):
            run_scan(spec)

    def test_scalar_scan_has_single_row(self):
        spec = ScanSpec(
            observable="delta_p",
            fixed={"gamma0": 1000.0, "half_width": 40.0, "t": 0.0},
        )
        result = run_scan(spec)
        assert result.header == ("delta_p",)
        assert result.rows.dtype == np.float64
        assert result.rows.tolist() == [[1.0]]

    def test_row_count_is_grid_product(self):
        spec = ScanSpec(
            observable="delta_p",
            axes=(AxisSpec("t", 0.0, 1.0, 51), AxisSpec("gamma0", 10.0, 2000.0, 40)),
            fixed={"half_width": 40.0},
        )
        result = run_scan(spec)
        assert len(result.rows) == 51 * 40
        assert result.header == ("t_ps", "gamma0_cm1", "delta_p")

    def test_outer_axis_varies_slowest(self):
        spec = ScanSpec(
            observable="u_amplitude",
            axes=(AxisSpec("gamma0", 10.0, 20.0, 2), AxisSpec("t", 0.0, 1.0, 3)),
            fixed={"half_width": 40.0},
        )
        rows = run_scan(spec).rows
        assert [r[0] for r in rows] == [10.0, 10.0, 10.0, 20.0, 20.0, 20.0]
        assert [r[1] for r in rows] == [0.0, 0.5, 1.0] * 2

    def test_axis_and_fixed_conflict(self):
        with pytest.raises(ValueError, match="both as an axis and a fixed value"):
            ScanSpec(
                observable="delta_p",
                axes=(AxisSpec("t", 0.0, 1.0, 5),),
                fixed={"gamma0": 10.0, "half_width": 40.0, "t": 0.3},
            )

    def test_fixed_values_cannot_change_after_the_spec_is_checked(self):
        fixed = {"gamma0": 1000.0, "half_width": 40.0, "delta": 500.0, "t": 0.5}
        spec = ScanSpec(observable="delta_p", fixed=fixed)
        expected = run_scan(spec).rows.tolist()
        # a misspelt key and an n that is not an integer, both refused when built
        for edit, args in (
            (operator.setitem, ("dleta", 1e3)),
            (operator.delitem, ("delta",)),
            (operator.setitem, ("n", 4.5)),
            (operator.setitem, ("delta", 0.0)),
        ):
            with pytest.raises(TypeError):
                edit(spec.fixed, *args)
        # the spec holds a copy: the caller's dict may change afterwards
        fixed["delta"] = 0.0
        del fixed["gamma0"]
        assert spec.fixed["delta"] == 500.0 and "gamma0" in spec.fixed
        assert run_scan(spec).rows.tolist() == expected
        assert spec == ScanSpec(observable="delta_p", fixed={**fixed, "gamma0": 1000.0, "delta": 500.0})
        assert spec != ScanSpec(observable="delta_p", fixed={**fixed, "gamma0": 1000.0, "delta": 0.0})
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec
            with pytest.raises(TypeError):
                operator.setitem(copied.fixed, "delta", 0.0)

    def test_b_sweep_derives_a(self):
        spec = ScanSpec(
            observable="q_closed",
            axes=(AxisSpec("b", 0.0, 1.0, 5),),
            fixed={"gamma0": 800.0, "half_width": 40.0, "t": 0.1},
        )
        result = run_scan(spec)
        assert len(result.rows) == 5
        # q at b = 0 vanishes; q at b = 1 is 4 u^2 v^2
        assert result.rows[0][1] == 0.0

    def test_a_is_not_a_scan_input(self, tmp_path, capsys):
        # b fixes a = sqrt(1 - b^2): a is neither a parameter, a flag nor a config key
        with pytest.raises(ConfigError, match="^a: not a scan parameter"):
            ScanSpec("q_closed", fixed={"gamma0": 900.0, "half_width": 30.0, "t": 0.3, "a": 0.6, "b": 0.8})
        argv = ["scan", "--observable", "q_closed", "--t", "0.3", "--gamma0", "900", "--half-width", "30"]
        with pytest.raises(SystemExit) as usage:
            cli.main([*argv, "--a", "0.6", "--b", "0.8"])
        assert usage.value.code == 2
        # a flag is read only by its full name: "--a" is no abbreviation of --axis1 or --axis2
        assert "fmoent: error: unrecognized arguments: --a 0.6" in capsys.readouterr().err
        config = write_config(tmp_path, "observable = q_closed\na = 0.6\n")
        assert cli.main(["scan", "--config", str(config)]) == 1
        assert capsys.readouterr().err.endswith("unknown key 'a'\n")

    def test_q_closed_and_numeric_agree_at_b_one(self):
        common = {"gamma0": 800.0, "half_width": 40.0, "b": 1.0}
        axes = (AxisSpec("t", 0.0, 0.4, 9),)
        closed = run_scan(ScanSpec(observable="q_closed", axes=axes, fixed=dict(common)))
        numeric = run_scan(ScanSpec(observable="q_numeric", axes=axes, fixed=dict(common)))
        for row_c, row_n in zip(closed.rows, numeric.rows):
            assert abs(row_c[1] - row_n[1]) < 1e-12

    def test_n_axis_requires_integers(self):
        spec = ScanSpec(
            observable="f_ghz_tele",
            axes=(AxisSpec("n", 4.0, 5.0, 3),),
            fixed={"gamma0": 10.0, "half_width": 40.0, "t": 0.1},
        )
        with pytest.raises(ConfigError, match="integers"):
            run_scan(spec)

    def test_n_axis_sweep(self):
        spec = ScanSpec(
            observable="f_ghz_tele",
            axes=(AxisSpec("n", 4.0, 64.0, 4),),
            fixed={"gamma0": 10.0, "half_width": 40.0, "t": 0.2},
        )
        rows = run_scan(spec).rows
        assert [r[0] for r in rows] == [4.0, 24.0, 44.0, 64.0]
        fidelities = [r[2] for r in rows]
        assert all(np.diff(fidelities) <= 1e-12)  # more parties, lower fidelity

    def test_entanglement_scan_shows_markovian_vs_revivals(self):
        axes = (AxisSpec("t", 0.0, 0.6, 13),)
        slow = run_scan(
            ScanSpec(
                observable="e_exciton",
                axes=axes,
                fixed={"gamma0": 10.0, "half_width": 40.0},
            )
        )
        fast = run_scan(
            ScanSpec(
                observable="e_exciton",
                axes=axes,
                fixed={"gamma0": 2000.0, "half_width": 40.0},
            )
        )
        slow_vals = np.array([r[1] for r in slow.rows])
        fast_vals = np.array([r[1] for r in fast.rows])
        assert np.all(np.diff(slow_vals) <= 1e-10)  # monotone decay
        assert np.any(np.diff(fast_vals) > 1e-6)  # at least one revival

    def test_grid_points_are_independent(self):
        # each row must equal the same point evaluated on its own (pure
        # kernels: any evaluation order or partitioning gives the same grid)
        fixed = {"half_width": 40.0, "delta": 15.0, "b": 0.6, "n": 4.0}
        for observable in cli.OBSERVABLES:
            spec = ScanSpec(
                observable=observable,
                axes=(AxisSpec("t", 0.0, 0.5, 4), AxisSpec("gamma0", 100.0, 900.0, 3)),
                fixed=dict(fixed),
            )
            result = run_scan(spec)
            for row in result.rows:
                t_value, gamma_value = row[0], row[1]
                single = run_scan(
                    ScanSpec(
                        observable=observable,
                        fixed={**fixed, "t": t_value, "gamma0": gamma_value},
                    )
                )
                assert single.rows[0].tolist() == row[2:].tolist(), observable

    def test_blocks_do_not_change_rows(self, monkeypatch):
        spec = ScanSpec(
            observable="u_amplitude",
            axes=(AxisSpec("delta", -50.0, 50.0, 7), AxisSpec("t", 0.0, 0.8, 9)),
            fixed={"gamma0": 900.0, "half_width": 30.0},
        )
        whole = run_scan(spec).rows
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)
        assert np.array_equal(run_scan(spec).rows, whole)

    @staticmethod
    def _record_amplitude_calls(monkeypatch):
        sizes = []
        cli._need("reservoir")
        original = cli.amplitude

        def recording(params, t):
            u = original(params, t)
            sizes.append(u.size)
            return u

        monkeypatch.setattr(cli, "amplitude", recording)
        return sizes

    @pytest.mark.parametrize(
        "observable, axes",
        [
            ("delta_p", (AxisSpec("gamma0", 100.0, 2000.0, 3), AxisSpec("t", 0.0, 2.0, 3000))),
            ("q_numeric", (AxisSpec("b", 0.0, 1.0, 3), AxisSpec("t", 0.0, 2.0, 3000))),
            ("f_ghz_split", (AxisSpec("n", 2.0, 4.0, 3), AxisSpec("t", 0.0, 2.0, 1500))),
            ("u_amplitude", (AxisSpec("t", 0.0, 2.0, 2500),)),
            ("e_exciton", (AxisSpec("t", 0.0, 2.0, 600), AxisSpec("delta", -50.0, 50.0, 5))),
        ],
    )
    def test_amplitude_calls_stay_within_a_block(self, monkeypatch, observable, axes):
        # the block bounds the kernel's temporaries
        sizes = self._record_amplitude_calls(monkeypatch)
        result = _scan(observable, *axes)
        assert sizes and max(sizes) <= cli._BLOCK_ROWS
        assert sum(sizes) <= len(result.rows)

    def test_amplitude_is_evaluated_once_per_reservoir_point(self, monkeypatch):
        sizes = self._record_amplitude_calls(monkeypatch)
        run_scan(
            ScanSpec(
                observable="q_numeric",
                axes=(AxisSpec("b", 0.0, 1.0, 21), AxisSpec("t", 0.0, 1.0, 101)),
                fixed={"gamma0": 800.0, "half_width": 40.0},
            )
        )
        assert sizes == [101]
        # an outer reservoir axis: k = 1024 // 101 whole sweeps per call
        sizes.clear()
        _scan("delta_p", AxisSpec("gamma0", 10.0, 2000.0, 21), AxisSpec("t", 0.0, 1.0, 101))
        assert sizes == [1010, 1010, 101]
        # a reservoir inner axis under an outer t: one value of u per row
        sizes.clear()
        _scan("q_closed", AxisSpec("t", 0.0, 1.0, 9), AxisSpec("delta", -50.0, 50.0, 4))
        assert sizes == [36]
        sizes.clear()
        _scan("q_closed", AxisSpec("t", 0.0, 1.0, 9), AxisSpec("b", 0.0, 1.0, 4))
        assert sizes == [9]

    @pytest.mark.parametrize(
        "observable, library",
        [("delta_p", population_difference), ("f_w_tele", damping), ("f_ghz_tele", damping)],
    )
    def test_columns_are_the_library_functions_bit_for_bit(self, observable, library):
        # the scan forms delta_p and the damping column from u with the
        # library's own expressions; each row equals a one-element-per-row call
        for axes in [
            (AxisSpec("gamma0", 10.0, 2000.0, 13), AxisSpec("t", 0.0, 1.3, 101)),
            (AxisSpec("t", 0.0, 1.3, 17), AxisSpec("delta", -300.0, 300.0, 7)),
            (AxisSpec("n", 2.0, 9.0, 8), AxisSpec("t", 0.0, 1.3, 151)),
        ]:
            result = _scan(observable, *axes)
            names = [axis.name for axis in axes]

            def column(name):
                if name in names:
                    return result.rows[:, names.index(name)]
                return np.full(len(result.rows), _FIXED[name])

            reservoir = ReservoirParams(column("gamma0"), half_width=column("half_width"), delta=column("delta"))
            assert np.array_equal(result.rows[:, len(axes)], library(amplitude(reservoir, column("t"))))

    @pytest.mark.parametrize("observable", cli.OBSERVABLES)
    def test_rows_match_scalar_library_route(self, observable):
        # the array kernels against one scalar library call per point; the
        # array arithmetic may round differently in the last bits, so the
        # bound is a few hundred ulps of an O(1) value (e_* use the dense
        # 2^N route as the oracle)
        axes = (AxisSpec("gamma0", 200.0, 1800.0, 3), AxisSpec("t", 0.0, 0.9, 7))
        if observable in ("q_closed", "q_numeric"):
            axes = (AxisSpec("b", 0.0, 1.0, 4), AxisSpec("t", 0.0, 0.9, 7))
        elif observable in ("e_exciton", "e_reservoir", "f_ghz_tele", "f_ghz_split"):
            axes = (AxisSpec("n", 2.0, 5.0, 4), AxisSpec("t", 0.0, 0.9, 7))
        fixed = {"gamma0": 1300.0, "half_width": 35.0, "delta": 25.0, "b": 0.7, "n": 4.0}
        names = [axis.name for axis in axes]
        fixed = {k: v for k, v in fixed.items() if k not in names}
        result = run_scan(ScanSpec(observable=observable, axes=axes, fixed=fixed))
        assert len(result.rows) == math.prod(axis.steps for axis in axes)
        for row in result.rows:
            point = {**fixed, **dict(zip(names, row[:2]))}
            np.testing.assert_allclose(
                row[2:], scalar_route(observable, point), rtol=0, atol=1e-13, err_msg=observable
            )

    def test_e_exciton_twelve_qubits(self, capsys):
        argv = ["scan", "--observable", "e_exciton", "--axis1", "t:0:1:51",
                "--gamma0", "1000", "--half-width", "40", "--n", "12"]
        start = time.perf_counter()
        assert cli.main(argv) == 0
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.split("\n")[1:-1]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert len(rows) == 51
        assert elapsed < 1.0
        # t = 0 is the pure W12 state: each m-cut has negativity sqrt(m(N-m))/N
        pure = np.mean([2 / (2**m - 1) * math.sqrt(m * (12 - m)) / 12 for m in range(1, 7)])
        assert abs(rows[0][1] - pure) < 1e-12  # CSV carries 12 digits
        assert all(0.0 <= row[1] <= 1.0 for row in rows)

    def test_grid_size_bounded_before_allocation(self, capsys):
        # 1e11 points would need 0.8 TB per column: refused, never allocated
        argv = ["scan", "--observable", "delta_p", "--axis1", "t:0:1:100000000000",
                "--gamma0", "10", "--half-width", "40"]
        assert cli.main(argv) == 1
        assert "limit" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="limit"):
            build_scan_spec(
                {"observable": "delta_p", "axis1": "t:0:1:100000000000",
                 "gamma0": "10", "half_width": "40"}
            )
        with pytest.raises(ConfigError, match="limit"):
            ScanSpec(
                observable="delta_p",
                axes=(
                    AxisSpec("t", 0.0, 1.0, 10**4),
                    AxisSpec("gamma0", 1.0, 2.0, cli.MAX_GRID_ROWS // 10**4 + 1),
                ),
                fixed={"half_width": 40.0},
            )

    @pytest.mark.parametrize(
        "build, flags, key",
        [
            pytest.param(lambda: AxisSpec("tau", 0.0, 1.0, 5), ["--axis1", "tau:0:1:5"],
                         "axis 'tau'", id="axis-name"),
            # a nan bound would print a nan axis column
            pytest.param(lambda: AxisSpec("b", 0.0, math.nan, 3), ["--axis1", "b:0:nan:3"],
                         "axis b", id="nan-bound"),
            pytest.param(lambda: AxisSpec("t", -math.inf, 1.0, 3), ["--axis1", "t:-inf:1:3"],
                         "axis t", id="inf-bound"),
            pytest.param(lambda: AxisSpec("t", 0.0, 1.0, 1), ["--axis1", "t:0:1:1"],
                         "axis t", id="one-step"),
            # a float count is refused here, not by np.linspace; a flag's steps go through int()
            pytest.param(lambda: AxisSpec("t", 0.0, 1.0, 2.5), None, "axis t", id="fractional-steps"),
            pytest.param(lambda: AxisSpec("t", 0.0, 1.0, 5.0), None, "axis t", id="float-steps"),
            pytest.param(lambda: ScanSpec("delta_p", axes=(AxisSpec("t", 0.0, 1.0, 2),) * 3), None,
                         "axes", id="three-axes"),
            pytest.param(
                lambda: ScanSpec("delta_p", axes=(AxisSpec("t", 0.0, 1.0, 5),) * 2),
                ["--axis1", "t:0:1:5", "--axis2", "t:0:1:5"], "axis2", id="duplicate-axes",
            ),
            pytest.param(
                lambda: ScanSpec("delta_p", axes=(AxisSpec("t", 0.0, 1.0, 5),), fixed={"t": 0.3}),
                ["--axis1", "t:0:1:5", "--t", "0.3"], "t", id="axis-also-fixed",
            ),
            # a misspelt key would leave delta at its default of 0
            pytest.param(lambda: ScanSpec("delta_p", fixed={"dleta": 50.0}), None,
                         "dleta", id="unknown-parameter"),
            pytest.param(lambda: ScanSpec("delta_p", fixed={"gamma0": math.inf}),
                         ["--t", "0.5", "--gamma0", "inf"], "gamma0", id="non-finite-fixed"),
            pytest.param(
                lambda: ScanSpec("delta_p", axes=(AxisSpec("t", 0.0, 1.0, 10**4),
                                                  AxisSpec("delta", 1.0, 2.0, 1001))),
                ["--axis1", "t:0:1:10000", "--axis2", "delta:1:2:1001"], "axes", id="grid-limit",
            ),
            pytest.param(lambda: ScanSpec("delta_p", fixed={"n": 4.5}),
                         ["--t", "0.5", "--n", "4.5"], "n", id="fractional-n"),
        ],
    )
    def test_invalid_specs_refused_when_built(self, build, flags, key, capsys):
        with pytest.raises(ConfigError) as refused:
            build()
        message = str(refused.value)
        assert message.startswith(f"{key}: ")
        if flags is None:
            return  # beyond the flags: three axes, a key with no flag
        argv = ["scan", "--observable", "delta_p", "--gamma0", "1000", "--half-width", "40", *flags]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # a flag's axis is named by its key: "fmoent: axis1: axis t: ..."
        assert captured.err.startswith("fmoent: ") and captured.err.endswith(f"{message}\n")

    def test_exciton_table_is_not_a_scan(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="use `fmoent table`") as refused:
            ScanSpec("exciton_table")
        config = write_config(tmp_path, "observable = exciton_table\n")
        assert cli.main(["scan", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"fmoent: {refused.value}\n"
        with pytest.raises(SystemExit) as usage:
            cli.main(["scan", "--observable", "exciton_table"])
        assert usage.value.code == 2

    def test_axes_cannot_change_after_the_spec_is_checked(self):
        # a list once stayed the caller's: appending after the checks gave a 3-axis scan
        fixed = {"gamma0": 1000.0, "half_width": 40.0}
        axes = [AxisSpec("t", 0.0, 1.0, 3), AxisSpec("delta", 0.0, 1.0, 2)]
        spec = ScanSpec("delta_p", axes, fixed)
        axes.append(AxisSpec("b", 0.0, 1.0, 2))
        assert spec.axes == (AxisSpec("t", 0.0, 1.0, 3), AxisSpec("delta", 0.0, 1.0, 2))
        assert run_scan(spec).header == ("t_ps", "delta_cm1", "delta_p")

    def test_a_result_cannot_change_after_it_is_checked(self, capsys):
        # the header once stayed a list: appending a name wrote a 3-name header over 2-value rows
        spec = ScanSpec("delta_p", (AxisSpec("t", 0.0, 1.0, 3),), {"gamma0": 1000.0, "half_width": 40.0})
        result = run_scan(spec)
        with pytest.raises(AttributeError):
            result.header.append("oops")
        for array in (result.values, *result.axes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0
        emit_csv(result)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t_ps,delta_p" and [line.count(",") for line in lines] == [1, 1, 1, 1]
        # the record keeps views: the caller's arrays stay writable, and nothing is copied
        header, values, grid = ["t_ps", "v"], np.array([[0.5], [0.25]]), np.array([0.0, 1.0])
        kept = ScanResult(header, values, (grid,))
        header.append("oops")
        assert kept.header == ("t_ps", "v")
        assert np.shares_memory(kept.values, values) and np.shares_memory(kept.axes[0], grid)
        assert values.flags.writeable and grid.flags.writeable

    def test_a_result_cannot_be_made_writable_again(self):
        # the arrays run_scan filled stayed writable, so its read-only views could be
        # made writable again: setflags(write=True), then a write, printed 7
        fixed = {"gamma0": 1000.0, "half_width": 40.0}
        # a t grid is a view of linspace's own buffer, an n grid owns its rounded values
        result = run_scan(ScanSpec("e_exciton", (AxisSpec("t", 0.0, 1.0, 3), AxisSpec("n", 2.0, 4.0, 3)), fixed))
        for array in (result.values, *result.axes):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
        assert len(_csv(cli._write_csv, result).splitlines()) == 10

    def test_a_fractional_n_grid_is_refused_by_its_first_fraction(self, capsys):
        # the refusal once printed the whole grid: 58,519,953 bytes for 3,000,000 steps
        scan = ["scan", "--observable", "e_exciton", "--gamma0", "1000", "--half-width", "40"]
        assert cli.main([*scan, "--axis1", "n:2:3:3", "--axis2", "t:0:1:3"]) == 1
        assert capsys.readouterr().err == "fmoent: axis n: values must be integers, got 2.5\n"
        assert cli.main([*scan, "--axis1", "n:2:3:30001", "--t", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fmoent: axis n: values must be integers, got 2.0000333333333336\n"
        assert len(captured.err) < 600

    def test_a_value_too_long_to_print_is_refused_by_its_key(self):
        # repr(10**5000) raises "Exceeds the limit (4300 digits)", naming no key
        big = 10**5000
        size = f"an int of {big.bit_length()} bits"
        fixed = {"gamma0": 1000.0, "half_width": 40.0}
        refusals = [
            (lambda: AxisSpec("t", big, 1.0, 3), f"axis t: min and max must be real numbers, got {size} and 1.0"),
            (lambda: AxisSpec("t", 0.0, -big, 3), f"axis t: min and max must be real numbers, got 0.0 and {size}"),
            (lambda: AxisSpec("t", 0.0, 1.0, -big), f"axis t: steps must be >= 2, got {size}"),
            (lambda: AxisSpec(big, 0.0, 1.0, 3), f"axis {size}: unknown axis name; use one of {cli.AXIS_NAMES}"),
            (lambda: ScanSpec("delta_p", fixed={**fixed, "t": big}), f"t: expected a real number, got {size}"),
            (lambda: ScanSpec("delta_p", fixed={big: 1.0}), f"{size}: not a scan parameter; use one of {cli.AXIS_NAMES}"),
            (lambda: ScanSpec(big), f"observable: unknown value {size}"),
            (lambda: ScanSpec("delta_p", (big,), fixed), f"axes: expected AxisSpec items, got {size}"),
        ]
        for build, message in refusals:
            with pytest.raises(ConfigError) as refused:
                build()
            assert str(refused.value) == message
        # a long repr is cut, with its length
        with pytest.raises(ConfigError) as refused:
            ScanSpec("delta_p", fixed={**fixed, "t": "x" * 1000})
        assert str(refused.value) == f"t: expected a real number, got '{'x' * 499}... (1002 characters)"

    @pytest.mark.parametrize("steps, shown", [(1, "1"), (np.int64(1), "1"), (-3, "-3"), (True, "True")])
    def test_too_few_steps_are_shown_as_given(self, steps, shown):
        with pytest.raises(ConfigError, match=rf"^axis t: steps must be >= 2, got {shown}$"):
            AxisSpec("t", 0.0, 1.0, steps)

    @pytest.mark.parametrize("axis", ["t:0:1:3", ("t", 0.0, 1.0, 3), None])
    def test_an_axis_that_is_not_an_axis_spec_is_refused(self, axis):
        with pytest.raises(ConfigError, match=r"^axes: expected AxisSpec items, got "):
            ScanSpec("delta_p", (axis,), {"gamma0": 1000.0, "half_width": 40.0})

    @pytest.mark.parametrize("value", ["0", True, np.bool_(False), 1j, 0.5 + 0j, None, 10**400])
    def test_axis_bounds_must_be_real_numbers(self, value):
        # "0" once raised TypeError from math.isfinite, True built a grid of 1.0s,
        # and 10**400 raised OverflowError: an int beyond 64 bits is not read as a number
        for start, stop in ((value, 1.0), (0.0, value)):
            shown = re.escape(f"got {start!r} and {stop!r}")
            with pytest.raises(ConfigError, match=rf"^axis t: min and max must be real numbers, {shown}$"):
                AxisSpec("t", start, stop, 3)

    @pytest.mark.parametrize("value", ["0.5", True, np.bool_(True), 1j, None, 10**400])
    def test_fixed_values_must_be_real_numbers(self, value):
        with pytest.raises(ConfigError, match=rf"^t: expected a real number, got {re.escape(repr(value))}$"):
            ScanSpec("delta_p", fixed={"gamma0": 1000.0, "half_width": 40.0, "t": value})

    @pytest.mark.parametrize("value", [1, 0.5, np.float32(0.5), np.int64(1), np.float64(0.25)])
    def test_real_numbers_of_any_type_are_read(self, value):
        fixed = {"gamma0": 1000.0, "half_width": 40.0, "t": value}
        assert run_scan(ScanSpec("delta_p", fixed=fixed)).values.shape == (1, 1)
        assert AxisSpec("t", value, 2.0, 3).values()[0] == value


class TestCsvEmission:
    def test_scalar_scan_emits_two_lines(self, capsys):
        spec = ScanSpec(
            observable="delta_p",
            fixed={"gamma0": 1000.0, "half_width": 40.0, "t": 0.0},
        )
        emit_csv(run_scan(spec))
        out = capsys.readouterr().out
        assert out == "delta_p\n1\n"

    def test_grid_line_count(self, tmp_path):
        spec = ScanSpec(
            observable="delta_p",
            axes=(AxisSpec("t", 0.0, 1.0, 51), AxisSpec("gamma0", 10.0, 2000.0, 40)),
            fixed={"half_width": 40.0},
        )
        out = tmp_path / "grid.csv"
        emit_csv(run_scan(spec), out)
        lines = out.read_text().split("\n")
        assert lines[-1] == ""  # single trailing newline
        assert len(lines) - 1 == 2041

    def test_round_trip_is_stable_at_12_digits(self, tmp_path):
        spec = ScanSpec(
            observable="u_amplitude",
            axes=(AxisSpec("t", 0.0, 1.3, 40),),
            fixed={"gamma0": 777.0, "half_width": 33.0, "delta": 21.0},
        )
        out = tmp_path / "u.csv"
        emit_csv(run_scan(spec), out)
        text = out.read_text()
        header, *rows = text.strip().split("\n")
        parsed = [[float(v) for v in row.split(",")] for row in rows]
        re_emitted = "\n".join(
            [header] + [",".join(format(v, ".12g") for v in row) for row in parsed]
        ) + "\n"
        assert re_emitted == text

    def test_byte_identical_across_runs(self, tmp_path):
        spec_text = (
            "observable = f_w_tele\n"
            "axis1 = t:0:1:21\n"
            "gamma0 = 1500\n"
            "half_width = 40\n"
        )
        config = tmp_path / "c.conf"
        config.write_text(spec_text)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["scan", "--config", str(config), "--output", str(out1)]) == 0
        assert cli.main(["scan", "--config", str(config), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def _csv(writer, result) -> str:
    out = io.StringIO()
    writer(result, out)
    return out.getvalue()


def assert_reference_bytes(result):
    assert _csv(cli._write_csv, result) == _csv(write_csv_reference, result)


def _observable_axes(observable):
    """(outer, inner) axes an observable can sweep, with an n axis where it takes one."""
    if observable in ("q_closed", "q_numeric"):
        return AxisSpec("b", 0.0, 1.0, 6), AxisSpec("t", 0.0, 1.3, 17)
    if observable in ("e_exciton", "e_reservoir", "f_ghz_tele", "f_ghz_split"):
        return AxisSpec("n", 2.0, 9.0, 8), AxisSpec("t", 0.0, 1.3, 17)
    return AxisSpec("gamma0", 10.0, 2000.0, 6), AxisSpec("t", 0.0, 1.3, 17)


_FIXED = {"gamma0": 1300.0, "half_width": 35.0, "delta": 25.0, "b": 0.7, "n": 4.0, "t": 0.3}


def _scan(observable, *axes):
    names = {axis.name for axis in axes}
    fixed = {k: v for k, v in _FIXED.items() if k not in names}
    return run_scan(ScanSpec(observable=observable, axes=axes, fixed=fixed))


class TestCsvWriterBytes:
    """The axis-once writer against the one-value-at-a-time reference writer."""

    @pytest.mark.parametrize("observable", cli.OBSERVABLES)
    def test_scalar_scan(self, observable):
        result = _scan(observable)
        assert result.axes == () and len(result.rows) == 1
        assert_reference_bytes(result)

    @pytest.mark.parametrize("observable", cli.OBSERVABLES)
    def test_one_axis_scans(self, observable):
        outer, inner = _observable_axes(observable)
        for axis in (outer, inner):
            assert_reference_bytes(_scan(observable, axis))

    @pytest.mark.parametrize("observable", cli.OBSERVABLES)
    def test_two_axis_scans(self, observable):
        outer, inner = _observable_axes(observable)
        assert_reference_bytes(_scan(observable, outer, inner))
        assert_reference_bytes(_scan(observable, inner, outer))

    @pytest.mark.parametrize("block_rows", [1, 2, 5, 16, 17])
    def test_any_block_size(self, monkeypatch, block_rows):
        # sweeps shorter and longer than a block, ending on and off its edge
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        for axes in [
            (AxisSpec("delta", -50.0, 50.0, 7), AxisSpec("t", 0.0, 0.8, 9)),
            (AxisSpec("delta", -50.0, 50.0, 9), AxisSpec("t", 0.0, 0.8, 3)),
            (AxisSpec("t", 0.0, 0.8, 33),),
        ]:
            assert_reference_bytes(_scan("u_amplitude", *axes))
        assert_reference_bytes(_scan("u_amplitude"))

    def test_values_in_exponent_notation(self):
        rng = np.random.default_rng(7)
        outer = np.array([-1e300, -2.5e-17, -0.0, 0.0, 1e-5, 1e16, 1.5e22])
        inner = np.array([5e-324, -1e-310, 123456789012345.0, 0.1 + 0.2, -7e-12])
        size = (len(outer) * len(inner), 3)
        values = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-320.0, 307.0, size=size)
        result = ScanResult(["x", "y", "a", "b", "c"], values, (outer, inner))
        text = _csv(cli._write_csv, result)
        assert "e-324" in text and "e+300" in text and "-0," in text
        assert text == _csv(write_csv_reference, result)
        # huge and negative outer values, tiny inner ones
        assert_reference_bytes(
            _scan("u_amplitude", AxisSpec("delta", -1e9, 1e9, 5), AxisSpec("t", 0.0, 1e-9, 11))
        )
        assert_reference_bytes(
            _scan("delta_p", AxisSpec("gamma0", 1e-6, 1e9, 4), AxisSpec("t", 0.0, 1e-12, 5))
        )

    @pytest.mark.parametrize("steps", [1023, 1024, 1025])
    def test_inner_axes_at_the_block_edge(self, steps):
        assert cli._BLOCK_ROWS == 1024
        for outer in (AxisSpec("gamma0", 10.0, 2000.0, 3), AxisSpec("n", 2.0, 4.0, 3)):
            assert_reference_bytes(_scan("f_ghz_split", outer, AxisSpec("t", 0.0, 2.0, steps)))
        assert_reference_bytes(_scan("u_amplitude", AxisSpec("t", 0.0, 2.0, steps)))

    def test_long_inner_axis(self):
        result = _scan("u_amplitude", AxisSpec("delta", -30.0, 30.0, 2), AxisSpec("t", 0.0, 5.0, 3000))
        assert_reference_bytes(result)

    @pytest.mark.parametrize("name", ["reng", "lorenExpt", "wend"])
    def test_exciton_table(self, name, capsys):
        assert cli.main(["table", "--dataset", name]) == 0
        table = exciton_table(build_hamiltonian(dataset(name)))
        header = ["energy_cm1"] + [f"bchl{i}" for i in range(1, 8)]
        rows = np.column_stack([table.energies, table.amplitudes.T])
        assert capsys.readouterr().out == _csv(write_csv_reference, ScanResult(header, rows))

    def test_axes_must_span_the_rows(self):
        with pytest.raises(ValueError, match="axes: the grids do not span the rows"):
            ScanResult(["t_ps", "delta_p"], np.zeros((5, 1)), (np.arange(4.0),))
        with pytest.raises(ValueError, match="axes: at most 2"):
            ScanResult(["x", "y", "z", "v"], np.zeros((8, 1)), (np.arange(2.0),) * 3)
        refused = r"^axes: at most 2 grids, each 1-D and not empty, got shapes "
        with pytest.raises(ValueError, match=refused + r"\[\(2, 2\)\]$"):
            ScanResult(["x", "v"], np.zeros((4, 1)), (np.zeros((2, 2)),))
        # an empty grid was accepted, and the writer then divided by its length
        with pytest.raises(ValueError, match=refused + r"\[\(0,\)\]$"):
            ScanResult(["t_ps", "v"], np.zeros((0, 1)), (np.array([]),))
        # values that do not hold one column per value name, and values that are not 2-D
        expected = r"^values: expected a 2-D array, one column per value name \(1\), got shape "
        with pytest.raises(ValueError, match=expected + r"\(3, 2\)$"):
            ScanResult(["a"], np.zeros((3, 2)))
        with pytest.raises(ValueError, match=expected + r"\(3,\)$"):
            ScanResult(["a"], np.zeros(3))
        # the axis columns are not part of values
        with pytest.raises(ValueError, match=expected + r"\(4, 2\)$"):
            ScanResult(["t_ps", "delta_p"], np.zeros((4, 2)), (np.arange(4.0),))
        ScanResult(["t_ps", "delta_p"], np.zeros((4, 1)), (np.arange(4.0),))

    def test_a_list_grid_writes_the_bytes_of_an_array_grid(self):
        # a list grid was accepted, and the writer then raised AttributeError on its .tolist()
        values = np.array([[0.5, 1.0], [0.25, 2.0]])
        listed = ScanResult(["t_ps", "u", "v"], values, ([0.0, 1.0],))
        assert isinstance(listed.axes[0], np.ndarray)
        assert _csv(cli._write_csv, listed) == _csv(
            cli._write_csv, ScanResult(["t_ps", "u", "v"], values, (np.array([0.0, 1.0]),))
        ) == "t_ps,u,v\n0,0.5,1\n1,0.25,2\n"

    def test_rows_are_the_grid_then_the_values(self):
        result = ScanResult(["x", "y", "v"], np.array([[5.0], [6.0], [7.0], [8.0]]), ([1.0, 2.0], [3.0, 4.0]))
        expected = [[1.0, 3.0, 5.0], [1.0, 4.0, 6.0], [2.0, 3.0, 7.0], [2.0, 4.0, 8.0]]
        assert result.rows.dtype == np.float64 and result.rows.tolist() == expected
        # built on each read: a write to one read does not reach the result
        result.rows[0, 0] = -1.0
        assert result.rows.tolist() == expected

    def test_writes_are_bounded_by_the_block(self):
        # 200,000 rows of 2 columns: a whole-grid template and argument tuple
        # would take about 15 MB; each write covers at most one block
        result = _scan("delta_p", AxisSpec("t", 0.0, 5.0, 200_000))

        class Sink:
            rows = 0
            most = 0

            def write(self, text):
                lines = text.count("\n")
                self.rows += lines
                self.most = max(self.most, lines)

        sink = Sink()
        tracemalloc.start()
        try:
            cli._write_csv(result, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.rows == 200_001 and sink.most <= cli._BLOCK_ROWS
        assert peak < 2**20
        sink = Sink()
        cli._write_csv(_scan("u_amplitude", AxisSpec("delta", -30.0, 30.0, 2), AxisSpec("t", 0.0, 5.0, 3000)), sink)
        assert sink.rows == 6001 and sink.most <= cli._BLOCK_ROWS


    def test_run_scan_holds_each_grid_once(self):
        # 200 x 1,000 delta_p: a table that also held both axis columns peaked at 4.9 MiB
        spec = ScanSpec(
            "delta_p", (AxisSpec("gamma0", 10.0, 2000.0, 200), AxisSpec("t", 0.0, 1.0, 1000)), {"half_width": 40.0}
        )
        run_scan(spec)  # loads the library outside the trace
        tracemalloc.start()
        try:
            result = run_scan(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.values.shape == (200_000, 1)
        assert peak < 2.5 * 2**20


class TestBlockWalk:
    """``_blocks`` is the one blocking of a scan: run_scan evaluates it and the writer writes it."""

    @pytest.mark.parametrize("sweep", [1, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("outer", [1, 2, 3])
    def test_blocks_cover_the_grid_once_in_row_order(self, outer, sweep):
        index = np.arange(outer * sweep).reshape(outer, sweep)
        walked = [index[o, i].ravel() for o, i in cli._blocks(outer, sweep)]
        assert max(block.size for block in walked) <= cli._BLOCK_ROWS
        assert np.array_equal(np.concatenate(walked), np.arange(outer * sweep))

    def test_writes_are_the_walks_blocks(self):
        result = _scan("u_amplitude", AxisSpec("delta", -30.0, 30.0, 2), AxisSpec("t", 0.0, 5.0, 3000))
        lines = []

        class Sink:
            def write(self, text):
                lines.append(text.count("\n"))

        cli._write_csv(result, Sink())
        assert lines == [1, 1024, 1024, 952, 1024, 1024, 952]


class TestSweptAxisOfN:
    """The printed f_ghz_* values do not depend on which axis n is on.

    Their last bits do: numpy's power rounds a contiguous exponent (n the
    inner axis) differently from a broadcast one (n outer or fixed).
    """

    @pytest.mark.parametrize("observable", ["f_ghz_tele", "f_ghz_split"])
    @pytest.mark.parametrize("gamma0", [300.0, 1000.0, 1500.0])
    def test_n_outer_inner_and_fixed_print_the_same_values(self, observable, gamma0):
        n_axis, t_axis = AxisSpec("n", 2.0, 7.0, 6), AxisSpec("t", 0.0, 1.0, 401)
        fixed = {"gamma0": gamma0, "half_width": 40.0}

        def printed(axes, **more):
            """(n, t) -> the printed value columns of one scan."""
            spec = ScanSpec(observable=observable, axes=axes, fixed={**fixed, **more})
            rows = [line.split(",") for line in _csv(cli._write_csv, run_scan(spec)).splitlines()[1:]]
            if not more:
                return {(row[0], row[1]) if axes[0].name == "n" else (row[1], row[0]): row[2:] for row in rows}
            return {("%.12g" % more["n"], row[0]): row[1:] for row in rows}

        outer = printed((n_axis, t_axis))
        assert len(outer) == 6 * 401
        assert printed((t_axis, n_axis)) == outer
        each_n = {}
        for n in n_axis.values():
            each_n.update(printed((t_axis,), n=n))
        assert each_n == outer


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this tree's fmoent."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


# one invocation of each kind a process may end with: output (exit 0), a refusal (1), a usage error (2)
PROCESS_ARGV = {
    "scan": ["scan", "--observable", "f_ghz_tele", "--axis1", "n:2:7:6", "--axis2", "t:0:1:41",
             "--gamma0", "900", "--half-width", "30"],
    "table": ["table", "--dataset", "wend"],
    "check": ["check", "--t-max", "0.05"],
    "refused": ["scan", "--observable", "delta_p", "--t", "0.5", "--gamma0", "1000", "--half-width", "-5"],
    "usage": ["scan", "--observable", "delta_p", "--gam", "1000"],
}


class TestMainEntrypoint:
    def test_one_parser_serves_every_call(self, capsys):
        argv = ["scan", "--observable", "f_ghz_tele", "--axis1", "n:2:5:4", "--axis2", "t:0:1:5",
                "--gamma0", "900", "--half-width", "30"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as usage:
            cli.main(["scan", "--no-such-flag"])
        assert usage.value.code == 2
        with pytest.raises(SystemExit) as version:
            cli.main(["--version"])
        assert version.value.code == 0
        assert capsys.readouterr().out.startswith("fmoent ")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_a_reader_that_closes_the_pipe_gets_no_message(self):
        # a 200,000-row scan read for one line printed "fmoent: [Errno 32] Broken pipe"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["scan", "--observable", "u_amplitude", "--axis1", "t:0:1:200000", "--gamma0", "1000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "fmoent.cli", *argv, "--half-width", "40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"t_ps,u_re,u_im,u_abs2\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == 1

    def test_main_freezes_nothing_in_its_callers_process(self, capsys):
        # only the process entry freezes: a caller's objects stay in its collector
        frozen = gc.get_freeze_count()
        assert cli.main(PROCESS_ARGV["scan"]) == 0
        assert cli.main(PROCESS_ARGV["refused"]) == 1
        with pytest.raises(SystemExit) as usage:
            cli.main(PROCESS_ARGV["usage"])
        assert usage.value.code == 2
        assert gc.get_freeze_count() == frozen

    def test_the_process_entry_freezes_once_main_has_ended(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        assert cli.console() == 3
        assert calls == ["main", "freeze"]

        def usage():
            calls.append("main")
            raise SystemExit(2)

        calls.clear()
        monkeypatch.setattr(cli, "main", usage)
        with pytest.raises(SystemExit) as exit:
            cli.console()
        assert exit.value.code == 2 and calls == ["main", "freeze"]

    def test_the_installed_script_is_the_process_entry(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^fmoent = "fmoent\.cli:console"$', pyproject, re.M)

    @pytest.mark.parametrize("kind", list(PROCESS_ARGV))
    def test_a_process_prints_what_main_prints(self, kind, capsys):
        argv = PROCESS_ARGV[kind]
        proc = subprocess.run(
            [sys.executable, "-m", "fmoent.cli", *argv], capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        assert (proc.stdout, proc.stderr, proc.returncode) == (captured.out, captured.err, code)
        assert code == {"refused": 1, "usage": 2}.get(kind, 0)

    def test_a_process_writes_the_whole_output_file(self, tmp_path, capsys):
        argv = [*PROCESS_ARGV["scan"], "--output"]
        proc = subprocess.run(
            [sys.executable, "-m", "fmoent.cli", *argv, str(tmp_path / "process.csv")],
            capture_output=True, env=_src_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert cli.main([*argv, str(tmp_path / "main.csv")]) == 0
        written = (tmp_path / "process.csv").read_bytes()
        assert written == (tmp_path / "main.csv").read_bytes()
        assert written.count(b"\n") == 1 + 6 * 41

    def test_version_reports_conversion_constant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "0.18836515673" in capsys.readouterr().out

    def test_flags_equal_config(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "observable = delta_p\n"
            "axis1 = t:0:1:26\n"
            "axis2 = half_width:20:60:3\n"
            "gamma0 = 1000\n"
            "delta = 0\n",
        )
        assert cli.main(["scan", "--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert (
            cli.main(
                [
                    "scan",
                    "--observable",
                    "delta_p",
                    "--axis1",
                    "t:0:1:26",
                    "--axis2",
                    "half_width:20:60:3",
                    "--gamma0",
                    "1000",
                    "--delta",
                    "0",
                ]
            )
            == 0
        )
        from_flags = capsys.readouterr().out
        assert from_flags == from_config

    def test_flags_override_config(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "observable = u_amplitude\n"
            "axis1 = t:0:1:4\n"
            "gamma0 = 10\n"
            "half_width = 40\n",
        )
        assert cli.main(["scan", "--config", str(config), "--gamma0", "1000"]) == 0
        overridden = capsys.readouterr().out
        assert cli.main(["scan", "--config", str(config)]) == 0
        plain = capsys.readouterr().out
        assert overridden != plain

    def test_bad_config_observable_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path, "observable = nope\nt = 0\ngamma0 = 1\nhalf_width = 1\n")
        assert cli.main(["scan", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fmoent:")
        assert "observable" in err

    def test_missing_parameter_fails_cleanly(self, capsys):
        assert cli.main(["scan", "--observable", "delta_p", "--axis1", "t:0:1:5"]) == 1
        assert "gamma0" in capsys.readouterr().err

    def test_unwritable_output_fails_cleanly(self, capsys):
        code = cli.main(
            [
                "table",
                "--output",
                "/nonexistent-dir/table.csv",
            ]
        )
        assert code == 1
        assert "fmoent:" in capsys.readouterr().err

    def test_table_subcommand(self, capsys):
        assert cli.main(["table"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("energy_cm1,bchl1")
        assert len(lines) == 8

    def test_table_dataset_flag(self, capsys):
        assert cli.main(["table", "--dataset", "wend"]) == 0
        wend = capsys.readouterr().out
        assert cli.main(["table"]) == 0
        reng = capsys.readouterr().out
        assert wend != reng

    def test_table_from_site_energy_file(self, tmp_path, capsys):
        table_file = tmp_path / "sites.txt"
        table_file.write_text(
            "1 12450\n2 12520\n3 12210\n4 12320\n5 12550\n6 12540\n7 12470\n"
        )
        assert cli.main(["table", "--dataset", str(table_file)]) == 0
        from_file = capsys.readouterr().out
        assert cli.main(["table"]) == 0
        assert from_file == capsys.readouterr().out  # same energies as builtin reng

    def test_bad_dataset_fails_cleanly(self, capsys):
        assert cli.main(["table", "--dataset", "tepidum"]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_empty_dataset_is_refused_not_read_as_the_default(self, capsys):
        assert cli.main(["table", "--dataset", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fmoent: dataset: '' is neither a builtin name nor a readable file\n"

    def test_dataset_only_for_exciton_table(self, tmp_path, capsys):
        # only `table` reads a dataset: `scan` knows neither the flag nor the key
        with pytest.raises(SystemExit) as usage:
            cli.main(["scan", "--observable", "delta_p", "--t", "0", "--dataset", "wend"])
        assert usage.value.code == 2
        config = write_config(tmp_path, "observable = delta_p\ndataset = wend\n")
        assert cli.main(["scan", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(":2: unknown key 'dataset'\n")

    def test_flags_are_text_parsed_as_the_config_file_parses(self, tmp_path, capsys):
        argv = ["scan", "--observable", "e_exciton", "--axis1", "t:0:1:11", "--gamma0", "1000",
                "--half-width", "40", "--n"]
        assert cli.main([*argv, "4"]) == 0
        whole = capsys.readouterr().out
        assert cli.main([*argv, "4.0"]) == 0
        assert capsys.readouterr().out == whole
        # each refused by the one number parsing, not by argparse (exit 2) or by rounding
        for key, value in (("n", "4.5"), ("gamma0", "abc"), ("n", "4.0000000001")):
            keys = {"observable": "delta_p", "t": "0.5", "half_width": "40", "gamma0": "1000", key: value}
            config = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
            assert cli.main(["scan", "--config", str(config)]) == 1
            from_config = capsys.readouterr()
            assert from_config.out == "" and from_config.err.startswith(f"fmoent: {key}: ")
            flags = [text for k, v in keys.items() for text in ("--" + k.replace("_", "-"), v)]
            assert cli.main(["scan", *flags]) == 1
            assert capsys.readouterr() == from_config

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--gamma0", "inf", "--t", "0.1"], "gamma0"),
            (["--gamma0", "1000", "--half-width", "nan", "--t", "0.1"], "half_width"),
            (["--gamma0", "1000", "--t", "nan"], "t"),
            (["--gamma0", "1000", "--axis1", "t:0:nan:3"], "axis1"),
            (["--gamma0", "1000", "--axis1", "t:-inf:1:3"], "axis1"),
        ],
    )
    def test_non_finite_numbers_refused(self, flags, key, capsys):
        argv = ["scan", "--observable", "f_w_tele", "--half-width", "40", *flags]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fmoent: {key}:")

    def test_out_of_range_qubit_count_refused(self, capsys):
        argv = ["scan", "--observable", "e_exciton", "--t", "0.1", "--gamma0", "1000",
                "--half-width", "40", "--n", "13"]
        assert cli.main(argv) == 1
        assert "2..12" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--observable", "e_exciton", "--n", "13"], "n_qubits must be integers in 2..12, got 13"),
            (["--observable", "f_ghz_tele", "--n", "1"], "n_parties must be integers >= 2, got 1"),
            (["--observable", "e_reservoir", "--axis2", "n:2:13:12"], "n_qubits must be integers in 2..12, got 13"),
            (["--observable", "f_ghz_split", "--axis2", "n:0:3:4"], "n_parties must be integers >= 2, got 0"),
        ],
        ids=["e_exciton-fixed", "f_ghz_tele-fixed", "e_reservoir-axis", "f_ghz_split-axis"],
    )
    def test_refused_count_shows_the_integer_typed(self, flags, message, capsys):
        # the scan once passed counts as floats: "got 13.0" for --n 13
        argv = ["scan", "--axis1", "t:0:1:5", "--gamma0", "1000", "--half-width", "40", *flags]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"fmoent: {message}\n"

    @pytest.mark.parametrize(
        "observable, kernel, module, flags",
        [
            ("f_ghz_split", "f_ghz_split", "fidelity", ["--n", "5"]),
            ("f_ghz_split", "f_ghz_split", "fidelity", ["--axis2", "n:2:5:4"]),
            ("e_exciton", "w_mixture_entanglement", "entanglement", ["--n", "5"]),
            ("e_exciton", "w_mixture_entanglement", "entanglement", ["--axis2", "n:2:5:4"]),
        ],
        ids=["f_ghz_split-fixed", "f_ghz_split-axis", "e_exciton-fixed", "e_exciton-axis"],
    )
    def test_counts_reach_the_kernels_as_float64(self, observable, kernel, module, flags, monkeypatch, capsys):
        # int64 counts loaded numpy's int-to-float cast on their first use, about 0.13 MB of peak RSS
        cli._need("reservoir", module)
        original, dtypes = getattr(cli, kernel), []
        monkeypatch.setattr(cli, kernel, lambda x, n: dtypes.append(np.asarray(n).dtype) or original(x, n))
        argv = ["scan", "--observable", observable, "--axis1", "t:0:1:3", "--gamma0", "1000",
                "--half-width", "40", *flags]
        assert cli.main(argv) == 0
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}

    def test_counts_beyond_int64_are_still_read(self, capsys):
        # counts reach the kernels as float64, so one beyond the int64 range is
        # read like any other; when counts passed as int64, these needed a fallback
        argv = ["scan", "--observable", "f_ghz_split", "--axis1", "n:2:1e300:3", "--t", "0.5",
                "--gamma0", "1000", "--half-width", "40"]
        assert cli.main(argv) == 0
        assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()] == ["n", "2", "5e+299", "1e+300"]

    @pytest.mark.parametrize(
        "argv, given",
        [
            (["scan", "--observable", "delta_p", "--t", "0.5", "--half-width", "40", "--gam", "1000"], "--gam 1000"),
            (["check", "--t-m", "0.01"], "--t-m 0.01"),
            (["table", "--data", "wend"], "--data wend"),
        ],
        ids=["scan", "check", "table"],
    )
    def test_flags_only_by_their_full_names(self, argv, given, capsys):
        # argparse once read an unambiguous prefix as the flag: --gam as --gamma0
        with pytest.raises(SystemExit) as usage:
            cli.main(argv)
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"fmoent: error: unrecognized arguments: {given}\n")

    @pytest.mark.parametrize(
        "argv, last",
        [
            (["scan", "--observable", "delta_p", "--gam", "1000"], "fmoent: error: unrecognized arguments: --gam 1000"),
            (["scan", "--t", "0.5", "stray"], "fmoent: error: unrecognized arguments: stray"),
            (["scan", "--gam=1000"], "fmoent: error: unrecognized arguments: --gam=1000"),
            (["scan", "--gamma0"], "fmoent scan: error: argument --gamma0: expected one argument"),
            (["scan", "--observable", "nope"], "fmoent scan: error: argument --observable: invalid choice: 'nope' "
             f"(choose from {', '.join(map(repr, cli.OBSERVABLES))})"),
            (["scan", "--observable=exciton_table"], "fmoent scan: error: argument --observable: invalid choice: "
             f"'exciton_table' (choose from {', '.join(map(repr, cli.OBSERVABLES))})"),
            (["table", "--data", "wend"], "fmoent: error: unrecognized arguments: --data wend"),
            (["table", "--dataset"], "fmoent table: error: argument --dataset: expected one argument"),
            (["table", "--output"], "fmoent table: error: argument --output: expected one argument"),
            (["check", "--t-m", "0.01"], "fmoent: error: unrecognized arguments: --t-m 0.01"),
            (["check", "--step", "1e-3", "2"], "fmoent: error: unrecognized arguments: 2"),
            (["check", "--step"], "fmoent check: error: argument --step: expected one argument"),
            (["check", "--t-max", "abc"], "fmoent check: error: argument --t-max: invalid float value: 'abc'"),
            (["check", "--step=1e-4x"], "fmoent check: error: argument --step: invalid float value: '1e-4x'"),
            ([], "fmoent: error: the following arguments are required: command"),
            (["bogus"], "fmoent: error: argument command: invalid choice: 'bogus' (choose from 'scan', 'table', 'check')"),
        ],
        ids=[
            "scan-unknown", "scan-stray", "scan-unknown-joined", "scan-no-value", "scan-observable",
            "scan-not-a-scan", "table-prefix", "table-no-dataset", "table-no-output", "check-prefix",
            "check-stray", "check-no-value", "check-not-a-float", "check-not-a-float-joined", "no-command",
            "unknown-command",
        ],
    )
    def test_usage_errors_exit_2_with_one_message(self, argv, last, capsys):
        with pytest.raises(SystemExit) as usage:
            cli.main(argv)
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: fmoent")
        assert captured.err.splitlines()[-1] == last

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("scan", ["--config", *("--" + key.replace("_", "-") for key in cli._SCAN_KEYS)]),
            ("table", ["--dataset", "--output"]),
            ("check", ["--t-max", "--step"]),
            (None, ["--version", "scan", "table", "check"]),
        ],
        ids=["scan", "table", "check", "top-level"],
    )
    @pytest.mark.parametrize("help_flag", ["--help", "-h"])
    def test_help_names_every_flag(self, command, flags, help_flag, capsys):
        with pytest.raises(SystemExit) as done:
            # after a subcommand, help is read wherever a flag may stand
            cli.main([help_flag] if command is None else [command, *(["--t", "0.5"] if command == "scan" else []), help_flag])
        assert done.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: fmoent")
        for flag in ["-h", "--help", *flags]:
            assert flag in captured.out, flag

    def test_top_level_help_lists_every_subcommands_flags_with_their_help(self, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        for command, (about, flags) in cli._COMMANDS.items():
            assert f"fmoent {command}: {about}" in out
            for flag, (_, text) in flags.items():
                assert f"  {flag} {flag[2:].upper()}\n      {text}\n" in out + "\n", flag

    @pytest.mark.parametrize(
        "flags, message",
        [
            # a half width this large would give a non-finite amplitude
            (["--half-width", "1e200", "--b", "0.5"], "fmoent: "),
        ],
        ids=["non-finite-amplitude"],
    )
    def test_q_numeric_refusals(self, flags, message, capsys):
        argv = ["scan", "--observable", "q_numeric", "--gamma0", "1000", "--t", "0.5", *flags]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and len(captured.err) > len("fmoent: \n")

    @pytest.mark.parametrize("observable", cli.OBSERVABLES)
    @pytest.mark.parametrize("flag", ["--half-width", "--delta"])
    def test_overflowing_rates_refused(self, observable, flag, capsys):
        argv = ["scan", "--observable", observable, "--gamma0", "1000", "--half-width", "40",
                "--t", "0.5", flag, "1e160"]
        if observable.startswith("q_"):
            argv += ["--b", "0.5"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gamma0, half_width and delta: the decay rates overflow" in captured.err

    @pytest.mark.parametrize(
        "value, refusal",
        [
            ("1e308", "gamma0, half_width and delta: the decay rates overflow "
                      "(a rate above about 7e154 cm^-1, or gamma0 * half_width above about 2.5e309 cm^-2)"),
            ("-1e308", "half_width must be positive, got -1e+308"),
            ("-5", "half_width must be positive, got -5.0"),
        ],
        ids=["overflow", "negative-overflow", "negative"],
    )
    def test_bad_half_width_refused_as_given(self, value, refusal, capsys):
        # 1e308 once printed "RuntimeWarning: overflow encountered in multiply",
        # and -5 was refused as "delta_omega must be positive, got -10.0"
        argv = ["scan", "--observable", "delta_p", "--t", "0.5", "--gamma0", "1000", f"--half-width={value}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"fmoent: {refusal}\n")

    @pytest.mark.parametrize("observable", cli.OBSERVABLES)
    @pytest.mark.parametrize("flag", ["--half-width", "--delta"])
    def test_overflowing_exponents_refused(self, observable, flag, capsys):
        # rates below the overflow of B^2, but B*t/2 or xi*t/2 overflows at this t
        argv = ["scan", "--observable", observable, "--gamma0", "1000", "--half-width", "40",
                "--t", "1e200", flag, "1e150"]
        if observable.startswith("q_"):
            argv += ["--b", "0.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fmoent: t and the rates gamma0, half_width and delta: the decay "
            "exponent B*t/2 or xi*t/2 overflows at t = 1e+200 ps\n"
        )

    def test_split_branch_exponent_overflow_refused(self, capsys):
        # once "|u| must not exceed 1, got nan", after three RuntimeWarnings
        argv = ["scan", "--observable", "u_amplitude", "--gamma0", "1000", "--half-width", "20",
                "--delta", "100", "--t", "3e306"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fmoent: t and the rates gamma0, half_width and delta: the decay "
            "exponent B*t/2 or xi*t/2 overflows at t = 3e+306 ps\n"
        )

    @pytest.mark.parametrize("observable", cli.OBSERVABLES)
    def test_amplitude_above_one_refused(self, observable, capsys):
        # at huge detuning amplitude() returns |u| = 6403 here (ROADMAP item 4);
        # delta_p once printed 82009551.3303 and seven more observables a value, all with exit 0
        argv = ["scan", "--observable", observable, "--gamma0", "1.0504166348694111e+76",
                "--half-width", "6.105002384194852e+49", "--delta=-1.714729736772316e+80",
                "--t", "1.3504003786612088e-32", "--b", "0.8", "--n", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fmoent: |u| must not exceed 1, got 6403.49718241\n"

    def test_delta_axis_sweep(self):
        spec = ScanSpec(
            observable="delta_p",
            axes=(AxisSpec("delta", -100.0, 100.0, 5),),
            fixed={"gamma0": 800.0, "half_width": 30.0, "t": 0.2},
        )
        rows = run_scan(spec).rows
        values = {round(r[0], 9): r[1] for r in rows}
        assert abs(values[100.0] - values[-100.0]) < 1e-13  # even in detuning

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "-1e3"), ("--delta", "-2.5E+2"), ("--delta", "-.5e2"), ("--t", "-1e-3"),
        ("--delta", "-inf"), ("--delta", "-Infinity"), ("--delta", "-NaN"),
        # float() reads an underscore between digits; argparse once took these for flags
        ("--delta", "-1_000"), ("--delta", "-1_0.2_5e0_1"),
    ])
    def test_negative_numbers_in_exponent_notation(self, flag, value, capsys):
        argv = ["scan", "--observable", "delta_p", "--gamma0", "1000", "--half-width", "40"]
        if flag != "--t":
            argv += ["--t", "0.5"]
        joined = cli.main([*argv, f"{flag}={value}"])
        expected = capsys.readouterr()
        assert cli.main([*argv, flag, value]) == joined
        assert capsys.readouterr() == expected

    def test_negative_step_in_exponent_notation_is_refused_by_check(self, capsys):
        assert cli.main(["check", "--step", "-1e-4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fmoent: --step: must be a positive finite number, got -0.0001\n"

    def test_q_closed_prints_the_published_value_above_one(self, capsys):
        # the published form, not a bounded measure: it peaks at 1.125 (b^2 = 3/4, s = 1/2)
        fixed = ["--b", "0.75", "--gamma0", "1", "--half-width", "0.01", "--t", "48"]
        assert cli.main(["scan", "--observable", "q_closed", *fixed]) == 0
        assert capsys.readouterr() == ("q\n1.00180541946\n", "")

    def test_check_subcommand_quick(self, capsys):
        assert cli.main(["check", "--t-max", "0.2", "--step", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "max|u_analytic - u_ode|" in out
        assert "overall max error" in out

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--step", "inf"], "--step"),
            (["--step", "nan"], "--step"),
            (["--step", "0"], "--step"),
            (["--t-max", "inf"], "--t-max"),
            (["--t-max", "-1"], "--t-max"),
            # 2e13 points would need 146 TiB: refused, never allocated
            (["--step", "1e-13"], "--step"),
            (["--t-max", "1e300", "--step", "1e-300"], "--step"),
            # read as a value, not a flag: argparse's own pattern has no "-inf"
            (["--t-max", "-inf"], "--t-max"),
        ],
    )
    def test_check_grid_refused(self, flags, flag, capsys):
        assert cli.main(["check", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fmoent: {flag}:")

    def test_check_grid_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", 21)
        assert cli._check_grid(2.0, 0.1) == 21
        assert np.arange(0.0, 2.0 + 0.095 / 2.0, 0.095).size == 22
        with pytest.raises(ConfigError, match="limit of 21"):
            cli._check_grid(2.0, 0.095)

    @pytest.mark.parametrize(
        "t_max, step, points",
        [(2.0, 0.3, 7), (5.0, 3e-4, 16667), (2.0, 1e-4, 20001), (0.2, 0.001, 201), (0.3, 0.1, 4), (1e-9, 1.0, 1)],
    )
    def test_check_grid_ends_at_t_max(self, t_max, step, points):
        # the grid once held ceil((t_max + step/2) / step) points: t = 2.1 for --t-max 2 --step 0.3
        assert cli._check_grid(t_max, step) == points

    @pytest.mark.parametrize("t_max, step", [(2.0, 0.3), (0.3, 0.1), (0.05, 3e-4), (0.2, 0.001)])
    def test_check_evaluates_no_t_beyond_t_max(self, t_max, step, monkeypatch, capsys):
        cli._need("reservoir")
        original, latest = cli.amplitude, []
        monkeypatch.setattr(cli, "amplitude", lambda params, t: latest.append(t.max()) or original(params, t))
        cli.main(["check", "--t-max", repr(t_max), "--step", repr(step)])
        # beyond t_max by rounding only (3 * 0.1 is 0.30000000000000004), and short of it by less than a step
        assert max(latest) <= t_max + 2.0 * np.spacing(t_max)
        assert max(latest) > t_max - step
        assert f"over t in [0, {t_max:g}] ps" in capsys.readouterr().out

    def test_check_compares_in_blocks_of_bounded_memory(self, capsys):
        # 100,001 points: one amplitude call over the whole grid peaked at 14.2 MiB
        tracemalloc.start()
        try:
            assert cli.main(["check", "--step", "2e-5"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert "overall max error" in capsys.readouterr().out

    def test_check_memory_does_not_grow_with_the_grid(self, capsys):
        # when the oracle returned each set's whole trajectory, 16 bytes a point,
        # this grid of 200,001 points peaked at 8.4 MiB against 1.45 MiB
        def peak(argv):
            tracemalloc.start()
            try:
                assert cli.main(["check", *argv]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        default = peak([])
        assert peak(["--step", "1e-5"]) <= 1.1 * default
        assert "overall max error" in capsys.readouterr().out

    def test_check_blocks_do_not_change_the_errors(self, monkeypatch, capsys):
        argv = ["check", "--t-max", "0.2", "--step", "0.001"]
        assert cli.main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr("fmoent.ode._ORACLE_BLOCK", 7)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == whole

    def test_default_check_bounds_its_working_set(self, capsys):
        # one 20,001-point amplitude call per set peaked at 2.95 MiB
        tracemalloc.start()
        try:
            assert cli.main(["check"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert "overall max error" in capsys.readouterr().out

    def test_library_names_are_bound_from_the_packages_map(self, monkeypatch):
        # each subcommand, run on a cli that has bound no library module yet,
        # binds exactly the _PUBLIC rows of the modules it loads
        scan = ["scan", "--t", "0.5", "--gamma0", "1000", "--half-width", "40", "--b", "0.6", "--observable"]
        cases = [
            (["table", "--dataset", "wend"], ["fmo"]),
            (["check", "--t-max", "0.01", "--step", "0.001"], ["reservoir", "ode"]),
            ([*scan, "delta_p"], ["reservoir"]),
            ([*scan, "q_numeric"], ["reservoir", "entanglement"]),
            ([*scan, "f_w_split"], ["reservoir", "fidelity"]),
        ]
        exports = set(fmoent._EXPORTS)

        def unbind():
            for name in exports & vars(cli).keys():
                monkeypatch.delattr(cli, name)
            monkeypatch.setattr(cli, "_loaded", set())

        try:
            for argv, modules in cases:
                unbind()
                assert cli.main(argv) == 0
                bound = {name: value for name, value in vars(cli).items() if name in exports}
                assert set(bound) == {name for module in modules for name in fmoent._PUBLIC[module]}, argv
                for module in modules:
                    library = getattr(fmoent, module)
                    assert all(bound[name] is getattr(library, name) for name in fmoent._PUBLIC[module])
                # a library name resolves through fmoent and its own module, not through cli
                with pytest.raises(AttributeError, match="no attribute 'global_entanglement'"):
                    cli.global_entanglement
        finally:
            unbind()

    def test_default_check_compares_in_blocks_of_4096_points(self, monkeypatch, capsys):
        # one 20,001-point call per set was slower than 4,096-point calls, not faster
        calls = []
        cli._need("reservoir")
        original = cli.amplitude
        monkeypatch.setattr(cli, "amplitude", lambda params, t: calls.append((params, t)) or original(params, t))
        assert cli.main(["check"]) == 0
        assert max(t.size for _, t in calls) <= 4096
        grid = np.arange(0.0, 2.0 + 1e-4 / 2.0, 1e-4)
        # the sets interleave block by block: group each set's calls in order
        sets = {}
        for params, t in calls:
            sets.setdefault(params, []).append(t)
        assert len(sets) == 8
        for group in sets.values():
            assert np.array_equal(np.concatenate(group), grid)

    @pytest.mark.parametrize("gamma0, half_width", [(10.0, 20.0), (10.0, 40.0), (1000.0, 20.0), (1000.0, 40.0)])
    def test_check_blocks_give_the_values_of_small_calls(self, gamma0, half_width):
        # check compares in blocks: they give the values of 1,000-point calls
        params = ReservoirParams(gamma0, half_width=half_width, delta=100.0)
        grid = np.arange(0.0, 2.0 + 1e-4 / 2.0, 1e-4)

        def blocked(size):
            return np.concatenate([amplitude(params, grid[lo : lo + size]) for lo in range(0, grid.size, size)])

        assert np.array_equal(blocked(fmoent.ode._ORACLE_BLOCK), blocked(1000))

    def test_check_refuses_an_overflowing_exponent_without_warnings(self, capsys):
        # reservoir 5 (gamma0 1000, half width 20, delta 100) reaches the split
        # branch's overflow first; it once returned NaN with RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", "--t-max", "1e308", "--step", "1e302"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("fmoent: t and the rates") and "overflows at t = " in captured.err

    def test_check_fails_when_the_integration_diverges(self, capsys):
        # RK4 steps of 5 ps overflow for every set: NaN errors must not pass
        assert cli.main(["check", "--t-max", "5000", "--step", "5"]) == 1
        captured = capsys.readouterr()
        assert "max error nan" in captured.err
