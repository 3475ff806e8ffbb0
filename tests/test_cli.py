import math
import time

import numpy as np
import pytest

from fmoent import cli
from fmoent import entanglement as ent
from fmoent import fidelity as fid
from fmoent.cli import (
    AxisSpec,
    ConfigError,
    ScanSpec,
    build_scan_spec,
    emit_csv,
    load_config,
    run_scan,
)
from fmoent.fmo import build_hamiltonian, dataset, exciton_table
from fmoent.reservoir import ReservoirParams, amplitude, damping, population_difference

SCAN_OBSERVABLES = [name for name in cli.OBSERVABLES if name != "exciton_table"]


def scalar_route(observable, point):
    """One grid point through the library's scalar functions, one call each."""
    res = ReservoirParams.from_half_width(point["gamma0"], point["half_width"], point["delta"])
    t, n = point["t"], int(point["n"])
    if observable == "delta_p":
        return [population_difference(res, t)]
    u = amplitude(res, t)
    if observable == "u_amplitude":
        return [u.real, u.imag, abs(u) ** 2]
    if observable in ("e_exciton", "e_reservoir"):
        params = ent.WStateParams(u=u, n_qubits=n)
        build = ent.w_state_exciton_rho if observable == "e_exciton" else ent.w_state_reservoir_rho
        return [ent.global_entanglement(build(params), n)]
    if observable in ("q_closed", "q_numeric"):
        b = point["b"]
        a = math.sqrt(1.0 - b * b)
        if observable == "q_closed":
            return [ent.meyer_wallach_closed(a, b, u)]
        return [ent.meyer_wallach_numeric(ent.x_state_register(ent.XStateParams(a, b, u, u)))]
    p = damping(res, t)
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
        assert result.header == ["delta_p"]
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
        assert result.header == ["t_ps", "gamma0_cm1", "delta_p"]

    def test_outer_axis_varies_slowest(self):
        spec = ScanSpec(
            observable="u_amplitude",
            axes=(AxisSpec("gamma0", 10.0, 20.0, 2), AxisSpec("t", 0.0, 1.0, 3)),
            fixed={"half_width": 40.0},
        )
        rows = run_scan(spec).rows
        assert [r[0] for r in rows] == [10.0, 10.0, 10.0, 20.0, 20.0, 20.0]
        assert [r[1] for r in rows] == [0.0, 0.5, 1.0] * 2

    def test_exciton_table_observable(self):
        result = run_scan(ScanSpec(observable="exciton_table"))
        assert len(result.rows) == 7
        table = exciton_table(build_hamiltonian(dataset("reng")))
        got = np.array(result.rows)
        assert np.array_equal(got[:, 0], table.energies)
        assert np.array_equal(got[:, 1:], table.amplitudes.T)

    def test_exciton_table_rejects_axes(self):
        spec = ScanSpec(observable="exciton_table", axes=(AxisSpec("t", 0, 1, 5),))
        with pytest.raises(ValueError, match="no axes"):
            run_scan(spec)

    def test_axis_and_fixed_conflict(self):
        spec = ScanSpec(
            observable="delta_p",
            axes=(AxisSpec("t", 0.0, 1.0, 5),),
            fixed={"gamma0": 10.0, "half_width": 40.0, "t": 0.3},
        )
        with pytest.raises(ValueError, match="both as an axis and a fixed value"):
            run_scan(spec)

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

    def test_fixed_a_conflicts_with_b_sweep(self):
        spec = ScanSpec(
            observable="q_closed",
            axes=(AxisSpec("b", 0.0, 1.0, 5),),
            fixed={"gamma0": 800.0, "half_width": 40.0, "t": 0.1, "a": 0.0},
        )
        with pytest.raises(ValueError, match="a: cannot be fixed"):
            run_scan(spec)

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
        for observable in SCAN_OBSERVABLES:
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

    @pytest.mark.parametrize("observable", SCAN_OBSERVABLES)
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
        single = build_scan_spec(
            {"observable": "delta_p", "axis1": "t:0:1:100000000000",
             "gamma0": "10", "half_width": "40"}
        )
        with pytest.raises(ConfigError, match="limit"):
            run_scan(single)
        product = ScanSpec(
            observable="delta_p",
            axes=(
                AxisSpec("t", 0.0, 1.0, 10**4),
                AxisSpec("gamma0", 1.0, 2.0, cli.MAX_GRID_ROWS // 10**4 + 1),
            ),
            fixed={"half_width": 40.0},
        )
        with pytest.raises(ConfigError, match="limit"):
            run_scan(product)


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


class TestMainEntrypoint:
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

    def test_dataset_only_for_exciton_table(self, capsys):
        argv = ["scan", "--observable", "delta_p", "--gamma0", "10", "--half-width", "40",
                "--t", "0"]
        assert cli.main(argv + ["--dataset", "nonexistent"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dataset" in captured.err
        assert cli.main(["scan", "--observable", "exciton_table", "--dataset", "wend"]) == 0
        scanned = capsys.readouterr().out
        assert cli.main(["table", "--dataset", "wend"]) == 0
        assert scanned == capsys.readouterr().out

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

    def test_delta_axis_sweep(self):
        spec = ScanSpec(
            observable="delta_p",
            axes=(AxisSpec("delta", -100.0, 100.0, 5),),
            fixed={"gamma0": 800.0, "half_width": 30.0, "t": 0.2},
        )
        rows = run_scan(spec).rows
        values = {round(r[0], 9): r[1] for r in rows}
        assert abs(values[100.0] - values[-100.0]) < 1e-13  # even in detuning

    def test_check_subcommand_quick(self, capsys):
        assert cli.main(["check", "--t-max", "0.2", "--step", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "max|u_analytic - u_ode|" in out
        assert "overall max error" in out
