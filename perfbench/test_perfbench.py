"""Tests of the benchmark itself: workload generation, output checks, spans.

Run from the root of a checkout with ``python -m pytest perfbench``.  They use
the recorded reference outputs and do not run fmoent.
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

POINTS = {"figure_grid": 28452, "register_entanglement": 2253, "oracle_check": 160036}


def reference(workload: str, seed_inputs_root: Path | None = None):
    wl = workloads.build(workload, workloads.DEFAULT_SEED)
    if seed_inputs_root is not None:
        workloads.write_inputs(wl, seed_inputs_root)
    return wl, checks.load_reference(workload)


def flip_digit(text: str, row: int, column: int, digit: int) -> str:
    """Change a significant digit of one value (row 0 is the first data row).

    ``digit`` counts from the leading significant digit; a shorter value has
    its last digit changed.
    """
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    value = fields[column].split("e")[0]
    positions = [i for i, ch in enumerate(value) if ch.isdigit()]
    positions = positions[next(k for k, i in enumerate(positions) if value[i] != "0"):]
    i = positions[min(digit, len(positions) - 1)]
    value = fields[column]
    fields[column] = value[:i] + str((int(value[i]) + 5) % 10) + value[i + 1 :]
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


# ---------------------------------------------------------------- workloads

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    for seed in (0, 1, 7):
        assert workloads.build(name, seed) == workloads.build(name, seed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_point_counts_do_not_depend_on_the_seed(name):
    base = [inv.points for inv in workloads.build(name, 0).invocations]
    for seed in range(1, 30):
        wl = workloads.build(name, seed)
        assert [inv.points for inv in wl.invocations] == base
        assert wl.points == POINTS[name]


def test_seeds_draw_different_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert a != b


# ---------------------------------------------------------------- checker

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checker_accepts_the_recorded_outputs(name, tmp_path):
    wl, ref = reference(name, tmp_path)
    for inv in wl.invocations:
        assert checks.check_output(inv.argv, 0, ref[inv.key], tmp_path, 0) == []
        assert checks.compare_reference(inv.argv, ref[inv.key], ref[inv.key]) == []


def test_checker_rejects_a_flipped_digit_against_independent_forms():
    wl, ref = reference("register_entanglement")
    for inv in wl.invocations[:3]:  # up to 55 rows: every row is spot-checked
        text = ref[inv.key]
        rows = len(text.splitlines()) - 1
        for row in (0, rows // 2, rows - 1):
            if abs(float(text.split("\n")[row + 1].split(",")[-1])) < 1e-3:
                continue  # the spot-check tolerance is absolute (SPOT_ATOL)
            bad = flip_digit(text, row, -1, 3)
            assert checks.check_output(inv.argv, 0, bad, Path("."), 5), (inv.key, row)


def test_checker_rejects_a_flipped_digit_against_the_reference():
    wl, ref = reference("figure_grid")
    inv = wl.invocations[0]
    bad = flip_digit(ref[inv.key], 5000, -1, 6)
    assert checks.compare_reference(inv.argv, bad, ref[inv.key])


def test_checker_rejects_a_flipped_digit_in_a_table(tmp_path):
    wl, ref = reference("oracle_check", tmp_path)
    for inv in wl.invocations[1:]:
        bad = flip_digit(ref[inv.key], 3, 4, 2)
        assert checks.check_output(inv.argv, 0, bad, tmp_path, 0)


def test_checker_rejects_a_dropped_row():
    wl, ref = reference("figure_grid")
    for inv in wl.invocations:
        lines = ref[inv.key].split("\n")
        bad = "\n".join(lines[:100] + lines[101:])
        assert checks.check_output(inv.argv, 0, bad, Path("."), 0)
        assert checks.compare_reference(inv.argv, bad, ref[inv.key])


def test_checker_rejects_a_nonzero_exit():
    wl, ref = reference("figure_grid")
    inv = wl.invocations[2]
    assert checks.check_output(inv.argv, 1, ref[inv.key], Path("."), 0) == ["exit code 1"]


def test_checker_rejects_a_large_oracle_error():
    text = checks.load_reference("oracle_check")["check"]
    assert checks.check_output(("check",), 0, text, Path("."), 0) == []
    bad = re.sub(r"ps: \S+", "ps: 2.000e-06", text)
    assert checks.check_output(("check",), 0, bad, Path("."), 0)
    assert checks.check_output(("check",), 0, text.split("\n", 1)[1], Path("."), 0)


def test_q_closed_and_register_forms_stay_apart():
    point = {"gamma0": 800.0, "half_width": 40.0, "t": 0.3, "b": 0.6}
    closed = checks.expected_values("q_closed", point, True)[0]
    register = checks.expected_values("q_numeric", point, True)[0]
    assert abs(closed - register) > 1e-3


def outcomes_for(inv, texts):
    wl = workloads.Workload("register_entanglement", (inv,))
    outcomes = run.Outcomes(wl, 0)
    for text in texts:
        outcomes.record(inv, 0, text, "")
    return outcomes.finish()


def test_nondeterministic_bytes_count_as_failures():
    wl, ref = reference("register_entanglement")
    inv = wl.invocations[0]
    text = ref[inv.key]
    assert outcomes_for(inv, [text, text, text])["failed"] == 0
    other = text.replace("\n", "\r\n", 1)  # same values, different bytes
    result = outcomes_for(inv, [text, other, text])
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert any("differ between repeats" in p for p in result["problems"])


def test_a_failed_check_fails_every_repeat():
    wl, ref = reference("register_entanglement")
    inv = wl.invocations[0]
    bad = flip_digit(ref[inv.key], 10, -1, 2)
    assert outcomes_for(inv, [bad, bad])["failed"] == 2


# ---------------------------------------------------------------- timing

def test_clock_scales_samples_to_the_reference_speed():
    ref = run.CAL_REF_S
    calibrations = iter([ref, 2 * ref, 2 * ref])
    clock = run.Clock(calibrate=lambda: next(calibrations))
    assert clock.scale("x", 3.0) == pytest.approx(2.0)  # calibrations ref, 2 ref: 1.5x slow
    assert clock.scale("x", 3.0) == pytest.approx(1.5)  # 2 ref, 2 ref: 2x slow
    assert clock.raw == {"x": [3.0, 3.0]} and clock.cal == [ref, 2 * ref, 2 * ref]


def test_launcher_reports_the_child_peak_rss_not_its_own():
    ballast = bytearray(200 * 1024 * 1024)
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])  # raise this process's peak RSS
    with run.Launcher() as launcher:
        code, out, err, wall, peak_mb = launcher.run([sys.executable, "-c", "print('hi')"])
        failed = launcher.run([sys.executable, "-c", "raise SystemExit(3)"])
    del ballast
    assert (code, out, err) == (0, "hi\n", "") and wall > 0
    assert peak_mb < 100
    assert failed[0] == 3
    assert launcher.proc.returncode == 0


# ---------------------------------------------------------------- spans

def test_self_time_subtracts_child_spans():
    recorded = [
        ("outer", -1, 0.0, 10.0, 0),
        ("inner", 0, 1.0, 4.0, 5),
        ("inner", 0, 5.0, 6.0, 7),
        ("leaf", 2, 5.2, 5.7, 0),
    ]
    table = spans.layer_table(recorded)
    assert table["outer"]["self_s"] == pytest.approx(6.0)
    assert table["inner"]["self_s"] == pytest.approx(3.5)
    assert table["inner"]["work_per_call"] == 6
    assert spans.covered_seconds(recorded) == pytest.approx(10.0)


def test_tracer_patches_and_restores():
    module = types.ModuleType("fake")
    module.f = lambda x: x + 1
    module.g = lambda x: module.f(x) * 2
    original = module.f
    tracer = spans.Tracer()
    tracer.patch(module, "f", "fake.f")
    tracer.patch(module, "g", "fake.g")
    tracer.patch(module, "absent", "fake.absent")
    assert module.g(1) == 4
    tracer.uninstall()
    assert module.f is original and tracer.missing == ["fake.absent"]
    table = spans.layer_table(tracer.take())
    assert table["fake.f"]["calls"] == 1 and table["fake.g"]["calls"] == 1


def test_rk4_steps_match_the_integrator_rule():
    grid = [0.0, 0.1, 0.25]
    assert spans._rk4_steps(None, grid, max_step=0.1) == 1 + 2


# ---------------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
