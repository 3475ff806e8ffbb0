#!/usr/bin/env python3
"""fmoent benchmark: drive the CLI as a user would and check every output.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One client runs one process at a time (a closed loop).  With ``--trace 0``
a run measures, for one workload:

* ``setup_s``: wall time of a fresh interpreter running ``import fmoent.cli``
  (median of several, at the reference speed);
* ``wall_s``: wall time of the workload's invocations, each a fresh
  ``python -m fmoent.cli`` process (median over passes, at the reference
  speed);
* ``points_per_s``: grid points per second when the same argv list runs
  through ``fmoent.cli.main`` in this warm process, stdout to a buffer
  (median pass at the reference speed; interpreter start and import
  excluded);
* ``peak_rss_mb``: the largest peak RSS of the pass's CLI processes, read
  from ``wait4`` (median over passes).  The processes are started by the
  small ``launcher.py``, not by this one, whose own peak they would report;
* ``fail_frac``: failed invocations over attempted ones.  A failure is a
  nonzero exit, an output that fails the checks in ``checks.py``, or bytes
  that differ between repeats of the same argv.  It is reported through
  ``attempted``/``failed`` in the result line, since it is 0 when all is well.

With ``--trace 1`` the run times in-process passes with and without spans
(``spans.py``) and reports the per-layer metrics instead.

A run measures in rounds for ``--seconds`` (and at least MIN_ROUNDS rounds);
each round takes one sample of every measurement, so a slow spell of the
machine hits all of them alike.  A warm-up pass comes first and is not timed.
Times of a pass are summed over invocations from each invocation's median.

The shared machine this was built on changes speed by up to 2x in spells of
seconds to minutes, and a whole run can fall into a slow one.  So every timed
sample is bracketed by a fixed calibration (:func:`calibrate`, benchmark code
only, no ``fmoent``) and scaled to the reference speed, at which the
calibration takes ``CAL_REF_S``: a sample taken while the calibration ran 1.4x
slower than that counts 1/1.4 of its wall time.  The report prints the
unscaled figures and the calibration times beside the scaled ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread for this process and every process it starts.  numpy's
# OpenBLAS otherwise starts a pool of one thread per vCPU in each CLI process;
# on the 2-vCPU reference VM that start-up swung ``import fmoent.cli`` by 20%
# with the load on the other vCPU, which the calibration cannot follow.  The
# program's arrays are small: register_entanglement passes computed as fast
# with one BLAS thread as with two, within the noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PER_ROUND = 2
IMPORTTIME_RUNS = 3
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # no new pass starts after this much of a run has gone
# Seconds the calibration takes at the reference speed: about its median on
# the 2-vCPU VM the baseline was taken on.  Changing it rescales every time.
CAL_REF_S = 0.03

END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{m: ("s" if m.rsplit(".", 1)[1] in ("s", "self_s") else "count") for m in spans.METRICS},
    "qlin.partial_transpose.bytes": "B",
    "reservoir.amplitude.points_per_call": "points/call",
    "setup.import_numpy_s": "s",
    "setup.import_fmoent_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}


class Launcher:
    """The small process that starts every CLI process and reads its rusage (see ``launcher.py``).

    Use as a context manager; leaving it closes the launcher and waits for it.
    """

    def __enter__(self) -> "Launcher":
        out_dir = ROOT / workloads.INPUT_DIR
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out, self.err = out_dir / "child.out", out_dir / "child.err"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")), "--timeout", str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        """Run one process to completion: exit code, stdout, stderr, wall s, peak RSS MB."""
        request = {"argv": argv, "stdout": str(self.out), "stderr": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        answer = json.loads(line)
        out, err = self.out.read_bytes().decode(), self.err.read_bytes().decode()
        return answer["code"], out, err, answer["wall_s"], answer["maxrss_kb"] / 1024.0


def run_inprocess(cli, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a crashed benchmark
            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


_CAL_ROTATION = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))[0].astype(complex)


def calibrate() -> float:
    """Seconds a fixed piece of work takes now: a pure-Python loop and small numpy products.

    The mix follows the program's, which spends its time in the interpreter
    and in numpy calls on small arrays.  The matrix is orthogonal, so values
    stay of order one and no step slows on subnormal numbers.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    x = _CAL_ROTATION
    for _ in range(800):
        x = x @ _CAL_ROTATION
        x[1, :] = x[2, :] * 0.5
    return time.perf_counter() - start


class Clock:
    """Scales timed samples to the reference speed.

    Each sample is divided by the mean of the calibrations just before and
    just after it, relative to ``CAL_REF_S``.  Consecutive samples share the
    calibration between them.  ``raw`` and ``cal`` keep the unscaled samples
    and the calibration times for the report.
    """

    def __init__(self, calibrate=calibrate):
        self.calibrate = calibrate
        self.last = calibrate()
        self.raw: dict[str, list[float]] = {}
        self.cal = [self.last]

    def scale(self, kind: str, seconds: float) -> float:
        before, self.last = self.last, self.calibrate()
        self.cal.append(self.last)
        self.raw.setdefault(kind, []).append(seconds)
        return seconds * 2.0 * CAL_REF_S / (before + self.last)


class Outcomes:
    """Counts attempted and failed invocations; checks each argv's output once."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.first: dict[str, tuple[int, str]] = {}
        self.executions: dict[str, list[tuple[int, bool]]] = {}
        self.stderr: dict[str, str] = {}

    def record(self, inv: workloads.Invocation, code: int, out: str, err: str) -> None:
        first = self.first.setdefault(inv.key, (code, out))
        self.executions.setdefault(inv.key, []).append((code, out == first[1]))
        if code != 0:
            self.stderr.setdefault(inv.key, err.strip()[-300:])

    def finish(self) -> dict:
        """Check outputs; return counts, problems and reference agreement."""
        reference = checks.load_reference(self.workload.name)
        attempted = failed = compared = identical = 0
        problems = []
        for inv in self.workload.invocations:
            code, out = self.first[inv.key]
            found = checks.check_output(inv.argv, code, out, ROOT, self.seed)
            if code == 0 and inv.key in reference:
                compared += 1
                identical += out == reference[inv.key]
                found += checks.compare_reference(inv.argv, out, reference[inv.key])
            runs = self.executions[inv.key]
            bad = [run for run in runs if found or run[0] != 0 or not run[1]]
            if any(not same for _, same in runs):
                found.append("bytes differ between repeats")
            if inv.key in self.stderr:
                found.append(f"stderr: {self.stderr[inv.key]}")
            attempted += len(runs)
            failed += len(bad)
            problems += [f"{inv.key}: {p}" for p in found]
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "reference_compared": compared,
            "reference_identical": identical,
        }


def median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def import_fmoent():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fmoent.cli

    if Path(fmoent.__file__).resolve().parent != SRC / "fmoent":
        raise RuntimeError(f"imported fmoent from {fmoent.__file__}, not from {SRC}")
    return fmoent


def rounds(run_round, seconds: float, started: float) -> None:
    """Call ``run_round`` until ``seconds`` have gone and MIN_ROUNDS are done.

    Each round takes one sample of every measurement, so that all of them see
    the same mix of the machine's fast and slow spells.
    """
    done = 0
    deadline = time.perf_counter() + seconds
    while done < MIN_ROUNDS or time.perf_counter() < deadline:
        if time.perf_counter() - started > RUN_LIMIT_S:
            break
        run_round()
        done += 1


def inprocess_pass(cli, wl, outcomes, clock: Clock, kind: str = "in_process_s") -> list[float]:
    """Seconds of each invocation, run through ``cli.main`` in this process, scaled by ``clock``."""
    times = []
    for inv in wl.invocations:
        code, out, err, seconds = run_inprocess(cli, inv.argv)
        times.append(clock.scale(kind, seconds))
        outcomes.record(inv, code, out, err)
    return times


def subprocess_pass(wl, outcomes, clock: Clock, launcher: Launcher) -> tuple[list[float], float]:
    """Wall seconds of each invocation as a fresh process, scaled by ``clock``, and the largest peak RSS."""
    times, rss = [], 0.0
    for inv in wl.invocations:
        code, out, err, seconds, peak = launcher.run([sys.executable, "-m", "fmoent.cli", *inv.argv])
        times.append(clock.scale("subprocess_s", seconds))
        outcomes.record(inv, code, out, err)
        rss = max(rss, peak)
    return times, rss


def pass_seconds(per_pass: list[list[float]]) -> float:
    """Sum over invocations of each one's median time across passes.

    Taking the median per invocation before summing keeps one slow child in
    one pass from moving the result.
    """
    return math.fsum(statistics.median(times) for times in zip(*per_pass))


def import_seconds(launcher: Launcher) -> float:
    code, _, err, seconds, _ = launcher.run([sys.executable, "-c", "import fmoent.cli"])
    if code != 0:
        raise RuntimeError(f"import fmoent.cli failed: {err.strip()[-300:]}")
    return seconds


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def import_breakdown(launcher: Launcher, clock: Clock) -> tuple[float, float]:
    """(numpy, fmoent without numpy) import seconds from ``-X importtime``, at the reference speed."""
    code, _, err, wall, _ = launcher.run([sys.executable, "-X", "importtime", "-c", "import fmoent.cli"])
    if code != 0:
        raise RuntimeError(f"import fmoent.cli failed: {err.strip()[-300:]}")
    numpy_us = fmoent_us = 0
    for line in err.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
        if depth == 1 and (name == "fmoent" or name.startswith("fmoent.")):
            fmoent_us += cumulative
    factor = clock.scale("importtime", wall) / wall
    return factor * numpy_us / 1e6, factor * max(0, fmoent_us - numpy_us) / 1e6


def measure(wl, seed: int, seconds: float, launcher: Launcher) -> dict:
    started = time.perf_counter()
    import_seconds(launcher)  # untimed: compiles bytecode on a fresh checkout
    fmoent = import_fmoent()
    outcomes = Outcomes(wl, seed)
    clock = Clock()
    inprocess_pass(fmoent.cli, wl, outcomes, clock, "warm-up")
    setup, sub, inproc = [], [], []

    def one_round():
        setup.extend(clock.scale("setup_s", import_seconds(launcher)) for _ in range(SETUP_PER_ROUND))
        sub.append(subprocess_pass(wl, outcomes, clock, launcher))
        inproc.append(inprocess_pass(fmoent.cli, wl, outcomes, clock))

    rounds(one_round, seconds, started)
    samples = {
        "wall_s": [math.fsum(times) for times, _ in sub],
        "points_per_s": [wl.points / math.fsum(times) for times in inproc],
        "setup_s": setup,
        "peak_rss_mb": [rss for _, rss in sub],
    }
    values = {
        "wall_s": pass_seconds([times for times, _ in sub]),
        "points_per_s": wl.points / pass_seconds(inproc),
    }
    columns = {"subprocess_s": [times for times, _ in sub], "in_process_s": inproc}
    n = len(wl.invocations)
    unscaled = {
        "wall_s": pass_seconds(chunks(clock.raw["subprocess_s"], n)),
        "points_per_s": wl.points / pass_seconds(chunks(clock.raw["in_process_s"], n)),
        "setup_s": statistics.median(clock.raw["setup_s"]),
    }
    return {
        "samples": samples,
        "values": values,
        "invocations": columns,
        "unscaled": unscaled,
        "calibration": clock.cal,
        **outcomes.finish(),
    }


def chunks(values: list[float], n: int) -> list[list[float]]:
    return [values[i : i + n] for i in range(0, len(values), n)]


def measure_traced(wl, seed: int, seconds: float, launcher: Launcher) -> dict:
    started = time.perf_counter()
    clock = Clock()
    breakdown = [import_breakdown(launcher, clock) for _ in range(IMPORTTIME_RUNS)]
    fmoent = import_fmoent()
    outcomes = Outcomes(wl, seed)
    inprocess_pass(fmoent.cli, wl, outcomes, clock, "warm-up")
    tracer = spans.Tracer()
    plain, traced = [], []

    def one_round():
        plain.append(inprocess_pass(fmoent.cli, wl, outcomes, clock))
        tracer.install(fmoent)
        try:
            traced.append((inprocess_pass(fmoent.cli, wl, outcomes, clock, "traced_s"), tracer.take()))
        finally:
            tracer.uninstall()

    rounds(one_round, seconds, started)
    tables = [spans.layer_table(s) for _, s in traced]
    # Span times are wall times; a pass's spans are scaled by the factor its
    # invocations were scaled by, and coverage is taken before scaling.
    raw_traced = chunks(clock.raw["traced_s"], len(wl.invocations))
    samples = {metric: [] for metric in spans.METRICS}
    for table, (times, _), raw in zip(tables, traced, raw_traced):
        factor = math.fsum(times) / math.fsum(raw)
        for metric, value in spans.layer_metrics(table).items():
            samples[metric].append(value * factor if PER_LAYER_UNITS[metric] == "s" else value)
    samples["setup.import_numpy_s"] = [n for n, _ in breakdown]
    samples["setup.import_fmoent_s"] = [f for _, f in breakdown]
    samples["trace.coverage_frac"] = [spans.covered_seconds(s) / math.fsum(t) for t, (_, s) in zip(raw_traced, traced)]
    overhead = pass_seconds([t for t, _ in traced]) / pass_seconds(plain) - 1.0
    samples["trace.overhead_frac"] = [overhead]
    write_trace(wl, seed, tables, traced[-1][1], tracer.missing)
    columns = {"in_process_s": plain, "traced_s": [t for t, _ in traced]}
    return {
        "samples": samples,
        "values": {},
        "invocations": columns,
        "layers": tables,
        "missing": tracer.missing,
        "calibration": clock.cal,
        **outcomes.finish(),
    }


def write_trace(wl, seed: int, tables, last_spans, missing) -> None:
    """Write the per-layer tables and the spans of the last traced pass."""
    names = sorted({s[0] for s in last_spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = last_spans[0][2] if last_spans else 0.0
    record = {
        "workload": wl.name,
        "seed": seed,
        "work_units": spans.WORK,
        "missing_patch_targets": missing,
        "layers_per_pass": tables,
        "span_names": names,
        "spans": [[index[n], p, round(s - t0, 9), round(e - t0, 9), w] for n, p, s, e, w in last_spans],
    }
    path = ROOT / workloads.INPUT_DIR / f"trace-{wl.name}.json.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(json.dumps(record).encode()))
    print(f"spans of the last traced pass written to {path.relative_to(ROOT)}")


def report(wl, seed: int, result: dict, units: dict[str, str]) -> dict[str, float]:
    """Print one workload's metrics with median, quartiles and sample count."""
    print(f"== {wl.name}, seed {seed}: {len(wl.invocations)} invocations, {wl.points} points per pass")
    values = {}
    for metric, unit in units.items():
        med, q1, q3 = median_quartiles(result["samples"][metric])
        values[metric] = result["values"].get(metric, med)
        print(
            f"  {metric:44s} {values[metric]:14.6g} {unit:12s} "
            f"per pass: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} n={len(result['samples'][metric])}"
        )
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':44s} {fail_frac:14.6g} {'fraction':12s} ({result['failed']}/{result['attempted']} invocations)")
    if "unscaled" in result:
        cells = ", ".join(f"{m} {v:.6g}" for m, v in result["unscaled"].items())
        print(f"  unscaled (medians of wall time): {cells}")
    cal_med, cal_q1, cal_q3 = median_quartiles(result["calibration"])
    print(
        f"  calibration: median {cal_med * 1e3:.2f} ms, q1 {cal_q1 * 1e3:.2f}, q3 {cal_q3 * 1e3:.2f}, "
        f"fastest {min(result['calibration']) * 1e3:.2f}, slowest {max(result['calibration']) * 1e3:.2f}, "
        f"n={len(result['calibration'])}; reference {CAL_REF_S * 1e3:.2f} ms; times above are scaled to it"
    )
    print_invocations(wl, result["invocations"])
    if result["reference_compared"]:
        print(
            f"  reference: {result['reference_identical']}/{result['reference_compared']} outputs "
            "byte-identical to the recorded reference"
        )
    if result.get("layers"):
        print_layers(result["layers"][-1], result.get("missing", []))
    for problem in result["problems"][:20]:
        print(f"  FAIL {problem}")
    return values


def print_invocations(wl, columns: dict[str, list[list[float]]]) -> None:
    """Each invocation's median time per kind of pass."""
    print(f"  {'invocation (median over passes)':72s} {'points':>7s} " + " ".join(f"{c:>13s}" for c in columns))
    medians = {c: [statistics.median(t) for t in zip(*per_pass)] for c, per_pass in columns.items()}
    for i, inv in enumerate(wl.invocations):
        cells = " ".join(f"{medians[c][i]:13.4f}" for c in columns)
        print(f"  {inv.key[:72]:72s} {inv.points:7d} {cells}")


def print_layers(table, missing) -> None:
    print(f"  {'span (last traced pass, unscaled)':36s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'work':>14s}")
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        work = f"{row['work']:.6g}" if name in spans.WORK else ""
        print(f"  {name:36s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f} {work:>14s}")
    for name, what in spans.WORK.items():
        print(f"    work of {name}: {what}")
    if missing:
        print(f"  not traced (name not found): {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fmoent" / "cli.py").is_file():
        print(f"run.py: no fmoent sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics, attempted, failed = {}, 0, 0
    with Launcher() as launcher:
        for name in names:
            wl = workloads.build(name, args.seed)
            workloads.write_inputs(wl, ROOT)
            if args.trace:
                result = measure_traced(wl, args.seed, args.seconds, launcher)
            else:
                result = measure(wl, args.seed, args.seconds, launcher)
            values = report(wl, args.seed, result, units)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + m: {"value": v, "unit": units[m]} for m, v in values.items()})
            attempted += result["attempted"]
            failed += result["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
