"""Spans around fmoent's public functions, kept in memory, for the traced run.

Each function is patched under the name its caller looks it up by, so that
the span sees every call the CLI makes:

* the names ``fmoent.cli`` imports with ``from .x import ...``;
* the attributes of ``fmoent.qlin`` (called as ``qlin.f`` by ``entanglement``
  and ``fmo``);
* ``fmoent.reservoir.amplitude`` as ``damping`` and
  ``population_difference`` look it up, and
  ``entanglement.normalized_negativity`` as ``global_entanglement`` does;
* ``ReservoirParams.from_half_width``, the only constructor the CLI uses.

A span records its name, its parent span, start and end times and a
computed work count.  Self time is the span's duration minus the durations of
its child spans.  A name that no longer exists in the program is skipped and
listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import math
import time

import numpy as np

# per-layer metric -> (span name, field); fields: calls, self_s, total_s, work,
# work_per_call.  "work" is a count computed from the call's arguments.
METRICS = {
    "cli.run_scan.self_s": ("cli.run_scan", "self_s"),
    "cli.emit_csv.s": ("cli.emit_csv", "total_s"),
    "reservoir.params.calls": ("reservoir.params", "calls"),
    "reservoir.amplitude.calls": ("reservoir.amplitude", "calls"),
    "reservoir.amplitude.self_s": ("reservoir.amplitude", "self_s"),
    "reservoir.amplitude.points_per_call": ("reservoir.amplitude", "work_per_call"),
    "reservoir.amplitude_ode_oracle.self_s": ("reservoir.amplitude_ode_oracle", "self_s"),
    "reservoir.amplitude_ode_oracle.rk4_steps": ("reservoir.amplitude_ode_oracle", "work"),
    "entanglement.global_entanglement.calls": ("entanglement.global_entanglement", "calls"),
    "entanglement.global_entanglement.self_s": ("entanglement.global_entanglement", "self_s"),
    "entanglement.normalized_negativity.calls": ("entanglement.normalized_negativity", "calls"),
    "entanglement.normalized_negativity.self_s": ("entanglement.normalized_negativity", "self_s"),
    "entanglement.state_build.self_s": ("entanglement.state_build", "self_s"),
    "entanglement.meyer_wallach.self_s": ("entanglement.meyer_wallach", "self_s"),
    "qlin.partial_transpose.calls": ("qlin.partial_transpose", "calls"),
    "qlin.partial_transpose.self_s": ("qlin.partial_transpose", "self_s"),
    "qlin.partial_transpose.bytes": ("qlin.partial_transpose", "work"),
    "qlin.partial_trace.self_s": ("qlin.partial_trace", "self_s"),
    "qlin.hermitian_eigen.calls": ("qlin.hermitian_eigen", "calls"),
    "qlin.hermitian_eigen.self_s": ("qlin.hermitian_eigen", "self_s"),
    "qlin.hermitian_eigen.n3": ("qlin.hermitian_eigen", "work"),
    "fidelity.self_s": ("fidelity", "self_s"),
    "fmo.exciton_table.self_s": ("fmo.exciton_table", "self_s"),
    "fmo.load_site_energies.self_s": ("fmo.load_site_energies", "self_s"),
}

# what the "work" column of each span counts; every one is computed from the
# call's arguments, not measured
WORK = {
    "reservoir.amplitude": "t points",
    "reservoir.amplitude_ode_oracle": "RK4 steps (computed from grid and max_step)",
    "qlin.partial_transpose": "bytes (computed: 16*4^N read + 16*4^N written)",
    "qlin.hermitian_eigen": "sum of dim^3 (computed)",
}


def _t_points(params, t, *args, **kwargs) -> int:
    return int(np.size(t))


def _rk4_steps(params, t_grid, *args, max_step: float = 1e-4, **kwargs) -> int:
    spans = np.diff(np.asarray(t_grid, dtype=float), prepend=0.0)
    spans = spans[spans > 0.0]
    return int(np.maximum(1, np.ceil(spans / max_step)).sum())


def _transpose_bytes(rho, n_qubits, *args, **kwargs) -> int:
    return 2 * 16 * 4 ** int(n_qubits)


def _dim_cubed(m, *args, **kwargs) -> int:
    return int(np.shape(m)[0]) ** 3


class Tracer:
    """Records spans while installed; :meth:`take` hands over and clears them."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, work(*args, **kwargs) if work else 0)

        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__, work))
        else:
            replacement = self._wrap(name, original, work)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, fmoent) -> None:
        cli, reservoir, qlin = fmoent.cli, fmoent.reservoir, fmoent.qlin
        self.missing.clear()
        p = self.patch
        p(cli, "run_scan", "cli.run_scan")
        p(cli, "emit_csv", "cli.emit_csv")
        p(reservoir.ReservoirParams, "from_half_width", "reservoir.params")
        p(cli, "amplitude", "reservoir.amplitude", _t_points)
        p(reservoir, "amplitude", "reservoir.amplitude", _t_points)
        p(cli, "amplitude_ode_oracle", "reservoir.amplitude_ode_oracle", _rk4_steps)
        p(cli, "damping", "reservoir.damping")
        p(cli, "population_difference", "reservoir.population_difference")
        p(cli, "global_entanglement", "entanglement.global_entanglement")
        p(fmoent.entanglement, "normalized_negativity", "entanglement.normalized_negativity")
        for attr in ("w_state_exciton_rho", "w_state_reservoir_rho", "x_state_register"):
            p(cli, attr, "entanglement.state_build")
        for attr in ("meyer_wallach_closed", "meyer_wallach_numeric"):
            p(cli, attr, "entanglement.meyer_wallach")
        for attr in ("f_ghz_teleport", "f_w_teleport", "f_ghz_split", "f_w_split"):
            p(cli, attr, "fidelity")
        for attr in ("dataset", "load_site_energies", "build_hamiltonian", "exciton_table"):
            p(cli, attr, f"fmo.{attr}")
        p(qlin, "partial_transpose", "qlin.partial_transpose", _transpose_bytes)
        p(qlin, "partial_trace", "qlin.partial_trace")
        p(qlin, "hermitian_eigen", "qlin.hermitian_eigen", _dim_cubed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed work."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (name, _, start, end, work) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        row["work"] += work
    for row in table.values():
        row["work_per_call"] = row["work"] / row["calls"]
    return table


def layer_metrics(table) -> dict[str, float]:
    """The METRICS of one pass; a layer the pass never called reads 0."""
    return {
        metric: float(table[name][field]) if name in table else 0.0
        for metric, (name, field) in METRICS.items()
    }


def covered_seconds(spans) -> float:
    """Sum of self times, which equals the summed duration of root spans."""
    return math.fsum(end - start for _, parent, start, end, _ in spans if parent < 0)
