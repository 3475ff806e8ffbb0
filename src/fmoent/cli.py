"""Command-line front end: parameter scans, CSV emission, config loading.

Scans evaluate one observable over a grid of up to two swept axes and write
RFC-4180-style CSV (header row first, 12 significant digits, '\\n' line
endings).  Identical inputs produce byte-identical output.

Each observable is one array kernel in ``_OBSERVABLE_TABLE``.  A scan
evaluates its kernel over the flattened grid in blocks of ``_BLOCK_ROWS``
rows.  Every parameter, swept or fixed, reaches the kernel as an array with
one element per row, so a point's value never depends on which parameters
were swept or on how the grid was blocked.

Subcommands: ``scan`` (general observable scans), ``table`` (the exciton
energy/amplitude table) and ``check`` (closed-form amplitude against the
numerical integrator, printing the maximum error).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import (
    XStateParams,
    meyer_wallach_closed,
    meyer_wallach_numeric,
    w_mixture_entanglement,
    x_state_register,
)
from .fidelity import f_ghz_split, f_ghz_teleport, f_w_split, f_w_teleport
from .fmo import build_hamiltonian, dataset, exciton_table, load_site_energies
from .reservoir import (
    CM1_TO_RAD_PER_PS,
    ReservoirParams,
    amplitude,
    amplitude_ode_oracle,
    damping,
    population_difference,
)

__all__ = [
    "ConfigError",
    "AxisSpec",
    "ScanSpec",
    "ScanResult",
    "load_config",
    "run_scan",
    "emit_csv",
    "main",
]

OBSERVABLES = (
    "delta_p",
    "e_exciton",
    "e_reservoir",
    "q_closed",
    "q_numeric",
    "f_ghz_tele",
    "f_w_tele",
    "f_ghz_split",
    "f_w_split",
    "exciton_table",
    "u_amplitude",
)

AXIS_NAMES = ("t", "gamma0", "half_width", "delta", "b", "n")

_AXIS_LABELS = {
    "t": "t_ps",
    "gamma0": "gamma0_cm1",
    "half_width": "half_width_cm1",
    "delta": "delta_cm1",
    "b": "b",
    "n": "n",
}

_DEFAULTS = {"delta": 0.0, "n": 4.0}

_CONFIG_KEYS = (
    "observable",
    "axis1",
    "axis2",
    "gamma0",
    "half_width",
    "delta",
    "a",
    "b",
    "n",
    "t",
    "dataset",
    "output",
)

_NUMERIC_KEYS = ("gamma0", "half_width", "delta", "a", "b", "n", "t")

# Largest grid a scan may request, checked before anything is allocated.
MAX_GRID_ROWS = 10**7
# Rows per kernel evaluation and per CSV write: bounds the temporaries.
_BLOCK_ROWS = 1024


class ConfigError(ValueError):
    """Raised for malformed scan configurations."""


@dataclass(frozen=True)
class AxisSpec:
    """One swept axis: ``steps`` evenly spaced values from start to stop."""

    name: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"axis: unknown axis name {self.name!r}; use one of {AXIS_NAMES}")
        if self.steps < 2:
            raise ConfigError(f"axis {self.name}: steps must be >= 2, got {self.steps}")
        grid = np.linspace(self.start, self.stop, self.steps)
        if self.name == "n":
            rounded = np.round(grid)
            if np.abs(grid - rounded).max() > 1e-9:
                raise ConfigError(f"axis n: values must be integers, got {grid.tolist()}")
            return rounded
        return grid


@dataclass(frozen=True)
class ScanSpec:
    """Observable plus swept axes, fixed parameter values and dataset name."""

    observable: str
    axes: tuple[AxisSpec, ...] = ()
    fixed: dict[str, float] = field(default_factory=dict)
    dataset: str = "reng"


@dataclass(frozen=True)
class ScanResult:
    """CSV header and a float64 array with one row per grid point."""

    header: list[str]
    rows: np.ndarray


def _parse_axis(key: str, text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"{key}: expected 'name:min:max:steps', got {text!r}")
    name = parts[0].strip()
    if name not in AXIS_NAMES:
        raise ConfigError(f"{key}: unknown axis name {name!r}; use one of {AXIS_NAMES}")
    try:
        start = float(parts[1])
        stop = float(parts[2])
    except ValueError:
        raise ConfigError(f"{key}: min/max must be numbers in {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{key}: min/max must be finite in {text!r}")
    try:
        steps = int(parts[3])
    except ValueError:
        raise ConfigError(f"{key}: steps must be an integer in {text!r}") from None
    if steps < 2:
        raise ConfigError(f"{key}: steps must be >= 2, got {steps}")
    return AxisSpec(name=name, start=start, stop=stop, steps=steps)


def parse_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines ('#' comments); unknown keys are errors."""
    path = Path(path)
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        out[key] = value
    return out


def build_scan_spec(mapping: dict[str, str]) -> ScanSpec:
    """Turn a flat key/value mapping (config or flags) into a ScanSpec."""
    unknown = sorted(set(mapping) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    observable = mapping.get("observable")
    if observable is None:
        raise ConfigError("observable: missing required key")
    axes = []
    for key in ("axis1", "axis2"):
        if key in mapping:
            axes.append(_parse_axis(key, mapping[key]))
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ConfigError(f"axis2: duplicates axis1 ({axes[0].name!r})")
    if "dataset" in mapping and observable != "exciton_table":
        raise ConfigError(f"dataset: only exciton_table reads a dataset, not {observable!r}")
    fixed: dict[str, float] = {}
    for key in _NUMERIC_KEYS:
        if key in mapping:
            try:
                fixed[key] = float(mapping[key])
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {mapping[key]!r}") from None
            if not math.isfinite(fixed[key]):
                raise ConfigError(f"{key}: expected a finite number, got {mapping[key]!r}")
    return ScanSpec(
        observable=observable,
        axes=tuple(axes),
        fixed=fixed,
        dataset=mapping.get("dataset", "reng"),
    )


def load_config(path) -> ScanSpec:
    """Load a scan configuration file into a ScanSpec."""
    return build_scan_spec(parse_config_file(path))


def _reservoir(p) -> ReservoirParams:
    return ReservoirParams.from_half_width(
        gamma0=p["gamma0"], half_width=p["half_width"], delta=p["delta"]
    )


def _parties(n: np.ndarray) -> np.ndarray:
    rounded = np.rint(n)
    off = np.abs(n - rounded) > 1e-9
    if off.any():
        raise ValueError(f"n: must be an integer, got {n[off][0]}")
    return rounded


def _ab(p):
    """(a, b): a fixed a as given, else a = sqrt(1 - b^2) for b in [0, 1]."""
    b = p["b"]
    if "a" in p:
        return p["a"], b
    inside = (b >= 0.0) & (b <= 1.0)
    if not inside.all():
        raise ValueError(f"b: must lie in [0, 1] when a is derived, got {b[~inside][0]}")
    return np.sqrt(1.0 - b * b), b


def _u(p):
    return amplitude(_reservoir(p), p["t"])


def _survival(p):
    return np.minimum(1.0, np.abs(_u(p)) ** 2)


def _u_amplitude(p):
    u = _u(p)
    return u.real, u.imag, np.abs(u) ** 2


def _q_numeric(p):
    a, b = _ab(p)
    u = _u(p)
    return (meyer_wallach_numeric(x_state_register(XStateParams(a=a, b=b, u1=u, u2=u))),)


def _with_damping(p, fidelity):
    damp = damping(_reservoir(p), p["t"])
    return damp, fidelity(damp)


@dataclass(frozen=True)
class _Observable:
    """Value columns, consumed parameters and the array kernel of one observable.

    The kernel maps parameter name -> array over the block's rows to one
    array per value column.
    """

    columns: tuple[str, ...]
    needs: tuple[str, ...]
    kernel: Callable[[dict], tuple]


_RES = ("gamma0", "half_width", "delta", "t")
_FID = ("p_damp", "fidelity")

# The kernels look every library function up by name when they run, so a
# wrapper set on this module's attributes (a profiler's, say) sees each call.
_OBSERVABLE_TABLE = {
    "delta_p": _Observable(
        ("delta_p",), _RES, lambda p: (population_difference(_reservoir(p), p["t"]),)
    ),
    "u_amplitude": _Observable(("u_re", "u_im", "u_abs2"), _RES, _u_amplitude),
    "e_exciton": _Observable(
        ("e_exciton",), _RES + ("n",),
        lambda p: (w_mixture_entanglement(_survival(p), _parties(p["n"])),),
    ),
    "e_reservoir": _Observable(
        ("e_reservoir",), _RES + ("n",),
        lambda p: (w_mixture_entanglement(1.0 - _survival(p), _parties(p["n"])),),
    ),
    "q_closed": _Observable(
        ("q",), _RES + ("b",), lambda p: (meyer_wallach_closed(*_ab(p), _u(p)),)
    ),
    "q_numeric": _Observable(("q",), _RES + ("b",), _q_numeric),
    "f_ghz_tele": _Observable(
        _FID, _RES + ("n",),
        lambda p: _with_damping(p, lambda d: f_ghz_teleport(d, _parties(p["n"]))),
    ),
    "f_w_tele": _Observable(_FID, _RES, lambda p: _with_damping(p, lambda d: f_w_teleport(d))),
    "f_ghz_split": _Observable(
        _FID, _RES + ("n",),
        lambda p: _with_damping(p, lambda d: f_ghz_split(d, _parties(p["n"]))),
    ),
    "f_w_split": _Observable(_FID, _RES, lambda p: _with_damping(p, lambda d: f_w_split(d))),
}


def _resolve_dataset(name_or_path: str):
    """Builtin dataset name, or a path to a site-energy table file."""
    try:
        return dataset(name_or_path)
    except ValueError:
        if Path(name_or_path).is_file():
            return load_site_energies(name_or_path)
        raise ValueError(
            f"dataset: {name_or_path!r} is neither a builtin name nor a readable file"
        ) from None


def _exciton_table_result(spec: ScanSpec) -> ScanResult:
    table = exciton_table(build_hamiltonian(_resolve_dataset(spec.dataset)))
    header = ["energy_cm1"] + [f"bchl{i}" for i in range(1, 8)]
    return ScanResult(header=header, rows=np.column_stack([table.energies, table.amplitudes.T]))


def run_scan(spec: ScanSpec) -> ScanResult:
    """Evaluate the observable over the grid; the first axis varies slowest."""
    if spec.observable not in OBSERVABLES:
        raise ValueError(f"observable: unknown value {spec.observable!r}")
    if spec.observable == "exciton_table":
        if spec.axes:
            raise ValueError("axis1: exciton_table takes no axes")
        return _exciton_table_result(spec)
    observable = _OBSERVABLE_TABLE[spec.observable]

    if len(spec.axes) > 2:
        raise ValueError("axes: at most two axes may be swept")
    axis_names = [axis.name for axis in spec.axes]
    if len(set(axis_names)) != len(axis_names):
        raise ValueError("axis2: duplicates axis1")
    for name in axis_names:
        if name in spec.fixed:
            raise ValueError(f"{name}: given both as an axis and a fixed value")

    base: dict[str, float] = {}
    for name in observable.needs:
        if name in axis_names:
            continue
        if name in spec.fixed:
            base[name] = spec.fixed[name]
        elif name in _DEFAULTS:
            base[name] = _DEFAULTS[name]
        else:
            raise ValueError(f"{name}: missing value for observable {spec.observable!r}")
    if "b" in observable.needs and "a" in spec.fixed:
        if "b" in axis_names:
            raise ValueError("a: cannot be fixed while sweeping b (a is derived as sqrt(1 - b^2))")
        base["a"] = spec.fixed["a"]

    shape = tuple(axis.steps for axis in spec.axes)
    total = math.prod(shape)
    if total > MAX_GRID_ROWS:
        raise ConfigError(
            f"axes: the grid has {total} points, more than the limit of {MAX_GRID_ROWS}"
        )
    grids = [axis.values() for axis in spec.axes]

    header = [_AXIS_LABELS[name] for name in axis_names] + list(observable.columns)
    rows = np.empty((total, len(header)))
    for lo in range(0, total, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, total)
        point = {name: np.full(hi - lo, value) for name, value in base.items()}
        # flattened meshgrid in C order: the first axis varies slowest
        indices = np.unravel_index(np.arange(lo, hi), shape) if shape else ()
        for j, (name, grid, index) in enumerate(zip(axis_names, grids, indices)):
            point[name] = rows[lo:hi, j] = grid[index]
        for j, column in enumerate(observable.kernel(point), start=len(axis_names)):
            rows[lo:hi, j] = column
    return ScanResult(header=header, rows=rows)


def emit_csv(result: ScanResult, destination=None) -> None:
    """Write a scan result as CSV to a path, or stdout when destination is
    None or '-'."""
    if destination is None or destination == "-":
        _write_csv(result, sys.stdout)
    else:
        with open(destination, "w") as handle:
            _write_csv(result, handle)


def _write_csv(result: ScanResult, out) -> None:
    # "%.12g" % v gives the same bytes as format(v, ".12g"); one template per
    # chunk formats a whole block of rows in a single call
    out.write(",".join(result.header) + "\n")
    line = ",".join(["%.12g"] * result.rows.shape[1]) + "\n"
    for lo in range(0, len(result.rows), _BLOCK_ROWS):
        chunk = result.rows[lo : lo + _BLOCK_ROWS]
        out.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def _merge_flags(args: argparse.Namespace) -> dict[str, str]:
    raw: dict[str, str] = {}
    if args.config is not None:
        raw.update(parse_config_file(args.config))
    for key in ("observable", "axis1", "axis2", "dataset", "output"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    for key in ("gamma0", "half_width", "delta", "a", "b", "t"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = repr(value)
    if args.n is not None:
        raw["n"] = str(args.n)
    return raw


def _run_scan_command(args: argparse.Namespace) -> int:
    raw = _merge_flags(args)
    spec = build_scan_spec(raw)
    result = run_scan(spec)
    emit_csv(result, raw.get("output"))
    return 0


def _run_table_command(args: argparse.Namespace) -> int:
    spec = ScanSpec(observable="exciton_table", dataset=args.dataset or "reng")
    emit_csv(run_scan(spec), args.output)
    return 0


def _run_check_command(args: argparse.Namespace) -> int:
    step = args.step
    if not step > 0.0:
        raise ValueError(f"step: must be positive, got {step}")
    if not args.t_max > 0.0:
        raise ValueError(f"t-max: must be positive, got {args.t_max}")
    grid = np.arange(0.0, args.t_max + step / 2.0, step)
    worst = 0.0
    for gamma0 in (10.0, 1000.0):
        for half_width in (20.0, 40.0):
            for delta in (0.0, 100.0):
                params = ReservoirParams.from_half_width(gamma0, half_width, delta)
                analytic = amplitude(params, grid)
                integrated = amplitude_ode_oracle(params, grid, max_step=step)
                err = float(np.abs(analytic - integrated).max())
                worst = max(worst, err)
                print(
                    f"gamma0={gamma0:g} half_width={half_width:g} delta={delta:g} cm^-1: "
                    f"max|u_analytic - u_ode| = {err:.3e}"
                )
    print(f"overall max error over t in [0, {args.t_max:g}] ps: {worst:.3e}")
    if worst >= 1e-6:
        print(f"fmoent: amplitude check failed (max error {worst:.3e} >= 1e-6)", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmoent",
        description="Exciton entanglement and fidelity dynamics of the FMO complex.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"fmoent {__version__} "
            f"(cm^-1 to rad/ps conversion: {CM1_TO_RAD_PER_PS!r})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="evaluate an observable over a parameter grid")
    scan.add_argument("--config", help="key = value configuration file; flags win on conflict")
    scan.add_argument("--observable", choices=OBSERVABLES, help="quantity to evaluate")
    scan.add_argument("--axis1", help="outer sweep, 'name:min:max:steps'")
    scan.add_argument("--axis2", help="inner sweep, 'name:min:max:steps'")
    scan.add_argument("--gamma0", type=float, help="reservoir strength (cm^-1)")
    scan.add_argument("--half-width", type=float, help="Lorentzian half width (cm^-1)")
    scan.add_argument("--delta", type=float, help="peak detuning (cm^-1), default 0")
    scan.add_argument("--a", type=float, help="ground-pair coefficient (default sqrt(1-b^2))")
    scan.add_argument("--b", type=float, help="excited-pair coefficient")
    scan.add_argument("--n", type=int, help="qubit/party count, default 4")
    scan.add_argument("--t", type=float, help="time (ps) when not swept")
    scan.add_argument("--dataset", help="site-energy dataset (reng, lorenExpt, wend)")
    scan.add_argument("--output", help="CSV destination path, '-' for stdout")

    table = sub.add_parser("table", help="print the exciton energy/amplitude table")
    table.add_argument("--dataset", help="site-energy dataset (default reng)")
    table.add_argument("--output", help="CSV destination path, '-' for stdout")

    check = sub.add_parser(
        "check", help="compare the closed-form amplitude against the ODE integrator"
    )
    check.add_argument("--t-max", type=float, default=2.0, help="time horizon (ps)")
    check.add_argument("--step", type=float, default=1e-4, help="integration step (ps)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scan":
            return _run_scan_command(args)
        if args.command == "table":
            return _run_table_command(args)
        return _run_check_command(args)
    except (ValueError, OSError) as exc:
        print(f"fmoent: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
