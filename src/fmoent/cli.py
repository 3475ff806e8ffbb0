"""Command-line front end: parameter scans, CSV emission, config loading.

Scans evaluate one observable over a grid of up to two swept axes and write
RFC-4180-style CSV (header row first, 12 significant digits, '\\n' line
endings).  Identical inputs produce byte-identical output.

A scan's grid is outer x inner, evaluated in blocks of at most
``_BLOCK_ROWS`` rows (``_blocks``).  ``run_scan`` forms the survival
amplitude u once per distinct reservoir point of a block, and each
observable is one array kernel of u and the parameters in
``_OBSERVABLE_TABLE``.  A point's printed value does not depend on which
parameters were swept or on the blocking, but an ``f_ghz_*`` row's last bit
can depend on whether ``n`` is the inner axis (numpy's ``power`` rounds a
contiguous exponent differently).

Subcommands: ``scan`` (observable scans), ``table`` (the exciton
energy/amplitude table) and ``check`` (closed-form amplitude against the
numerical integrator, printing the maximum error).  ``main`` reads argv
against ``_COMMANDS``, one table of each subcommand's flags; a usage error exits 2.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import types
from collections import namedtuple
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from . import _PUBLIC, CM1_TO_RAD_PER_PS, _real, _Record, _shown, __version__

__all__ = ["ConfigError", "AxisSpec", "ScanSpec", "ScanResult", "load_config", "run_scan", "emit_csv", "main"]

AXIS_NAMES = ("t", "gamma0", "half_width", "delta", "b", "n")

_AXIS_LABELS = {
    "t": "t_ps", "gamma0": "gamma0_cm1", "half_width": "half_width_cm1", "delta": "delta_cm1", "b": "b", "n": "n",
}

_DEFAULTS = {"delta": 0.0, "n": 4.0}

# Every scan key, with its help text: the config-file keys and the `scan`
# flags (`--half-width` for `half_width`).  A flag arrives as text and is
# parsed as the file's value is.
_SCAN_KEYS = {
    "observable": "quantity to evaluate",
    "axis1": "outer sweep, 'name:min:max:steps'",
    "axis2": "inner sweep, 'name:min:max:steps'",
    "gamma0": "reservoir strength (cm^-1)",
    "half_width": "Lorentzian half width (cm^-1)",
    "delta": "peak detuning (cm^-1), default 0",
    "b": "excited-pair coefficient in [0, 1]; the ground pair's is sqrt(1-b^2)",
    "n": "qubit/party count, default 4",
    "t": "time (ps) when not swept",
    "output": "CSV destination path, '-' for stdout",
}

# Largest grid a scan may request, checked before anything is allocated.
MAX_GRID_ROWS = 10**7
# Rows per kernel evaluation and per CSV write: bounds the temporaries.
_BLOCK_ROWS = 1024
# Relative slack of `check`'s t_max / step: 0.3 / 0.1 is 2.9999999999999996,
# and each decimal input and the quotient round by up to 2**-53 (1.1e-16).
_GRID_SLACK = 1e-15


# A subcommand imports each library module it calls the first time it needs
# it (``_need``), so a process loads only what it runs, and binds that
# module's public names (its ``_PUBLIC`` row) as attributes here.  The
# kernels look them up by name when they run, so a wrapper set on an
# attribute (a profiler's, say) sees each call; a module is bound once, so a
# later ``_need`` does not undo such a wrapper.
_loaded: set[str] = set()


def _need(*modules: str) -> None:
    """Import each library module on first use and bind its names here."""
    for module in modules:
        if module not in _loaded:
            library = importlib.import_module(f"{__package__}.{module}")
            globals().update({name: getattr(library, name) for name in _PUBLIC[module]})
            _loaded.add(module)


class ConfigError(ValueError):
    """Raised for malformed scan configurations."""


def _real_number(value) -> float | None:
    """``value`` as a float if ``_real`` reads it as one real number, a float NaN or inf included, else None."""
    given, real = _real(value)
    one = not (isinstance(value, np.ndarray) or given.ndim)
    return float(real) if one and (given.dtype.kind == "f" or not np.isnan(real)) else None


class AxisSpec(_Record):
    """One swept axis: ``steps`` evenly spaced values from start to stop."""

    __slots__ = ("name", "start", "stop", "steps")

    def __init__(self, name: str, start: float, stop: float, steps: int):
        if name not in AXIS_NAMES:
            raise ConfigError(f"axis {_shown(name)}: unknown axis name; use one of {AXIS_NAMES}")
        low, high = _real_number(start), _real_number(stop)
        if low is None or high is None:
            raise ConfigError(f"axis {name}: min and max must be real numbers, got {_shown(start)} and {_shown(stop)}")
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ConfigError(f"axis {name}: min and max must be finite, got {start} and {stop}")
        if not isinstance(steps, (int, np.integer)):
            raise ConfigError(f"axis {name}: steps must be an integer, got {steps}")
        if steps < 2:
            shown = steps if isinstance(steps, np.integer) else _shown(steps)  # a numpy int prints as its value
            raise ConfigError(f"axis {name}: steps must be >= 2, got {shown}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "steps", steps)

    def values(self) -> np.ndarray:
        grid = np.linspace(self.start, self.stop, self.steps)
        if self.name == "n":
            rounded = np.round(grid)
            if np.abs(grid - rounded).max() > 1e-9:
                raise ConfigError(f"axis n: values must be integers, got {grid.tolist()}")
            return rounded
        return grid


class ScanSpec(_Record):
    """Observable plus swept axes and fixed parameter values, checked when built.

    ``axes`` is kept as a tuple and ``fixed`` as a read-only copy, so the
    checked values are the ones a scan reads.
    """

    __slots__ = ("observable", "axes", "fixed")

    def __init__(self, observable: str, axes: tuple[AxisSpec, ...] = (),
                 fixed: Mapping[str, float] = types.MappingProxyType({})):
        axes, fixed = tuple(axes), types.MappingProxyType(dict(fixed))
        if observable == "exciton_table":
            raise ConfigError("observable: exciton_table is not a scan; use `fmoent table`")
        if observable not in OBSERVABLES:
            raise ConfigError(f"observable: unknown value {_shown(observable)}")
        for axis in axes:
            if not isinstance(axis, AxisSpec):
                raise ConfigError(f"axes: expected AxisSpec items, got {_shown(axis)}")
        names = [axis.name for axis in axes]
        if len(names) > 2:
            raise ConfigError(f"axes: at most two axes may be swept, got {len(names)}")
        if len(set(names)) < len(names):
            raise ConfigError(f"axis2: duplicates axis1 ({names[0]!r})")
        for key, value in fixed.items():
            if key not in AXIS_NAMES:
                shown = key if isinstance(key, str) else _shown(key)  # a config key prints bare
                raise ConfigError(f"{shown}: not a scan parameter; use one of {AXIS_NAMES}")
            if key in names:
                raise ConfigError(f"{key}: given both as an axis and a fixed value")
            if (number := _real_number(value)) is None:
                raise ConfigError(f"{key}: expected a real number, got {_shown(value)}")
            if not math.isfinite(number):
                raise ConfigError(f"{key}: expected a finite number, got {value}")
        if "n" in fixed and not float(fixed["n"]).is_integer():
            raise ConfigError(f"n: must be an integer, got {fixed['n']}")
        total = math.prod(axis.steps for axis in axes)
        if total > MAX_GRID_ROWS:
            raise ConfigError(f"axes: the grid has {total} points, more than the limit of {MAX_GRID_ROWS}")
        object.__setattr__(self, "observable", observable)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "fixed", fixed)


class ScanResult(_Record):
    """CSV header, the value columns of each grid point, and the grids.

    ``values`` is a 2-D array with one row per grid point, in C order, and
    one column per value name: the header's names after the axis labels.
    ``axes`` holds the 1-D, non-empty grid of each swept axis once, outer
    first; a result with no axes (a scalar scan, the exciton table) has ``()``.
    The result keeps ``header`` as a tuple and read-only views of the arrays.
    """

    __slots__ = ("header", "values", "axes")

    def __init__(self, header: Sequence[str], values: np.ndarray, axes: tuple[np.ndarray, ...] = ()):
        # the checked shapes are the ones emit_csv reads; a view copies nothing
        header, values, axes = tuple(header), _read_only(values), tuple(map(_read_only, axes))
        if len(axes) > 2 or any(grid.ndim != 1 or grid.size == 0 for grid in axes):
            raise ValueError(f"axes: at most 2 grids, each 1-D and not empty, got shapes {[g.shape for g in axes]}")
        shape, width = values.shape, len(header) - len(axes)
        if len(shape) != 2 or shape[1] != width:
            raise ValueError(f"values: expected a 2-D array, one column per value name ({width}), got shape {shape}")
        if axes and math.prod(len(grid) for grid in axes) != shape[0]:
            raise ValueError("axes: the grids do not span the rows")
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "axes", axes)

    @property
    def rows(self) -> np.ndarray:
        """The whole table, built on each read: the axis columns over the grid in C order, then ``values``."""
        grid = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([*(column.ravel() for column in grid), self.values])


def _read_only(array) -> np.ndarray:
    """A read-only view of ``array``."""
    view = np.asarray(array).view()
    view.setflags(write=False)
    return view


def _parse_axis(key: str, text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"{key}: expected 'name:min:max:steps', got {text!r}")
    try:
        start, stop = float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError(f"{key}: min/max must be numbers in {text!r}") from None
    try:
        steps = int(parts[3])
    except ValueError:
        raise ConfigError(f"{key}: steps must be an integer in {text!r}") from None
    try:
        return AxisSpec(name=parts[0].strip(), start=start, stop=stop, steps=steps)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCAN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        out[key] = value
    return out


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def build_scan_spec(mapping: dict[str, str]) -> ScanSpec:
    """Turn a flat key/value mapping (config or flags) into a ScanSpec."""
    unknown = sorted(set(mapping) - set(_SCAN_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    observable = mapping.get("observable")
    if observable is None:
        raise ConfigError("observable: missing required key")
    axes = tuple(_parse_axis(key, mapping[key]) for key in ("axis1", "axis2") if key in mapping)
    fixed = {key: _number(key, text) for key, text in mapping.items() if key in AXIS_NAMES}
    return ScanSpec(observable=observable, axes=axes, fixed=fixed)


def load_config(path) -> ScanSpec:
    """Load a scan configuration file into a ScanSpec."""
    return build_scan_spec(parse_config_file(path))


def _ab(p):
    """(a, b) with a = sqrt(1 - b^2), for b in [0, 1]."""
    b = p["b"]
    inside = (b >= 0.0) & (b <= 1.0)
    if not inside.all():
        raise ValueError(f"b: must lie in [0, 1], got {b[~inside][0]}")
    return np.sqrt(1.0 - b * b), b


def _with_damping(u, fidelity):
    damp = damping(u)
    return damp, fidelity(damp)


def _u_columns(u):
    survival(u)  # refuses the u that every other observable refuses
    return u.real, u.imag, np.abs(u) ** 2


# Value columns, consumed parameters, array kernel and library modules of one
# observable.  The kernel maps the block's survival amplitude ``u`` and its
# parameters (name -> array broadcasting over the block) to one array per
# value column, reading |u| through ``reservoir.survival``, which refuses a
# bad ``u``; ``modules`` are the library modules the kernel and the amplitude
# call need.  A namedtuple builds its class in about 0.08 ms at start-up,
# where a generated frozen class compiles its methods in about 1 ms.
_Observable = namedtuple("_Observable", "columns needs kernel modules")


_RES = ("gamma0", "half_width", "delta", "t")
_FID = ("p_damp", "fidelity")
# the library modules each observable calls
_R = ("reservoir",)
_R_ENT = ("reservoir", "entanglement")
_R_FID = ("reservoir", "fidelity")

_OBSERVABLE_TABLE = {
    "delta_p": _Observable(("delta_p",), _RES, lambda u, p: (population_difference(u),), _R),
    "e_exciton": _Observable(
        ("e_exciton",), _RES + ("n",),
        lambda u, p: (w_mixture_entanglement(survival(u), p["n"]),), _R_ENT,
    ),
    "e_reservoir": _Observable(
        ("e_reservoir",), _RES + ("n",),
        lambda u, p: (w_mixture_entanglement(damping(u), p["n"]),), _R_ENT,
    ),
    "q_closed": _Observable(("q",), _RES + ("b",), lambda u, p: (meyer_wallach_closed(*_ab(p), u),), _R_ENT),
    "q_numeric": _Observable(("q",), _RES + ("b",), lambda u, p: (meyer_wallach_register(*_ab(p), u),), _R_ENT),
    "f_ghz_tele": _Observable(
        _FID, _RES + ("n",),
        lambda u, p: _with_damping(u, lambda d: f_ghz_teleport(d, p["n"])), _R_FID,
    ),
    "f_w_tele": _Observable(_FID, _RES, lambda u, p: _with_damping(u, f_w_teleport), _R_FID),
    "f_ghz_split": _Observable(
        _FID, _RES + ("n",),
        lambda u, p: _with_damping(u, lambda d: f_ghz_split(d, p["n"])), _R_FID,
    ),
    "f_w_split": _Observable(_FID, _RES, lambda u, p: _with_damping(u, f_w_split), _R_FID),
    "u_amplitude": _Observable(("u_re", "u_im", "u_abs2"), _RES, lambda u, p: _u_columns(u), _R),
}

OBSERVABLES = tuple(_OBSERVABLE_TABLE)


def _resolve_dataset(name_or_path: str):
    """Builtin dataset name, or a path to a site-energy table file."""
    try:
        return dataset(name_or_path)
    except ValueError:
        if Path(name_or_path).is_file():
            return load_site_energies(name_or_path)
        raise ValueError(f"dataset: {name_or_path!r} is neither a builtin name nor a readable file") from None


def _blocks(outer: int, sweep: int):
    """(outer slice, inner slice) of each block of an outer x sweep grid, in row order.

    A block is k = ``_BLOCK_ROWS // sweep`` whole sweeps, or a slice of at
    most ``_BLOCK_ROWS`` points of a longer sweep.
    """
    k, width = max(1, _BLOCK_ROWS // sweep), min(sweep, _BLOCK_ROWS)
    for o in range(0, outer, k):
        for i in range(0, sweep, width):
            yield slice(o, o + k), slice(i, i + width)


def run_scan(spec: ScanSpec) -> ScanResult:
    """Evaluate the observable over the grid; the first axis varies slowest."""
    observable = _OBSERVABLE_TABLE[spec.observable]
    _need(*observable.modules)
    axis_names = [axis.name for axis in spec.axes]
    # each fixed value as a (1, 1) array, broadcasting over a block
    base: dict[str, np.ndarray] = {}
    for name in observable.needs:
        if name in axis_names:
            continue
        value = spec.fixed.get(name, _DEFAULTS.get(name))
        if value is None:
            raise ValueError(f"{name}: missing value for observable {spec.observable!r}")
        base[name] = np.full((1, 1), value)

    grids = [axis.values() for axis in spec.axes]
    # the grid is outer x inner; a scan of one axis or none has a single outer row
    outer = grids[0] if len(grids) == 2 else np.zeros(1)
    inner = grids[-1] if grids else np.zeros(1)
    header = [_AXIS_LABELS[name] for name in axis_names] + list(observable.columns)
    values = np.empty((len(outer), len(inner), len(observable.columns)))
    # u is evaluated again only when the block's inner slice changes or the
    # outer axis is a reservoir input
    varies = len(grids) == 2 and axis_names[0] in _RES
    u = last = None
    for o, i in _blocks(len(outer), len(inner)):
        # the outer axis as (k, 1), the inner axis as (1, m)
        axes = (outer[o, None], inner[None, i])[2 - len(grids) :]
        p = {**base, **dict(zip(axis_names, axes))}
        if varies or i != last:
            reservoir = ReservoirParams(p["gamma0"], half_width=p["half_width"], delta=p["delta"])
            # t spans the block's distinct reservoir points, one per value of u
            t = np.empty(np.broadcast(*(p[name] for name in _RES)).shape)
            t[...] = p["t"]
            u, last = amplitude(reservoir, t), i
        for j, column in enumerate(observable.kernel(u, p)):
            values[o, i, j] = column
    return ScanResult(header, values.reshape(-1, len(observable.columns)), tuple(grids))


def emit_csv(result: ScanResult, destination=None) -> None:
    """Write a scan result as CSV to a path, or stdout when destination is None or '-'."""
    if destination is None or destination == "-":
        _write_csv(result, sys.stdout)
    else:
        with open(destination, "w") as handle:
            _write_csv(result, handle)


def _write_csv(result: ScanResult, out) -> None:
    # "%.12g" % v gives the same bytes as format(v, ".12g").  The writer walks
    # run_scan's blocks over the value columns, viewed as outer x inner (a
    # result without axes as rows x 1, with no lead).  An axis value repeats
    # down the rows, so it is formatted once into the block's template: one
    # lead per outer value, and the inner slice's strings, formatted once
    # per distinct slice.  The one "%" call per block formats the values.
    out.write(",".join(result.header) + "\n")
    values, axes = result.values, result.axes
    outer = axes[0] if len(axes) == 2 else None
    inner = axes[-1] if axes else None
    shape = (len(values) // len(inner), len(inner)) if axes else (len(values), 1)
    values = values.reshape(*shape, values.shape[1])
    line = ",".join(["%.12g"] * values.shape[2]) + "\n"
    body, last = [line], None
    for o, i in _blocks(*shape):
        if inner is not None and i != last:
            body, last = ["%.12g," % v + line for v in inner[i].tolist()], i
        leads = [""] * len(values[o]) if outer is None else ["%.12g," % v for v in outer[o].tolist()]
        template = "".join(lead + lead.join(body) for lead in leads)
        out.write(template % tuple(values[o, i].ravel().tolist()))


def _run_scan_command(args: dict) -> int:
    raw = {} if args["config"] is None else parse_config_file(args["config"])
    raw.update((key, args[key]) for key in _SCAN_KEYS if args[key] is not None)
    emit_csv(run_scan(build_scan_spec(raw)), raw.get("output"))
    return 0


def _run_table_command(args: dict) -> int:
    _need("fmo")
    table = exciton_table(build_hamiltonian(_resolve_dataset(args["dataset"])))
    header = ["energy_cm1"] + [f"bchl{i}" for i in range(1, 8)]
    emit_csv(ScanResult(header, np.column_stack([table.energies, table.amplitudes.T])), args["output"])
    return 0


def _check_grid(t_max: float, step: float) -> int:
    """Number of points of the grid 0, step, ..., t_max of ``check``, refused before anything is allocated.

    The last point is the largest multiple of ``step`` not beyond ``t_max``,
    and ``t_max`` itself when ``t_max / step`` is an integer to within the
    rounding of the two inputs and their quotient.
    """
    for flag, value in (("--step", step), ("--t-max", t_max)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{flag}: must be a positive finite number, got {value}")
    last = t_max / step * (1.0 + _GRID_SLACK)  # the last point's index, before flooring
    if not last < MAX_GRID_ROWS:
        raise ConfigError(
            f"--step: the grid over [0, {t_max:g}] ps has {last + 1.0:.4g} points, "
            f"more than the limit of {MAX_GRID_ROWS}"
        )
    return math.floor(last) + 1


def _run_check_command(args: dict) -> int:
    size, step = _check_grid(args["t_max"], args["step"]), args["step"]
    _need("reservoir", "ode")
    sets = [
        ReservoirParams(gamma0, half_width=half_width, delta=delta)
        for gamma0 in (10.0, 1000.0)
        for half_width in (20.0, 40.0)
        for delta in (0.0, 100.0)
    ]
    # point i of the grid is i * step, as np.arange makes it
    blocks = amplitude_ode_blocks(sets, size, lambda lo, hi: np.arange(lo, hi) * step, max_step=step)
    errors = np.full(len(sets), -np.inf)
    for i, t, integrated in blocks:
        error = np.abs(amplitude(sets[i], t) - integrated).max()
        # np.maximum, unlike max(), propagates a NaN from a diverged integration
        errors[i] = np.maximum(errors[i], error)
    for params, error in zip(sets, errors):
        print(
            f"gamma0={params.gamma0:g} half_width={params.half_width:g} delta={params.delta:g} cm^-1: "
            f"max|u_analytic - u_ode| = {error:.3e}"
        )
    worst = float(np.max(errors))
    print(f"overall max error over t in [0, {args['t_max']:g}] ps: {worst:.3e}")
    if not worst < 1e-6:
        print(
            f"fmoent: amplitude check failed (max error {worst:.3e}, not below 1e-6)",
            file=sys.stderr,
        )
        return 1
    return 0


# Each subcommand's help text and flags, flag -> (default, help text); the
# scan flags are the scan keys (`--half-width` for `half_width`).  A flag
# with a float default reads its value with float(), any other as text.
_COMMANDS = {
    "scan": ("evaluate an observable over a parameter grid", {
        "--config": (None, "key = value configuration file; flags win on conflict"),
        **{"--" + key.replace("_", "-"): (None, text) for key, text in _SCAN_KEYS.items()},
        "--observable": (None, f"{_SCAN_KEYS['observable']}: {', '.join(OBSERVABLES)}"),  # listing the choices
    }),
    "table": ("print the exciton energy/amplitude table", {
        "--dataset": ("reng", "reng (default), lorenExpt, wend or a site-energy file"),
        "--output": (None, "CSV destination path, '-' for stdout"),
    }),
    "check": ("compare the closed-form amplitude against the ODE integrator",
              {"--t-max": (2.0, "time horizon (ps)"), "--step": (1e-4, "integration step (ps)")}),
}


def _help(command: str | None) -> str:
    """The usage line, then the flags of ``command`` (of every subcommand at the top level) with their help text."""
    rows = ["  -h, --help\n      print this help and exit"]
    if command is None:
        usage, names = "usage: fmoent [-h] [--version] {scan,table,check} ...", list(_COMMANDS)
        rows.append("  --version\n      print the version and exit")
    else:
        usage = " ".join([f"usage: fmoent {command} [-h]", *(f"[{f} {f[2:].upper()}]" for f in _COMMANDS[command][1])])
        names = [command]
    for name in names:
        about, flags = _COMMANDS[name]
        rows += ["", f"fmoent {name}: {about}", *(f"  {f} {f[2:].upper()}\n      {h}" for f, (_, h) in flags.items())]
    return "\n".join([usage, "", *rows])


def _usage_error(command: str | None, message: str):
    prog = " ".join(filter(None, ("fmoent", command)))
    print(_help(command).partition("\n")[0], f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and each of its flags' value by key (the default if not given); a usage error exits 2.

    A flag is read by its full name only, as ``--name value`` or ``--name=value``:
    the token after a flag is always its value, so ``--delta -1e3`` reads -1e3.
    """
    command, *rest = argv or [None]
    if command in ("-h", "--help", "--version"):
        print(_help(None) if command != "--version" else
              f"fmoent {__version__} (cm^-1 to rad/ps conversion: {CM1_TO_RAD_PER_PS!r})")
        raise SystemExit(0)
    if command not in _COMMANDS:
        _usage_error(None, "the following arguments are required: command" if command is None else
                     f"argument command: invalid choice: {command!r} (choose from 'scan', 'table', 'check')")
    flags = _COMMANDS[command][1]
    args, unknown, tokens = {flag: default for flag, (default, _) in flags.items()}, [], iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(0)
        flag, joined, value = token.partition("=")
        if flag not in flags:
            unknown.append(token)
            continue
        if not joined and (value := next(tokens, None)) is None:
            _usage_error(command, f"argument {flag}: expected one argument")
        if isinstance(flags[flag][0], float):
            try:
                value = float(value)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid float value: {value!r}")
        elif flag == "--observable" and value not in OBSERVABLES:
            choices = ", ".join(map(repr, OBSERVABLES))
            _usage_error(command, f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        args[flag] = value
    if unknown:
        _usage_error(None, f"unrecognized arguments: {' '.join(unknown)}")
    return command, {flag[2:].replace("-", "_"): value for flag, value in args.items()}


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        run = {"scan": _run_scan_command, "table": _run_table_command, "check": _run_check_command}[command]
        code = run(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe and wants no more: send what is left, and
        # the flush at exit, to the null device, and print nothing about it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"fmoent: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
