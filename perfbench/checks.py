"""Output checks that share no code with the timed path.

Every check here recomputes what ``fmoent`` printed from independent forms;
nothing imports ``fmoent``:

* the survival amplitude ``u(t)`` comes from fourth-order Runge-Kutta on the
  memory-kernel system ``du/dt = -C z, dz/dt = u - B z``.  The RK4 update of
  a linear system is one constant 2x2 matrix, so ``u(t)`` is a matrix power;
* ``e_exciton``/``e_reservoir`` use the per-cut negativity of the W mixture
  ``s|W><W| + (1-s)|0><0|``, which is the same for every cut of size m:
  ``(sqrt((1-s)^2 + 4 s^2 m(N-m)/N^2) - (1-s)) / 2`` scaled by ``2/(2^m-1)``
  (Vidal & Werner, PRA 65, 032314 (2002));
* ``q_numeric`` uses the register form ``2b^2[s(1-b^2 s) + (1-s)(1-b^2(1-s))]``
  and ``q_closed`` the published form ``2a^2 b^2 + 4b^2 s(1-s)``.  The two
  differ for b < 1; they are kept apart so that the gap stays visible;
* the fidelities use their four closed forms in ``p = 1 - |u|^2``;
* exciton tables are compared with ``numpy.linalg.eigh`` of the published
  Hamiltonian;
* ``check`` must exit 0 and report a maximum error below 1e-6.

Scan rows are spot-checked on a seeded sample; the axis columns, the header
and the row count are checked on every row.  Outputs recorded at the commit
that defined the benchmark (``reference/``) are compared by value within
``REF_RTOL``; byte identity to them is counted, not required.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import re
from pathlib import Path

import numpy as np

from workloads import CHECK_SETS

# cm^-1 to rad/ps, the unit convention documented by fmoent (2*pi*c)
CM1_TO_RAD_PER_PS = 0.18836515673

RK4_MAX_STEP = 1e-5  # ps
SPOT_ROWS = 64
SPOT_ATOL = 1e-9
REF_RTOL = 1e-9
CHECK_MAX_ERROR = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

AXIS_LABELS = {
    "t": "t_ps",
    "gamma0": "gamma0_cm1",
    "half_width": "half_width_cm1",
    "delta": "delta_cm1",
    "b": "b",
    "n": "n",
}
VALUE_COLUMNS = {
    "delta_p": ["delta_p"],
    "u_amplitude": ["u_re", "u_im", "u_abs2"],
    "e_exciton": ["e_exciton"],
    "e_reservoir": ["e_reservoir"],
    "q_closed": ["q"],
    "q_numeric": ["q"],
    "f_ghz_tele": ["p_damp", "fidelity"],
    "f_w_tele": ["p_damp", "fidelity"],
    "f_ghz_split": ["p_damp", "fidelity"],
    "f_w_split": ["p_damp", "fidelity"],
}

# Published FMO data (cm^-1): BChl site energies and intersite couplings.
SITE_ENERGIES = {
    "reng": [12450.0, 12520.0, 12210.0, 12320.0, 12550.0, 12540.0, 12470.0],
    "lorenExpt": [12266.0, 12496.0, 12112.0, 12293.0, 12634.0, 12396.0, 12457.0],
    "wend": [12315.0, 12500.0, 12175.0, 12405.0, 12625.0, 12430.0, 12450.0],
}
COUPLINGS = np.array(
    [
        [0.0, -104.1, 5.1, -4.3, 4.7, -15.1, -7.8],
        [-104.1, 0.0, 32.6, 7.1, 5.4, 8.3, 0.8],
        [5.1, 32.6, 0.0, -46.8, 1.0, -8.1, 5.1],
        [-4.3, 7.1, -46.8, 0.0, -70.7, -14.7, -61.5],
        [4.7, 5.4, 1.0, -70.7, 0.0, 89.7, -2.5],
        [-15.1, 8.3, -8.1, -14.7, 89.7, 0.0, 32.7],
        [-7.8, 0.8, 5.1, -61.5, -2.5, 32.7, 0.0],
    ]
)


# ---------------------------------------------------------------- oracles

def amplitude_rk4(gamma0: float, half_width: float, delta: float, t: float) -> complex:
    """u(t) by RK4 with steps of at most RK4_MAX_STEP ps, as a matrix power."""
    if t == 0.0:
        return 1.0 + 0.0j
    k = CM1_TO_RAD_PER_PS
    width = 2.0 * half_width
    b = (width / 2.0 - 1j * delta) * k
    c = (gamma0 * k) * (width * k) / 4.0
    steps = max(1, math.ceil(t / RK4_MAX_STEP))
    a = (t / steps) * np.array([[0.0, -c], [1.0, -b]], dtype=complex)
    a2 = a @ a
    update = np.eye(2) + a + a2 / 2.0 + a2 @ a / 6.0 + a2 @ a2 / 24.0
    return complex(np.linalg.matrix_power(update, steps)[0, 0])


def w_negativity(s: float, n: int) -> float:
    """Bipartition-averaged normalized negativity of s|W><W| + (1-s)|0><0|."""
    per_size = [
        (math.sqrt((1.0 - s) ** 2 + 4.0 * s * s * m * (n - m) / n**2) - (1.0 - s)) / 2.0
        * 2.0 / (2.0**m - 1.0)
        for m in range(1, n // 2 + 1)
    ]
    return sum(per_size) / len(per_size)


def fidelity(observable: str, p: float, n: int) -> float:
    q = 1.0 - p
    if observable == "f_ghz_tele":
        return (2.0 + q ** (n - 1) * (2.0 - p) + 2.0 * q ** (n / 2.0) + p ** (n - 1) * (1.0 + p)) / 6.0
    if observable == "f_w_tele":
        return (3.0 - 2.0 * p + p * p) / 3.0
    if observable == "f_ghz_split":
        return (2.0 - p * q + q ** (n / 2.0)) / 3.0
    return 1.0 - p / 3.0


def expected_values(observable: str, point: dict[str, float], b_swept: bool) -> list[float]:
    """The value columns of one scan row, from the independent forms."""
    u = amplitude_rk4(point["gamma0"], point["half_width"], point.get("delta", 0.0), point["t"])
    s = abs(u) ** 2
    surv = min(1.0, s)
    n = int(round(point.get("n", 4.0)))
    if observable == "delta_p":
        return [2.0 * s - 1.0]
    if observable == "u_amplitude":
        return [u.real, u.imag, s]
    if observable == "e_exciton":
        return [w_negativity(surv, n)]
    if observable == "e_reservoir":
        return [w_negativity(1.0 - surv, n)]
    if observable == "q_closed":
        b = point["b"]
        a = math.sqrt(1.0 - b * b) if b_swept or "a" not in point else point["a"]
        return [2.0 * a * a * b * b + 4.0 * b * b * surv * (1.0 - surv)]
    if observable == "q_numeric":
        b = point["b"]
        return [2.0 * b * b * (s * (1.0 - b * b * s) + (1.0 - s) * (1.0 - b * b * (1.0 - s)))]
    p = min(1.0, max(0.0, 1.0 - s))
    return [p, fidelity(observable, p, n)]


def exciton_table(energies) -> tuple[np.ndarray, np.ndarray]:
    """Energies (ascending) and site amplitudes, largest component positive."""
    e = np.asarray(energies, dtype=float)
    values, vectors = np.linalg.eigh(np.diag(e - e[2]) + COUPLINGS)
    pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(7)]
    return values, vectors * np.sign(pivots)


def read_site_file(path: Path) -> list[float]:
    energies = {}
    for line in path.read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            energies[int(fields[0])] = float(fields[1])
    return [energies[i] for i in range(1, 8)]


# ---------------------------------------------------------------- parsing

def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.split("\n")
    if not text.endswith("\n") or len(lines) < 2:
        raise ValueError("output is not newline-terminated CSV")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("row width differs from header")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def option_map(argv) -> dict[str, str]:
    """``--key value`` pairs of a CLI argv, keys with '-' as '_'."""
    args = list(argv[1:])
    return {args[i][2:].replace("-", "_"): args[i + 1] for i in range(0, len(args), 2)}


def axis_grid(text: str) -> tuple[str, np.ndarray]:
    name, lo, hi, steps = text.split(":")
    grid = np.linspace(float(lo), float(hi), int(steps))
    return name, np.round(grid) if name == "n" else grid


# ---------------------------------------------------------------- checks

def check_scan(argv, text: str, rng: random.Random) -> list[str]:
    opts = option_map(argv)
    observable = opts["observable"]
    axes = [axis_grid(opts[key]) for key in ("axis1", "axis2") if key in opts]
    header, rows = parse_csv(text)
    expected_header = [AXIS_LABELS[name] for name, _ in axes] + VALUE_COLUMNS[observable]
    if header != expected_header:
        return [f"header {header} != {expected_header}"]
    mesh = np.meshgrid(*[grid for _, grid in axes], indexing="ij")
    axis_cols = np.stack([m.ravel() for m in mesh], axis=1)
    if rows.shape[0] != axis_cols.shape[0]:
        return [f"{rows.shape[0]} rows, expected {axis_cols.shape[0]}"]
    problems = []
    if not np.isfinite(rows).all():
        problems.append("non-finite value")
    if not np.allclose(rows[:, : len(axes)], axis_cols, rtol=1e-11, atol=1e-12):
        problems.append("axis columns differ from the requested grid")
    fixed = {k: float(v) for k, v in opts.items() if k not in ("observable", "axis1", "axis2")}
    b_swept = any(name == "b" for name, _ in axes)
    sample = {0, len(rows) - 1} | set(rng.sample(range(len(rows)), min(SPOT_ROWS, len(rows))))
    for r in sorted(sample):
        point = dict(fixed, **{name: float(axis_cols[r, i]) for i, (name, _) in enumerate(axes)})
        want = expected_values(observable, point, b_swept)
        got = rows[r, len(axes):]
        if not np.allclose(got, want, rtol=0.0, atol=SPOT_ATOL):
            problems.append(f"row {r}: {got.tolist()} != independent {want}")
    return problems


def check_table(argv, text: str, root: Path) -> list[str]:
    name = option_map(argv).get("dataset", "reng")
    energies = SITE_ENERGIES[name] if name in SITE_ENERGIES else read_site_file(root / name)
    header, rows = parse_csv(text)
    if header != ["energy_cm1"] + [f"bchl{i}" for i in range(1, 8)] or rows.shape != (7, 8):
        return [f"table shape {rows.shape} / header {header}"]
    values, vectors = exciton_table(energies)
    problems = []
    if not np.allclose(rows[:, 0], values, rtol=0.0, atol=1e-6):
        problems.append(f"energies {rows[:, 0].tolist()} != eigh {values.tolist()}")
    if not np.allclose(rows[:, 1:], vectors.T, rtol=0.0, atol=1e-8):
        problems.append("site amplitudes differ from eigh")
    return problems


_CHECK_LINE = re.compile(r"max\|u_analytic - u_ode\| = (\S+)$")
_CHECK_TOTAL = re.compile(r"overall max error over t in \[0, \S+\] ps: (\S+)$")


def check_oracle(text: str) -> list[str]:
    lines = text.splitlines()
    errors = [float(m.group(1)) for line in lines if (m := _CHECK_LINE.search(line))]
    totals = [float(m.group(1)) for line in lines if (m := _CHECK_TOTAL.search(line))]
    if len(errors) != CHECK_SETS or len(totals) != 1:
        return [f"check printed {len(errors)} parameter lines and {len(totals)} totals"]
    if not max(errors + totals) < CHECK_MAX_ERROR:
        return [f"check max error {totals[0]:.3e} (per set {errors})"]
    return []


def check_output(argv, exit_code: int, text: str, root: Path, seed: int) -> list[str]:
    """Problems with one invocation's output; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if argv[0] == "check":
            return check_oracle(text)
        if argv[0] == "table":
            return check_table(argv, text, root)
        return check_scan(argv, text, random.Random(f"{seed}:{' '.join(argv)}"))
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output: {exc}"]


# ---------------------------------------------------------------- reference

def load_reference(workload: str) -> dict[str, str]:
    path = REFERENCE_DIR / f"{workload}.json.gz"
    return json.loads(gzip.decompress(path.read_bytes())) if path.is_file() else {}


def compare_reference(argv, text: str, ref: str) -> list[str]:
    """Header and row count must match exactly, values within REF_RTOL.

    ``check`` prints integration errors, which may move in the last digits;
    :func:`check_oracle` bounds them instead.
    """
    if text == ref or argv[0] == "check":
        return []
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    ref_header, ref_rows = parse_csv(ref)
    if header != ref_header or rows.shape != ref_rows.shape:
        return [f"shape {rows.shape} != reference {ref_rows.shape}"]
    if not np.allclose(rows, ref_rows, rtol=REF_RTOL, atol=1e-12):
        worst = int(np.abs(rows - ref_rows).argmax()) // rows.shape[1]
        return [f"row {worst} differs from the reference beyond rtol {REF_RTOL:g}"]
    return []
