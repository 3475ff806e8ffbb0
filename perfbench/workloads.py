"""Workload generator: a seed in, the list of ``fmoent`` invocations out.

Every workload is a fixed list of CLI invocations.  The seed draws the sweep
bounds, the reservoir constants and the site-energy file; step counts never
depend on the seed, so every seed does the same amount of work.  Seed 0 is
the default and reproduces the figure scans of the README.

The program receives only the argv lists built here and the site-energy file
written by :func:`write_inputs`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# fmoent check with its defaults: 8 parameter sets on t = 0, 1e-4, ..., 2 ps
CHECK_SETS = 8
CHECK_T_POINTS = 20001

# reng site energies (cm^-1), the centre of the seeded site-energy draw
_RENG = (12450.0, 12520.0, 12210.0, 12320.0, 12550.0, 12540.0, 12470.0)

INPUT_DIR = ".perfbench"


@dataclass(frozen=True)
class Invocation:
    """One ``python -m fmoent.cli`` call and the grid points it evaluates.

    A point is a CSV data row, or a t-grid point times a parameter set for
    ``check``.
    """

    argv: tuple[str, ...]
    points: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    site_file: str | None = None  # relative path of a generated input file
    site_text: str | None = None

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.invocations)


def _g(x: float) -> str:
    return format(x, ".6g")


def _scan(observable: str, axes: list[tuple[str, float, float, int]], **fixed) -> Invocation:
    argv = ["scan", "--observable", observable]
    points = 1
    for flag, (name, lo, hi, steps) in zip(("--axis1", "--axis2"), axes):
        argv += [flag, f"{name}:{_g(lo)}:{_g(hi)}:{steps}"]
        points *= steps
    for key, value in fixed.items():
        argv += ["--" + key.replace("_", "-"), str(value) if key == "n" else _g(value)]
    return Invocation(tuple(argv), points)


class _Draw:
    """Seeded draws; seed 0 returns the README value of every draw."""

    def __init__(self, seed: int):
        self.default = seed == DEFAULT_SEED
        self.rng = random.Random(seed)

    def __call__(self, readme: float, lo: float, hi: float) -> float:
        value = self.rng.uniform(lo, hi)  # drawn for every seed so draws stay aligned
        return readme if self.default else float(_g(value))

    def choice(self, readme, options):
        value = self.rng.choice(options)
        return readme if self.default else value


def figure_grid(seed: int) -> Workload:
    d = _Draw(seed)
    t1 = d(1.0, 0.6, 1.5)
    n0 = d.choice(2, (2, 3, 4))
    return Workload(
        "figure_grid",
        (
            _scan("delta_p", [("gamma0", d(10, 5, 50), d(2000, 1500, 2500), 40), ("t", 0, t1, 201)],
                  half_width=d(40, 20, 60)),
            _scan("u_amplitude", [("half_width", d(10, 5, 20), d(100, 80, 150), 40), ("t", 0, t1, 201)],
                  gamma0=d(1000, 500, 1500), delta=d(0, -50, 50)),
            _scan("q_closed", [("b", 0, 1, 21), ("t", 0, t1, 101)],
                  gamma0=d(800, 500, 1200), half_width=d(40, 20, 60)),
            _scan("f_ghz_tele", [("n", n0, n0 + 10, 11), ("t", 0, t1, 201)],
                  gamma0=d(1500, 1000, 2000), half_width=d(40, 20, 60)),
            _scan("f_w_split", [("delta", d(-200, -300, -100), d(200, 100, 300), 40), ("t", 0, t1, 201)],
                  gamma0=d(1500, 1000, 2000), half_width=d(40, 20, 60)),
        ),
    )


def register_entanglement(seed: int) -> Workload:
    d = _Draw(seed)
    t1 = d(1.0, 0.6, 1.5)
    res = dict(gamma0=d(1000, 600, 1400), half_width=d(40, 25, 60), delta=d(0, -50, 50))
    return Workload(
        "register_entanglement",
        (
            _scan("e_exciton", [("t", 0, t1, 51)], n=4, **res),
            _scan("e_reservoir", [("t", 0, t1, 26)], n=5, **res),
            _scan("e_exciton", [("n", 2, 6, 5), ("t", 0, t1, 11)], **res),
            _scan("q_numeric", [("b", 0, 1, 21), ("t", 0, t1, 101)],
                  gamma0=d(800, 500, 1200), half_width=d(40, 20, 60)),
        ),
    )


def oracle_check(seed: int) -> Workload:
    rng = random.Random(seed)
    energies = [e + rng.uniform(-100.0, 100.0) for e in _RENG]
    site_file = f"{INPUT_DIR}/sites-seed{seed}.txt"
    site_text = f"# BChl site energies (cm^-1) drawn for workload seed {seed}\n" + "".join(
        f"{i} {e:.3f}\n" for i, e in enumerate(energies, start=1)
    )
    tables = [Invocation(("table", "--dataset", name), 7) for name in ("reng", "lorenExpt", "wend", site_file)]
    return Workload(
        "oracle_check",
        (Invocation(("check",), CHECK_SETS * CHECK_T_POINTS), *tables),
        site_file=site_file,
        site_text=site_text,
    )


WORKLOADS = {
    "figure_grid": figure_grid,
    "register_entanglement": register_entanglement,
    "oracle_check": oracle_check,
}


def build(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}") from None


def write_inputs(workload: Workload, root: Path) -> None:
    """Write the workload's generated input files under ``root``."""
    if workload.site_file is not None:
        path = root / workload.site_file
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(workload.site_text)
