"""Accuracy of the closed forms against high-precision evaluations.

The reference is mpmath at 40 digits, fed the same double inputs as the
library, so the test measures the library's rounding and nothing else.
mpmath is imported directly: without it this module fails to collect rather
than skipping.
"""

import mpmath
import numpy as np
import pytest

from fmoent.entanglement import meyer_wallach_register
from fmoent.reservoir import ReservoirParams, amplitude

mpmath.mp.dps = 40

# The q_numeric scans of the benchmark's register_entanglement workload,
# seeds 0-2: b over 0..1 in 21 steps, t over 0..t_max in 101 steps.
Q_NUMERIC_GRIDS = {
    "seed0": dict(t_max=1.0, gamma0=800.0, half_width=40.0),
    "seed1": dict(t_max=0.720928, gamma0=846.805, half_width=37.9796),
    "seed2": dict(t_max=1.46043, gamma0=1084.85, half_width=49.4388),
}


def register_q(b: float, u: complex):
    """2b^2[s(1 - b^2 s) + (1 - s)(1 - b^2(1 - s))] at s = |u|^2, in mpmath."""
    bb = mpmath.mpf(b) ** 2
    s = mpmath.mpf(u.real) ** 2 + mpmath.mpf(u.imag) ** 2
    return 2 * bb * (s * (1 - bb * s) + (1 - s) * (1 - bb * (1 - s)))


@pytest.mark.parametrize("grid", Q_NUMERIC_GRIDS.values(), ids=Q_NUMERIC_GRIDS)
def test_register_closed_form_over_the_benchmark_grids(grid):
    b = np.linspace(0.0, 1.0, 21)[:, None]
    params = ReservoirParams.from_half_width(grid["gamma0"], grid["half_width"])
    u = amplitude(params, np.linspace(0.0, grid["t_max"], 101))[None, :]
    closed = meyer_wallach_register(np.sqrt(1.0 - b * b), b, u)
    worst_abs = worst_rel = mpmath.mpf(0)
    for (i, j), value in np.ndenumerate(closed):
        exact = register_q(float(b[i, 0]), complex(u[0, j]))
        error = abs(mpmath.mpf(float(value)) - exact)
        worst_abs = max(worst_abs, error)
        if exact:
            worst_rel = max(worst_rel, error / exact)
    # the register route (purities of the state vector) is off by up to
    # 1.7e-15 absolute and 3e-9 relative on the same points
    assert worst_abs <= 4e-16
    assert worst_rel <= 2e-15
