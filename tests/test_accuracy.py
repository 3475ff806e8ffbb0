"""Accuracy of the closed forms against high-precision evaluations.

The reference is mpmath at 40 digits (50 for the amplitude at long times),
fed the same double inputs as the library, so the test measures the
library's rounding and nothing else.
mpmath is imported directly: without it this module fails to collect rather
than skipping.
"""

import math

import mpmath
import numpy as np
import pytest

from fmoent import CM1_TO_RAD_PER_PS
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
    params = ReservoirParams(grid["gamma0"], half_width=grid["half_width"])
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


def closed_form_u(gamma0: float, half_width: float, t: float):
    """exp(-B t/2) [cosh(xi t/2) + (B/xi) sinh(xi t/2)] at delta = 0, in mpmath at 50 digits."""
    with mpmath.workdps(50):
        k = mpmath.mpf(CM1_TO_RAD_PER_PS)
        b = mpmath.mpf(half_width) * k
        xi = mpmath.sqrt(mpmath.mpc(b * b - 2 * (mpmath.mpf(gamma0) * k) * (mpmath.mpf(half_width) * k)))
        x = xi * mpmath.mpf(t) / 2
        return mpmath.exp(-b * mpmath.mpf(t) / 2) * (mpmath.cosh(x) + b / xi * mpmath.sinh(x))


# (gamma0, half width, t_max, bound): R = 2 gamma0 / half_width is 50 and
# 1.25; the bounds are the measured worst relative errors, 3.27e-14 and
# 1.14e-13, with a small margin
REVIVAL_PEAKS = {"R=50": (1000.0, 40.0, 60.0, 4e-14), "R=1.25": (25.0, 40.0, 167.0, 1.3e-13)}


@pytest.mark.parametrize("case", REVIVAL_PEAKS.values(), ids=REVIVAL_PEAKS)
def test_amplitude_at_the_revival_peaks(case):
    # at delta = 0, u(t_k) = (-1)^k exp(-k pi / sqrt(R - 1)) at t_k = 2 pi k / omega,
    # omega = K sqrt(2 gamma0 half_width - half_width^2): a long-time
    # guard, far past check's 2 ps, against the closed form at the same doubles
    gamma0, half_width, t_max, bound = case
    omega = CM1_TO_RAD_PER_PS * math.sqrt(2.0 * gamma0 * half_width - half_width**2)
    t = 2.0 * math.pi * np.arange(1, int(t_max * omega / (2.0 * math.pi)) + 1) / omega
    u = amplitude(ReservoirParams(gamma0, half_width=half_width), t)
    decrement = math.pi / math.sqrt(2.0 * gamma0 / half_width - 1.0)
    worst = 0.0
    for k, (t_k, u_k) in enumerate(zip(t.tolist(), u.tolist()), start=1):
        exact = closed_form_u(gamma0, half_width, t_k)
        with mpmath.workdps(50):
            assert abs(exact / ((-1) ** k * mpmath.exp(-k * mpmath.mpf(decrement))) - 1) < 1e-9
            worst = max(worst, float(abs(mpmath.mpc(u_k) - exact) / abs(exact)))
    assert worst <= bound
