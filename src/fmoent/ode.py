"""RK4 oracle for the survival amplitude u(t): the memory-kernel equation integrated numerically.

An independent check of :func:`fmoent.reservoir.amplitude`.  It integrates
the exponential-memory equation (kernel prefactor gamma0*lambda/2, decay
rate B = lambda - i*delta, half width lambda = ``half_width``) whose exact
solution ``amplitude`` evaluates in closed form, and never uses that closed
form or the eigenvalues of the system; it imports no fmoent module but the
package, so it cannot reach the code it checks.  A reservoir is anything
with one-element ``gamma0``, ``half_width`` and ``delta`` attributes
(cm^-1), such as a scalar :class:`fmoent.reservoir.ReservoirParams`.  Only
``fmoent check`` loads this module, so a scan never compiles it.
"""

from __future__ import annotations

import numpy as np

from . import _PUBLIC, CM1_TO_RAD_PER_PS

__all__ = _PUBLIC["ode"]


# Grid intervals per pass of the oracle's scan (bounds its temporaries), and
# the run length of its first level, multiplied out one row at a time.
_ORACLE_BLOCK = 4096
_ORACLE_WIDTH = 8


def _map_product(m1, m2, rates):
    """Product of two maps ``I + p*I + q*A``, each stacked as ``[p, q]``; A^2 = -b*A - c*I, ``rates = [c, b]``."""
    qq = m1[1] * m2[1]
    pq = m1[0] * m2
    pq[1] += m2[0] * m1[1]
    return m1 + m2 + (pq - rates * qq)


def _step_map(h, rates):
    """One RK4 step of length ``h``, T(h*A) - I with T(x) = 1 + x + ... + x^4/24, by Horner."""
    # C is stored complex beside B; as a float it keeps the real arithmetic of p
    c, b = rates[0].real, rates[1]
    p, q = 0.0, h / 4.0
    for k in (3.0, 2.0, 1.0):
        s = h / k
        p, q = -c * s * q, s * (1.0 + p - b * q)
    return np.stack((p, q))


def _map_power(m, n, rates):
    """Each map raised to its own step count ``n``, by square-and-multiply."""
    r = np.where((n & 1).astype(bool), m, 0.0)
    n = n >> 1
    while n.any():
        m = _map_product(m, m, rates)
        r = np.where((n & 1).astype(bool), _map_product(r, m, rates), r)
        n = n >> 1
    return r


def amplitude_ode_blocks(sets, size: int, points, *, max_step: float = 1e-4):
    """Integrate u(t) for each reservoir of ``sets`` on one grid, a block at a time.

    The grid has ``size`` points, and ``points(lo, hi)`` returns points
    ``lo, ..., hi - 1`` of it.  They must be finite, strictly ascending and
    start at t >= 0 (ps), else ValueError.  The grid is read in blocks of
    ``_ORACLE_BLOCK`` points.  For each block, and for each reservoir in turn,
    this yields ``(index into sets, block of t, u on that block)``, carrying
    each reservoir's state to the next block, so only one reservoir's block of
    u is alive at a time.  The block's intervals, their step counts and their
    distinct lengths are computed once, and the step maps of every reservoir
    are built together, for the distinct lengths only, then gathered into
    place for each reservoir in turn: a uniform grid has a few dozen distinct
    lengths among thousands of intervals.  The method is described at
    :func:`amplitude_ode_oracle`, which collects this for a single reservoir.
    """
    if not max_step > 0.0:
        raise ValueError("max_step must be positive")
    k = CM1_TO_RAD_PER_PS
    # [C, B] of each reservoir's system, one (2, 1) column per reservoir
    rates = np.empty((2, len(sets), 1), dtype=complex)
    for i, p in enumerate(sets):
        for name in ("gamma0", "half_width", "delta"):
            shape = np.shape(getattr(p, name))
            if np.prod(shape) != 1:
                raise ValueError(f"the RK4 oracle integrates one reservoir per set, got {name} of shape {shape}")
        rates[0, i] = (p.gamma0 * k) * (2.0 * p.half_width * k) / 4.0
        rates[1, i] = (p.half_width - 1j * p.delta) * k
    # time, and each reservoir's state [u - 1, z], at the end of the previous block
    t_in, states = 0.0, [np.zeros(2, dtype=complex)] * len(sets)
    for lo in range(0, size, _ORACLE_BLOCK):
        t = np.asarray(points(lo, min(lo + _ORACLE_BLOCK, size)), dtype=float)
        h, n, where = _block_intervals(t, t_in, lo == 0, max_step)
        with np.errstate(over="ignore", invalid="ignore"):
            # each distinct length's map of n steps; for n = 1, the step map itself
            maps = _map_power(_step_map(h, rates), n, rates)
        # each interval's [p, q] in one reservoir's (2, distinct) maps, a row's p and q side by side
        index = where[:, None, :] + h.size * np.arange(2)[:, None]
        for i, state in enumerate(states):
            u, states[i] = _chain_block(maps[:, i].take(index), state, rates[:, i])
            yield i, t, u[: t.size]
        t_in = t[-1]


def _block_intervals(t, t_in, first: bool, max_step: float):
    """A block's intervals: (step length, step count) per distinct span, and each interval's index into them.

    Interval ``j*w + i`` of the block sits at ``[i, j]`` of the ``(w, rows)``
    index array, ``w = _ORACLE_WIDTH``; spans of 0 pad the block with identity
    maps.  Refuses a block that is not finite, ascending and (the first one)
    at t >= 0.
    """
    if not np.isfinite(t).all():
        raise ValueError("t_grid must be finite")
    spans = np.diff(t, prepend=t_in)
    # only the first point of the grid may sit at t_in = 0
    if np.any(spans[1:] <= 0.0) or not (spans[0] > 0.0 or (first and spans[0] == 0.0)):
        raise ValueError("t_grid must be strictly ascending and start at t >= 0")
    rows = -(-t.size // _ORACLE_WIDTH)
    padded = np.zeros(rows * _ORACLE_WIDTH)
    padded[: t.size] = spans
    distinct, where = np.unique(padded, return_inverse=True)
    # a step too long for the rates overflows, as the stepwise loop would
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.maximum(1.0, np.ceil(distinct / max_step))
    if not steps.max() < 2.0**62:
        raise ValueError("max_step is too small: an interval needs 2**62 RK4 steps or more")
    n = steps.astype(np.int64)
    return distinct / n, n, where.reshape(rows, _ORACLE_WIDTH).T


def _chain_block(maps, state, rates):
    """u over one block (padding included) and the state [u - 1, z] at its end, by the two-level scan.

    ``maps`` holds the ``[p, q]`` of each row of the ``(w, rows)`` layout, as ``(w, 2, rows)``,
    and is chained in place; of the last product only p, which is u - 1, is formed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # prefix within each run of consecutive intervals, one whole row per product
        for i in range(1, _ORACLE_WIDTH):
            maps[i] = _map_product(maps[i], maps[i - 1], rates)
        # doubling scan over the incoming state and the run totals
        totals = np.concatenate((state[:, None], maps[-1]), axis=1)
        shift = 1
        while shift < totals.shape[1]:
            totals[:, shift:] = _map_product(totals[:, shift:], totals[:, :-shift], rates)
            shift *= 2
        # every run takes on the state at the end of the run before it
        (p, q), (tp, tq) = maps.transpose(1, 0, 2), totals[:, :-1]
        p = p + tp + (p * tp - rates[0] * (q * tq))
    return 1.0 + p.T.ravel(), totals[:, -1].copy()  # a view would keep totals alive


def amplitude_ode_oracle(
    params: ReservoirParams,
    t_grid,
    *,
    max_step: float = 1e-4,
) -> np.ndarray:
    """Integrate the memory-kernel equation for u(t) numerically.

    The convolution with the exponential kernel ``C * exp(-B*(t - s))``,
    ``C = gamma0*lambda/2``, is rewritten as the local linear system

        du/dt = -C*z,    dz/dt = u - B*z,    u(0) = 1, z(0) = 0,

    and advanced with classical fixed-step fourth-order Runge-Kutta.  Each
    grid interval is cut into ``n = max(1, ceil(span/max_step))`` equal
    steps (ps), so the integration lands exactly on every grid point.  It
    is an independent check of :func:`amplitude`: it never uses the
    closed form or the eigenvalues of the system.

    For a linear system one RK4 step of length h is the matrix T(hA),
    T(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, with A = [[0, -C], [1, -B]].
    Every such map is a polynomial in A and, since A^2 = -B*A - C*I, equals
    p*I + q*A: the maps commute and multiply as pairs (p, q).  Applied to
    the initial state (1, 0), p*I + q*A gives (u, z) = (p, q), so the
    product of the maps up to a grid point is the state there.  The oracle
    works ``_ORACLE_BLOCK`` intervals at a time, carrying the state from
    block to block.  It builds the step map of each distinct interval length
    in a block once and raises it to its step count by square-and-multiply
    where that count exceeds one, for every reservoir of a block together,
    then chains each reservoir's maps of the block in turn with a
    two-level scan: interval ``j*w + i`` of a block sits at ``[i, j]`` of a
    ``(w, rows)`` array, ``w = _ORACLE_WIDTH``.  A running product down the w
    rows, a doubling scan over the incoming state and the run totals, and
    one product handing every run the state before it cost about 3 map
    products per interval (12 for a doubling scan over every interval).  No
    Python loop runs per step, so 10^7 steps in one interval take a few
    dozen array operations.  Maps are stored as (p - 1, q), since a step's
    p is 1 - O(h^2) and rounding it would repeat the same error at every
    step; the two halves are stacked, so one array operation serves both.

    This collects :func:`amplitude_ode_blocks` for one reservoir; ``fmoent
    check`` reads the blocks as they come instead, so its memory does not
    grow with the grid.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    blocks = amplitude_ode_blocks([params], grid.size, lambda lo, hi: grid[lo:hi], max_step=max_step)
    return np.concatenate([u for _, _, u in blocks])
