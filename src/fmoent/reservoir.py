"""Lorentzian phonon reservoir and the excited-state survival amplitude u(t).

An excitonic two-level qubit coupled to a reservoir with Lorentzian spectral
density (strength ``gamma0``, full width ``delta_omega``, peak detuning
``delta``, all cm^-1) decays with a survival amplitude

    u(t) = exp(-B t / 2) * [cosh(xi t / 2) + (B / xi) sinh(xi t / 2)],
    B = delta_omega/2 - i*delta,   xi = sqrt(B^2 - gamma0*delta_omega),

the exact solution of the exponential-memory integro-differential equation
with kernel prefactor ``gamma0*delta_omega/4`` and u(0) = 1.  All cm^-1
rates are converted to angular frequencies (rad/ps) before evaluation so
that times are in picoseconds.

The broad-reservoir limit (``delta_omega >> gamma0``) gives memoryless
exponential decay; the opposite regime gives oscillatory decay where |u|
crosses zero and revives.

This module also owns the closed forms' input rules: what |u| means
(:func:`survival`), what a count and a weight in [0, 1] are, and that a
scalar call is a one-point array call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _PUBLIC, CM1_TO_RAD_PER_PS

__all__ = _PUBLIC["reservoir"]

_AMP_SLACK = 1e-9  # |u| may exceed 1 by rounding in amplitude(); beyond that it is refused


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian reservoir triple (cm^-1), scalars or broadcastable arrays.

    ``gamma0`` sets the exciton relaxation scale (relaxation time 1/gamma0),
    ``delta_omega`` is the full width at half maximum (reservoir correlation
    time 2/delta_omega), ``delta`` detunes the Lorentzian peak from the
    exciton transition frequency; every computed observable depends on the
    detuning alone, not on the transition frequency itself.
    """

    gamma0: float
    delta_omega: float
    delta: float = 0.0

    def __post_init__(self):
        for name in ("gamma0", "delta_omega", "delta"):
            value = np.asarray(getattr(self, name), dtype=float)
            finite = np.isfinite(value)
            if not finite.all():
                raise ValueError(f"{name} must be finite, got {value[~finite].flat[0]}")
            if name != "delta" and not (value > 0).all():
                raise ValueError(f"{name} must be positive, got {value[value <= 0].flat[0]}")

    @classmethod
    def from_half_width(cls, gamma0: float, half_width: float, delta: float = 0.0) -> "ReservoirParams":
        """Build from the half width delta_omega/2 of most figure axes: positive, with 2 * half_width finite."""
        with np.errstate(over="ignore"):
            delta_omega = 2.0 * half_width
        bad = ~(np.isfinite(delta_omega) & (delta_omega > 0.0))
        if bad.any():
            value = np.asarray(half_width, dtype=float)[bad].flat[0]
            raise ValueError(f"half_width must be positive, with 2 * half_width finite, got {value}")
        return cls(gamma0=gamma0, delta_omega=delta_omega, delta=delta)

    @property
    def half_width(self) -> float:
        return self.delta_omega / 2.0


def _decay_rates(params: ReservoirParams):
    """Return (B, xi) in rad/ps for the closed-form amplitude.

    Both are complex arrays of the parameters' broadcast shape, and of shape
    (1,) for scalar parameters: every input takes numpy's array arithmetic,
    so a point's rates do not depend on how its parameters were passed.
    Rates whose squares or product overflow are refused.
    """
    k = CM1_TO_RAD_PER_PS
    gamma0, delta_omega, delta = np.atleast_1d(params.gamma0, params.delta_omega, params.delta)
    # an overflow in B^2 or in the product of rates leaves disc non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        b = (delta_omega / 2.0 - 1j * delta) * k
        disc = b * b - (gamma0 * k) * (delta_omega * k)
    if not np.all(np.isfinite(disc)):
        raise ValueError(
            "gamma0, delta_omega (twice half_width) and delta: the decay rates overflow "
            "(a rate above about 7e154 cm^-1, or gamma0 * delta_omega above about 5e309 cm^-2)"
        )
    return b, np.sqrt(disc)


def _overflow(t) -> ValueError:
    """The refusal of a point whose decay exponent overflows at time ``t``."""
    return ValueError(
        "t and the rates gamma0, delta_omega (twice half_width) and delta: the decay exponent "
        f"B*t/2 or xi*t/2 overflows at t = {t:.12g} ps"
    )


def amplitude(params: ReservoirParams, t):
    """Survival amplitude u(t) of the excited qubit state; u(0) = 1, |u| <= 1.

    ``t`` is in picoseconds (scalar or array, finite and >= 0) and broadcasts
    against array-valued ``params``; the result has the broadcast shape,
    or is a Python complex when everything is scalar.  Scalar inputs take
    the array arithmetic too: a point's u is the same, bit for bit, whether
    it comes alone or inside an array call (of fewer than 16,384 points, see
    ``_ORACLE_BLOCK``).  The hyperbolic closed form is evaluated at every
    point, with -B and B/xi formed once per rate; for numerical robustness
    two branches then overwrite their own points: a series expansion around
    ``xi*t = 0`` (removable singularity), and a split-exponential form where
    cosh would overflow (both exponents then have non-positive real part).
    """
    t_in = np.asarray(t, dtype=float)
    if not np.all((t_in >= 0.0) & (t_in < np.inf)):
        raise ValueError("t must be finite and non-negative")
    b, xi = _decay_rates(params)
    # the rates are at least 1-D, so every point takes the array arithmetic;
    # the views serve the branches that copy out their own points
    tt, bv, xiv = np.broadcast_arrays(t_in, b, xi)

    # a rate times t beyond the double range leaves no exponent to evaluate
    with np.errstate(over="ignore", invalid="ignore"):
        x, bt = xi * tt / 2.0, -b * tt
        finite = np.isfinite(x) & np.isfinite(bt)
    if not finite.all():
        raise _overflow(tt[~finite][0])
    small = np.abs(x) < 5e-7
    big = x.real > 350.0  # so |x| > 350: never small

    decay = np.exp(bt / 2.0)
    # the hyperbolic form is inf or nan at some points the other branches
    # take (B/xi at xi = 0, cosh beyond 350); where every point is small, skip it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = np.empty_like(decay) if small.all() else decay * (np.cosh(x) + (b / xi) * np.sinh(x))
    if small.any():
        ts, xs, bs, xis, ds = tt[small], x[small], bv[small], xiv[small], decay[small]
        # cosh(x) ~ 1 + x^2/2, sinh(x)/xi ~ t/2 + xi^2 t^3/48; once the decay
        # has underflowed to 0 the cubic may overflow, and the limit is 0
        with np.errstate(over="ignore", invalid="ignore"):
            series = ds * (1.0 + xs * xs / 2.0 + bs * (ts / 2.0 + xis * xis * ts**3 / 48.0))
        u[small] = np.where(ds == 0.0, 0.0, series)
    if big.any():
        tb, bb, xib = tt[big], bv[big], xiv[big]
        with np.errstate(over="ignore", invalid="ignore"):
            slow, fast = (xib - bb) * tb / 2.0, -(xib + bb) * tb / 2.0
        finite = np.isfinite(slow) & np.isfinite(fast)
        if not finite.all():
            raise _overflow(tb[np.argmin(finite)])
        ratio = bb / xib
        u[big] = 0.5 * ((1.0 + ratio) * np.exp(slow) + (1.0 - ratio) * np.exp(fast))
    return _maybe_scalar(u, t_in, params.gamma0, params.delta_omega, params.delta)


# Grid intervals per pass of the oracle's scan (bounds its temporaries), and
# the run length of its first level, multiplied out one row at a time.
# ``check`` evaluates amplitude once per block, so the block must stay below
# 16,384 points, from which amplitude's last bit depends on the call size.
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
        for name in ("gamma0", "delta_omega", "delta"):
            shape = np.shape(getattr(p, name))
            if np.prod(shape) != 1:
                raise ValueError(f"the RK4 oracle integrates one reservoir per set, got {name} of shape {shape}")
        rates[0, i] = (p.gamma0 * k) * (p.delta_omega * k) / 4.0
        rates[1, i] = (p.delta_omega / 2.0 - 1j * p.delta) * k
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
    ``C = gamma0*delta_omega/4``, is rewritten as the local linear system

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


def _real(x):
    """``x`` as an array, and as floats, NaN where not a real number (a bool, a string, an int beyond 64 bits)."""
    x = np.asarray(x)
    return x, (np.asarray(x, dtype=float) if x.dtype.kind in "iuf" else np.full(x.shape, np.nan))


def _counts(n, name: str, low: int, high: float = np.inf):
    """The counts ``n`` as a float array of at least 1-D; refuses any value not a finite integer in ``low..high``."""
    n, count = _real(n)
    bad = ~np.isfinite(count) | (count != np.rint(count)) | (count < low) | (count > high)
    if bad.any():
        bounds = f">= {low}" if high == np.inf else f"in {low}..{high}"
        raise ValueError(f"{name} must be integers {bounds}, got {n[bad].tolist()[0]!r}")
    return np.atleast_1d(count)


def _weights(x, name: str):
    """The weights ``x`` as a float array of at least 1-D; refuses any value not a real number in [0, 1]."""
    weight = _real(x)[1]
    if not np.all((weight >= 0.0) & (weight <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return np.atleast_1d(weight)


def _maybe_scalar(value, *inputs):
    """``value`` on inputs made at least 1-D, or its one point as a Python scalar when every input is a scalar."""
    return value if any(np.ndim(x) for x in inputs) else value[0].item()


def survival(u):
    """Survival probability s = |u|^2 of the amplitude ``u``, capped at 1.

    Every observable reads ``u`` through s.  Refuses a non-finite ``u`` or
    |u| > 1 + 1e-9; a scalar ``u`` is a one-point call and gives a float.
    """
    modulus = np.abs(np.atleast_1d(u))
    worst = np.max(modulus, initial=0.0)
    if not worst <= 1.0 + _AMP_SLACK:
        raise ValueError(f"|u| must not exceed 1, got {worst:.12g}")
    return _maybe_scalar(np.minimum(1.0, modulus**2), u)


def population_difference(u):
    """Excited/ground population difference 2 s - 1 of the amplitude ``u``, in [-1, 1]."""
    return 2.0 * survival(u) - 1.0


def damping(u):
    """Channel damping parameter p = 1 - s of the amplitude ``u``, in [0, 1]."""
    return 1.0 - survival(u)
