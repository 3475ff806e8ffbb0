"""Lorentzian phonon reservoir and the excited-state survival amplitude u(t).

An excitonic two-level qubit coupled to a reservoir with Lorentzian spectral
density (strength ``gamma0``, half width lambda = ``half_width``, peak
detuning ``delta``, all cm^-1) decays with a survival amplitude

    u(t) = exp(-B t / 2) * [cosh(xi t / 2) + (B / xi) sinh(xi t / 2)],
    B = lambda - i*delta,   xi = sqrt(B^2 - 2*gamma0*lambda),

the exact solution of the exponential-memory integro-differential equation
with kernel prefactor ``gamma0*lambda/2`` and u(0) = 1.  All cm^-1
rates are converted to angular frequencies (rad/ps) before evaluation so
that times are in picoseconds.

The broad-reservoir limit (``half_width >> gamma0``) gives memoryless
exponential decay; the opposite regime gives oscillatory decay where |u|
crosses zero and revives.

This module also owns the closed forms' input rules: what |u| means
(:func:`survival`), what a count and a weight in [0, 1] are, and that a
scalar call is a one-point array call.
"""

from __future__ import annotations

import numpy as np

from . import _PUBLIC, CM1_TO_RAD_PER_PS, _real, _Record

__all__ = _PUBLIC["reservoir"]

_AMP_SLACK = 1e-9  # |u| may exceed 1 by rounding in amplitude(); beyond that it is refused
_SHOWN = 500  # characters of a refused value shown in its refusal

# The closed form's array arithmetic calls the ufuncs by name, never through
# an operator: from 256 KiB (16,384 complex values) up, numpy computes an
# operator expression in place in its temporaries, whose complex loops can
# round the last bit differently, so a point's u would depend on the call size.
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide


class ReservoirParams(_Record):
    """Lorentzian reservoir triple (cm^-1), scalars or broadcastable arrays.

    ``gamma0`` sets the exciton relaxation scale (relaxation time 1/gamma0),
    ``half_width`` is the Lorentzian's half width at half maximum (reservoir
    correlation time 1/half_width), ``delta`` detunes the Lorentzian peak
    from the exciton transition frequency; every computed observable depends
    on the detuning alone, not on the transition frequency itself.
    ``half_width`` and ``delta`` are keyword-only.  Each field must be real
    (not a bool or a string) and finite, and ``gamma0`` and ``half_width``
    positive; anything else is refused with a ValueError naming the field and
    the value as given.  A scalar field is kept as given, an array field as a
    read-only copy, so the checked values are the ones ``amplitude`` reads.
    """

    __slots__ = ("gamma0", "half_width", "delta")

    def __init__(self, gamma0: float, *, half_width: float, delta: float = 0.0):
        for name, field in (("gamma0", gamma0), ("half_width", half_width), ("delta", delta)):
            if isinstance(field, np.ndarray) or np.ndim(field):
                field = np.array(field)
                field.setflags(write=False)
            given, value = _real(field)
            finite = np.isfinite(value)
            if not finite.all():
                raise ValueError(f"{name} must be finite and real, got {_shown(given, ~finite)}")
            if name != "delta" and not (value > 0).all():
                raise ValueError(f"{name} must be positive, got {_shown(given, value <= 0)}")
            object.__setattr__(self, name, field)


def _decay_rates(params: ReservoirParams):
    """Return (B, xi) in rad/ps for the closed-form amplitude.

    Both are complex arrays of the parameters' broadcast shape, and of shape
    (1,) for scalar parameters: every input takes numpy's array arithmetic in
    doubles, as ``t`` does, so a point's rates do not depend on how its
    parameters were passed.  Rates whose squares or product overflow are
    refused.
    """
    k = CM1_TO_RAD_PER_PS
    fields = (params.gamma0, params.half_width, params.delta)
    gamma0, half_width, delta = (np.array(x, dtype=float, ndmin=1) for x in fields)
    # an overflow in B^2 or in the product of rates leaves disc non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        b = _mul(_sub(half_width, _mul(1j, delta)), k)
        disc = _sub(_mul(b, b), _mul(_mul(gamma0, k), _mul(_mul(2.0, half_width), k)))
    if not np.all(np.isfinite(disc)):
        raise ValueError(
            "gamma0, half_width and delta: the decay rates overflow "
            "(a rate above about 7e154 cm^-1, or gamma0 * half_width above about 2.5e309 cm^-2)"
        )
    return b, np.sqrt(disc)


def _overflow(t) -> ValueError:
    """The refusal of a point whose decay exponent overflows at time ``t``."""
    return ValueError(
        "t and the rates gamma0, half_width and delta: the decay exponent "
        f"B*t/2 or xi*t/2 overflows at t = {t:.12g} ps"
    )


def amplitude(params: ReservoirParams, t):
    """Survival amplitude u(t) of the excited qubit state; u(0) = 1, |u| <= 1.

    ``t`` is in picoseconds (scalar or array, finite and >= 0) and broadcasts
    against array-valued ``params``; the result has the broadcast shape,
    or is a Python complex when everything is scalar.  Scalar inputs take
    the array arithmetic too: a point's u is the same, bit for bit, whether
    it comes alone or inside an array call of any size.  The hyperbolic
    closed form is evaluated at every point, with -B and B/xi formed once
    per rate; for numerical robustness two branches then overwrite their
    own points: a series expansion around ``xi*t = 0`` (removable
    singularity), and a split-exponential form where cosh would overflow
    (both exponents then have non-positive real part).
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
        x, bt = _div(_mul(xi, tt), 2.0), _mul(np.negative(b), tt)
        finite = np.isfinite(x) & np.isfinite(bt)
    if not finite.all():
        raise _overflow(tt[~finite][0])
    small = np.abs(x) < 5e-7
    big = x.real > 350.0  # so |x| > 350: never small

    decay = np.exp(_div(bt, 2.0))
    # the hyperbolic form is inf or nan at some points the other branches
    # take (B/xi at xi = 0, cosh beyond 350); where every point is small, skip it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = np.empty_like(decay) if small.all() else _mul(decay, _add(np.cosh(x), _mul(_div(b, xi), np.sinh(x))))
    if small.any():
        ts, xs, bs, xis, ds = tt[small], x[small], bv[small], xiv[small], decay[small]
        # cosh(x) ~ 1 + x^2/2, sinh(x)/xi ~ t/2 + xi^2 t^3/48; once the decay
        # has underflowed to 0 the cubic may overflow, and the limit is 0
        with np.errstate(over="ignore", invalid="ignore"):
            cubic = _div(_mul(_mul(xis, xis), np.power(ts, 3)), 48.0)
            series = _mul(ds, _add(_add(1.0, _div(_mul(xs, xs), 2.0)), _mul(bs, _add(_div(ts, 2.0), cubic))))
        u[small] = np.where(ds == 0.0, 0.0, series)
    if big.any():
        tb, bb, xib = tt[big], bv[big], xiv[big]
        with np.errstate(over="ignore", invalid="ignore"):
            slow, fast = _div(_mul(_sub(xib, bb), tb), 2.0), _div(_mul(np.negative(_add(xib, bb)), tb), 2.0)
        finite = np.isfinite(slow) & np.isfinite(fast)
        if not finite.all():
            raise _overflow(tb[np.argmin(finite)])
        ratio = _div(bb, xib)
        u[big] = _mul(0.5, _add(_mul(_add(1.0, ratio), np.exp(slow)), _mul(_sub(1.0, ratio), np.exp(fast))))
    return _maybe_scalar(u, t_in, params.gamma0, params.half_width, params.delta)


def _shown(given, bad, count: bool = False) -> str:
    """The first value of ``given`` where ``bad``, for a refusal: its ``repr``, cut after ``_SHOWN`` characters.

    An int of more than ``3 * _SHOWN`` bits (so more than about 450 digits)
    shows its size instead: ``repr`` refuses an int of over 4,300 digits.
    A ``count`` that is a float holding an exact integer (below 2**53 in
    magnitude) shows as that integer: 13, not 13.0.
    """
    value = given[bad].tolist()[0]
    if count and isinstance(value, float) and value.is_integer() and abs(value) < 2.0**53:
        value = int(value)
    if isinstance(value, int) and value.bit_length() > 3 * _SHOWN:
        return f"an int of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"


def _counts(n, name: str, low: int, high: float = np.inf):
    """The counts ``n`` as a float array of at least 1-D; refuses any value not a finite integer in ``low..high``."""
    n, count = _real(n)
    bad = ~np.isfinite(count) | (count != np.rint(count)) | (count < low) | (count > high)
    if bad.any():
        bounds = f">= {low}" if high == np.inf else f"in {low}..{high}"
        raise ValueError(f"{name} must be integers {bounds}, got {_shown(n, bad, count=True)}")
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
