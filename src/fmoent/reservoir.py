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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CM1_TO_RAD_PER_PS",
    "UnitSystem",
    "DEFAULT_UNITS",
    "ReservoirParams",
    "spectral_density",
    "amplitude",
    "amplitude_ode_oracle",
    "population_difference",
    "damping",
]

# 2*pi*c * (1 ps) with c = 0.0299792458 cm/ps, fixed to 11 significant digits.
CM1_TO_RAD_PER_PS = 0.18836515673


@dataclass(frozen=True)
class UnitSystem:
    """Conversion from cm^-1 rates to rad/ps; configurable for unit probes."""

    angular_conversion: float = CM1_TO_RAD_PER_PS


DEFAULT_UNITS = UnitSystem()


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian reservoir triple (cm^-1), scalars or broadcastable arrays.

    ``gamma0`` sets the exciton relaxation scale (relaxation time 1/gamma0),
    ``delta_omega`` is the full width at half maximum (reservoir correlation
    time 2/delta_omega), ``delta`` detunes the Lorentzian peak from the
    exciton transition frequency ``omega0``.  ``omega0`` is retained for
    documentation only; every computed observable depends on the detuning
    alone.
    """

    gamma0: float
    delta_omega: float
    delta: float = 0.0
    omega0: float = 12210.0

    def __post_init__(self):
        for name in ("gamma0", "delta_omega", "delta"):
            value = np.asarray(getattr(self, name), dtype=float)
            finite = np.isfinite(value)
            if not finite.all():
                raise ValueError(f"{name} must be finite, got {value[~finite].flat[0]}")
            if name != "delta" and not (value > 0).all():
                raise ValueError(f"{name} must be positive, got {value[value <= 0].flat[0]}")

    @classmethod
    def from_half_width(
        cls, gamma0: float, half_width: float, delta: float = 0.0, omega0: float = 12210.0
    ) -> "ReservoirParams":
        """Build from the half width delta_omega/2 used on most figure axes."""
        return cls(gamma0=gamma0, delta_omega=2.0 * half_width, delta=delta, omega0=omega0)

    @property
    def half_width(self) -> float:
        return self.delta_omega / 2.0


def spectral_density(params: ReservoirParams, omega):
    """Lorentzian coupling density J(omega), peaked at omega0 - delta.

    The peak value is gamma0 / 2*pi and the full width at half maximum is
    delta_omega; integrating over the whole real line gives
    gamma0 * delta_omega / 4.
    """
    omega = np.asarray(omega, dtype=float)
    half = params.delta_omega / 2.0
    peak = params.omega0 - params.delta
    out = (params.gamma0 / (2.0 * math.pi)) * half**2 / ((peak - omega) ** 2 + half**2)
    return out if out.ndim else float(out)


def _decay_rates(params: ReservoirParams, units: UnitSystem):
    """Return (B, xi) in rad/ps for the closed-form amplitude.

    Scalar parameters give Python complex numbers; array parameters give
    complex arrays of their broadcast shape.
    """
    k = units.angular_conversion
    b = (params.delta_omega / 2.0 - 1j * params.delta) * k
    disc = b * b - (params.gamma0 * k) * (params.delta_omega * k)
    if np.ndim(disc):
        return b, np.sqrt(disc)
    return b, complex(np.sqrt(complex(disc)))


def _select(rate, mask):
    """The masked entries of a per-point rate; a scalar rate applies to all."""
    return rate[mask] if np.ndim(rate) else rate


def amplitude(params: ReservoirParams, t, units: UnitSystem = DEFAULT_UNITS):
    """Survival amplitude u(t) of the excited qubit state; u(0) = 1, |u| <= 1.

    ``t`` is in picoseconds (scalar or array, must be >= 0) and broadcasts
    against array-valued ``params``; the result has the broadcast shape,
    or is a Python complex when everything is scalar.  The evaluation
    is piecewise for numerical robustness: a series expansion around
    ``xi*t = 0`` (removable singularity), the hyperbolic closed form at
    moderate arguments, and a split-exponential form when cosh would
    overflow (both exponents then have non-positive real part).
    """
    t_in = np.asarray(t, dtype=float)
    if not np.all(t_in >= 0.0):
        raise ValueError("t must be non-negative")
    b, xi = _decay_rates(params, units)
    # xi depends on every parameter, so its shape is theirs broadcast
    shape = np.broadcast_shapes(t_in.shape, np.shape(xi))
    tt = np.broadcast_to(t_in, shape).ravel()
    if np.ndim(xi):
        b = np.broadcast_to(b, shape).ravel()
        xi = np.broadcast_to(xi, shape).ravel()

    x = xi * tt / 2.0
    small = np.abs(x) < 5e-7
    big = ~small & (x.real > 350.0)
    mid = ~small & ~big

    u = np.empty(tt.shape, dtype=complex)
    if small.any():
        ts, xs, bs, xis = tt[small], x[small], _select(b, small), _select(xi, small)
        # cosh(x) ~ 1 + x^2/2, sinh(x)/xi ~ t/2 + xi^2 t^3/48
        u[small] = np.exp(-bs * ts / 2.0) * (
            1.0 + xs * xs / 2.0 + bs * (ts / 2.0 + xis * xis * ts**3 / 48.0)
        )
    if mid.any():
        tm, xm, bm = tt[mid], x[mid], _select(b, mid)
        u[mid] = np.exp(-bm * tm / 2.0) * (np.cosh(xm) + (bm / _select(xi, mid)) * np.sinh(xm))
    if big.any():
        tb, bb, xib = tt[big], _select(b, big), _select(xi, big)
        ratio = bb / xib
        u[big] = 0.5 * (
            (1.0 + ratio) * np.exp((xib - bb) * tb / 2.0)
            + (1.0 - ratio) * np.exp(-(xib + bb) * tb / 2.0)
        )
    return complex(u[0]) if not shape else u.reshape(shape)


def amplitude_ode_oracle(
    params: ReservoirParams,
    t_grid,
    *,
    max_step: float = 1e-4,
    kernel: str = "matched",
    units: UnitSystem = DEFAULT_UNITS,
) -> np.ndarray:
    """Integrate the memory-kernel equation for u(t) numerically.

    The convolution with an exponential kernel ``C * exp(-B*(t - s))`` is
    rewritten as the local system

        du/dt = -C*z,    dz/dt = u - B*z,    u(0) = 1, z(0) = 0,

    and advanced with classical fixed-step fourth-order Runge-Kutta using
    steps no longer than ``max_step`` (ps), landing exactly on every grid
    point.  This is an independent check of :func:`amplitude`, not a faster
    path.

    ``kernel`` selects the prefactor C: ``"matched"`` uses
    ``gamma0*delta_omega/4``, for which the closed form is the exact
    solution; ``"detuned"`` uses ``(gamma0/2)*(delta_omega/2 - i*delta)``,
    an alternative convention that coincides with the first at zero
    detuning.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("t_grid must be strictly ascending and start at t >= 0")
    if not max_step > 0.0:
        raise ValueError("max_step must be positive")

    k = units.angular_conversion
    b = (params.delta_omega / 2.0 - 1j * params.delta) * k
    if kernel == "matched":
        c = (params.gamma0 * k) * (params.delta_omega * k) / 4.0 + 0j
    elif kernel == "detuned":
        c = (params.gamma0 * k / 2.0) * b
    else:
        raise ValueError(f"kernel must be 'matched' or 'detuned', got {kernel!r}")

    u = 1.0 + 0.0j
    z = 0.0 + 0.0j
    t_now = 0.0
    out = np.empty(grid.size, dtype=complex)
    for i, t_target in enumerate(grid):
        span = float(t_target) - t_now
        if span > 0.0:
            n_steps = max(1, math.ceil(span / max_step))
            h = span / n_steps
            for _ in range(n_steps):
                du1 = -c * z
                dz1 = u - b * z
                u2 = u + 0.5 * h * du1
                z2 = z + 0.5 * h * dz1
                du2 = -c * z2
                dz2 = u2 - b * z2
                u3 = u + 0.5 * h * du2
                z3 = z + 0.5 * h * dz2
                du3 = -c * z3
                dz3 = u3 - b * z3
                u4 = u + h * du3
                z4 = z + h * dz3
                du4 = -c * z4
                dz4 = u4 - b * z4
                u += h / 6.0 * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
                z += h / 6.0 * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
            t_now = float(t_target)
        out[i] = u
    return out


def population_difference(params: ReservoirParams, t, units: UnitSystem = DEFAULT_UNITS):
    """Excited/ground population difference 2|u(t)|^2 - 1, in [-1, 1]."""
    u = amplitude(params, t, units)
    return 2.0 * np.abs(u) ** 2 - 1.0


def damping(params: ReservoirParams, t, units: UnitSystem = DEFAULT_UNITS):
    """Channel damping parameter p = 1 - |u(t)|^2, clipped to [0, 1]."""
    u = amplitude(params, t, units)
    p = np.clip(1.0 - np.abs(u) ** 2, 0.0, 1.0)
    return p if np.ndim(p) else float(p)
