"""Teleportation and information-splitting fidelities over a damping channel.

Closed forms for four protocols using GHZ or W-type resource states shared
among N parties, as functions of the amplitude-damping parameter p in
[0, 1].  All four equal 1 at p = 0 and reach the classical fidelity 2/3 at
p = 1; the W-type fidelities never drop below 2/3.  Composing with the
reservoir damping p(t) = 1 - |u(t)|^2 turns them into time traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reservoir import DEFAULT_UNITS, ReservoirParams, UnitSystem, damping

__all__ = [
    "PROTOCOLS",
    "FidelityCurve",
    "f_ghz_teleport",
    "f_w_teleport",
    "f_ghz_split",
    "f_w_split",
    "fidelity_vs_time",
]

PROTOCOLS = ("ghz_teleport", "w_teleport", "ghz_split", "w_split")


def _check_damping(p):
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("damping parameter p must lie in [0, 1]")
    return p


def _check_parties(n_parties):
    """An int, or a float array of integer values, all >= 2."""
    if np.ndim(n_parties):
        n = np.asarray(n_parties, dtype=float)
        bad = (n != np.rint(n)) | (n < 2)
        if bad.any():
            raise ValueError(f"n_parties must be integers >= 2, got {n[bad].flat[0]:g}")
        return n
    n = int(n_parties)
    if n != n_parties or n < 2:
        raise ValueError(f"n_parties must be an integer >= 2, got {n_parties!r}")
    return n


def _maybe_scalar(value):
    return value if np.ndim(value) else float(value)


def f_ghz_teleport(p, n_parties):
    """Teleportation fidelity with an N-party GHZ resource, input-averaged.

    ``n_parties`` is an int or an array of integer values broadcasting
    against ``p``.
    """
    n = _check_parties(n_parties)
    p = _check_damping(p)
    q = 1.0 - p
    # q**(n/2) as a real power of a non-negative base so odd N is defined
    value = (2.0 + q ** (n - 1) * (2.0 - p) + 2.0 * q ** (n / 2.0) + p ** (n - 1) * (1.0 + p)) / 6.0
    return _maybe_scalar(value)


def f_w_teleport(p):
    """Teleportation fidelity with the (N+1)-qubit W-type resource."""
    p = _check_damping(p)
    value = (3.0 - 2.0 * p + p**2) / 3.0
    return _maybe_scalar(value)


def f_ghz_split(p, n_parties):
    """Fidelity of splitting (teleport + decode) with a GHZ resource.

    ``n_parties`` broadcasts against ``p`` as in :func:`f_ghz_teleport`.
    """
    n = _check_parties(n_parties)
    p = _check_damping(p)
    q = 1.0 - p
    value = (2.0 - p * q + q ** (n / 2.0)) / 3.0
    return _maybe_scalar(value)


def f_w_split(p):
    """Fidelity of splitting with the W-type resource: 1 - p/3."""
    p = _check_damping(p)
    value = 1.0 - p / 3.0
    return _maybe_scalar(value)


@dataclass(frozen=True)
class FidelityCurve:
    """Sampled fidelity trace: time (ps), damping p and fidelity per sample."""

    protocol: str
    n_parties: int
    t: np.ndarray
    p_damp: np.ndarray
    fidelity: np.ndarray

    def samples(self) -> list[tuple[float, float, float]]:
        return list(zip(self.t.tolist(), self.p_damp.tolist(), self.fidelity.tolist()))


def fidelity_vs_time(
    protocol: str,
    params: ReservoirParams,
    n_parties: int,
    t_grid,
    units: UnitSystem = DEFAULT_UNITS,
) -> FidelityCurve:
    """Evaluate a protocol fidelity along a time grid via p(t) = 1 - |u(t)|^2."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly ascending")
    n = _check_parties(n_parties)
    p = damping(params, t, units)
    if protocol == "ghz_teleport":
        fid = f_ghz_teleport(p, n)
    elif protocol == "w_teleport":
        fid = f_w_teleport(p)
    elif protocol == "ghz_split":
        fid = f_ghz_split(p, n)
    elif protocol == "w_split":
        fid = f_w_split(p)
    else:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    return FidelityCurve(protocol=protocol, n_parties=n, t=t, p_damp=p, fidelity=fid)
