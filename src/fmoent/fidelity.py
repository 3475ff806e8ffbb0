"""Teleportation and information-splitting fidelities over a damping channel.

Closed forms for four protocols using GHZ or W-type resource states shared
among N parties, as functions of the amplitude-damping parameter p in
[0, 1].  All four equal 1 at p = 0 and reach the classical fidelity 2/3 at
p = 1; the W-type fidelities never drop below 2/3.  Composing with the
reservoir damping p(t) = 1 - |u(t)|^2 turns them into time traces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "f_ghz_teleport",
    "f_w_teleport",
    "f_ghz_split",
    "f_w_split",
]


def _check_damping(p):
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("damping parameter p must lie in [0, 1]")
    return p


def _check_parties(n_parties):
    """An int, or a float array of integer values, all >= 2 (so finite)."""
    if np.ndim(n_parties):
        n = np.asarray(n_parties, dtype=float)
        bad = ~np.isfinite(n) | (n != np.rint(n)) | (n < 2)
        if bad.any():
            raise ValueError(f"n_parties must be integers >= 2, got {n[bad].flat[0]:g}")
        return n
    try:
        n = int(n_parties)
    except (OverflowError, ValueError):  # inf, nan
        n = None
    if n is None or n != n_parties or n < 2:
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
