"""Teleportation and information-splitting fidelities over a damping channel.

Closed forms for four protocols using GHZ or W-type resource states shared
among N parties, as functions of the amplitude-damping parameter p in
[0, 1].  All four equal 1 at p = 0 and reach the classical fidelity 2/3 at
p = 1; the W-type fidelities never drop below 2/3.  Composing with the
reservoir damping p(t) = 1 - |u(t)|^2 turns them into time traces.
"""

from __future__ import annotations

from . import _PUBLIC
from .reservoir import _counts, _maybe_scalar, _weights

__all__ = _PUBLIC["fidelity"]


def f_ghz_teleport(p, n_parties):
    """Teleportation fidelity with an N-party GHZ resource, input-averaged.

    ``n_parties`` is an int or an array of integer values broadcasting
    against ``p``.
    """
    n, d = _counts(n_parties, "n_parties", 2), _weights(p, "damping parameter p")
    q = 1.0 - d
    # q**(n/2) as a real power of a non-negative base so odd N is defined
    value = (2.0 + q ** (n - 1) * (2.0 - d) + 2.0 * q ** (n / 2.0) + d ** (n - 1) * (1.0 + d)) / 6.0
    return _maybe_scalar(value, p, n_parties)


def f_w_teleport(p):
    """Teleportation fidelity with the (N+1)-qubit W-type resource."""
    d = _weights(p, "damping parameter p")
    value = (3.0 - 2.0 * d + d**2) / 3.0
    return _maybe_scalar(value, p)


def f_ghz_split(p, n_parties):
    """Fidelity of splitting (teleport + decode) with a GHZ resource.

    ``n_parties`` broadcasts against ``p`` as in :func:`f_ghz_teleport`.
    """
    n, d = _counts(n_parties, "n_parties", 2), _weights(p, "damping parameter p")
    q = 1.0 - d
    value = (2.0 - d * q + q ** (n / 2.0)) / 3.0
    return _maybe_scalar(value, p, n_parties)


def f_w_split(p):
    """Fidelity of splitting with the W-type resource: 1 - p/3."""
    d = _weights(p, "damping parameter p")
    value = 1.0 - d / 3.0
    return _maybe_scalar(value, p)
