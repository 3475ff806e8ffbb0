"""Closed-form entanglement of the decaying excitonic registers: what the scans evaluate.

The dense 2^N route (state builders, bipartition negativity, numeric
Meyer-Wallach), the oracle of these closed forms, lives with the tests in
``tests/dense.py``; the package does not ship it.
"""

from __future__ import annotations

import numpy as np

from . import _PUBLIC
from .reservoir import _counts, _maybe_scalar, _weights, survival

__all__ = _PUBLIC["entanglement"]

_NORM_ATOL = 1e-9  # largest accepted departure of a register's norm from 1


def _coefficients(a, b):
    """``a`` and ``b`` at least 1-D, refused unless a^2 + b^2 = 1 to 1e-12 everywhere (a NaN is refused)."""
    a, b = np.atleast_1d(a, b)
    if not np.all(np.abs(a * a + b * b - 1.0) <= 1e-12):
        raise ValueError("a^2 + b^2 must equal 1")
    return a, b


def w_mixture_entanglement(s, n_qubits):
    """Closed form of the dense ``global_entanglement`` for s|W><W| + (1-s)|0..0><0..0|.

    The mixture is permutation symmetric, so every m|N-m cut reduces to a
    two-qubit problem whose partial transpose has the single negative
    eigenvalue ``((1-s) - sqrt((1-s)^2 + 4 s^2 c)) / 2`` with
    ``c = m (N-m) / N^2`` (Vidal & Werner, PRA 65, 032314 (2002)).  It is
    evaluated in the cancellation-free form ``2 s^2 c / (sqrt(...) + (1-s))``,
    scaled by ``2 / (2^m - 1)`` and averaged over m = 1 .. floor(N/2) exactly
    as the dense route averages.  ``s`` in [0, 1] and the integer
    ``n_qubits`` in 2..12 broadcast against each other, and all-scalar
    arguments give a float; the reservoir side of a decaying W register is
    the same mixture with s -> 1 - s.  The dense route's state is
    ``dense.w_mixture_rho(s, n_qubits)``, which refuses as this form does.
    """
    inputs = (s, n_qubits)
    n, s = _counts(n_qubits, "n_qubits", 2, 12), _weights(s, "s")
    q = 1.0 - s
    half = n // 2
    total = np.zeros(np.broadcast_shapes(s.shape, n.shape))
    for m in range(1, int(half.max()) + 1):
        has_cut = m <= half
        # registers without an m-cut get a placeholder c > 0, then weight 0
        c = np.where(has_cut, m * (n - m), 1.0) / (n * n)
        cut = 2.0 * s * s * c / (np.sqrt(q * q + 4.0 * s * s * c) + q)
        total += np.where(has_cut, 2.0 / (2.0**m - 1.0) * cut, 0.0)
    return _maybe_scalar(total / half, *inputs)


def meyer_wallach_register(a, b, u):
    """Meyer-Wallach measure of the decaying two-exciton register, in closed form.

    Each qubit of the register (e1, e2, r1, r2) of a|00> + b|11> with shared
    amplitude ``u`` is diagonal, excited with probability b^2 s (excitons) or
    b^2 (1 - s) (reservoirs), s = |u|^2 capped at 1, so the mean linear
    entropy (Meyer & Wallach, J. Math. Phys. 43, 4273 (2002); Brennen, QIC 3,
    619 (2003)) is 2 b^2 [s (1 - b^2 s) + (1 - s)(1 - b^2 (1 - s))], evaluated
    without cancellation as 2 b^2 (1 - b^2) + 4 b^4 s (1 - s).  It refuses
    what the register route, ``dense.meyer_wallach_numeric`` of
    ``dense.x_state_register(a, b, u, u)``, refuses:
    a^2 + b^2 off 1 by more than 1e-12 (or NaN), a non-finite ``u`` or
    |u| > 1 + 1e-9, and a register norm off 1 by more than 1e-9.  Arguments
    broadcast; all-scalar arguments give a float.
    """
    inputs = (a, b, u)
    (a, b), u = _coefficients(a, b), np.atleast_1d(u)
    s = survival(u)
    # the register's norm a^2 + b^2 (|u|^2 + |v|^2)^2, |v|^2 = 1 - s, reads |u|^2 uncapped
    norm = np.sqrt(a * a + b * b * (np.abs(u) ** 2 + (1.0 - s)) ** 2)
    worst = np.max(np.abs(norm - 1.0))
    if not worst <= _NORM_ATOL:
        raise ValueError(f"state is not normalized (norm off by {worst:.3g})")
    bb = b * b
    return _maybe_scalar(2.0 * bb * (1.0 - bb) + 4.0 * bb * bb * s * (1.0 - s), *inputs)


def meyer_wallach_closed(a, b, u):
    """Published figure form of the Meyer-Wallach value: 2 a^2 b^2 + 4 b^2 s (1 - s), s = |u|^2.

    The closed form published for the two-exciton superposition with both
    qubits sharing ``u``, kept for figure reproduction.  It departs from the
    register it describes (:func:`meyer_wallach_register`) by
    ``4 b^2 (1 - b^2) s (1 - s)``, up to 0.25; the two agree at b = 1, the
    plotted case.  Unlike a Meyer-Wallach measure it is not bounded by 1:
    it peaks at 9/8 = 1.125, at b^2 = 3/4 and s = 1/2, and ``q_closed``
    prints such values as they are (1.00180541946 at b = 0.75, gamma0 = 1,
    half width 0.01 cm^-1, t = 48 ps).  It refuses the ``a``, ``b`` and ``u``
    the register refuses: a^2 + b^2 off 1 by more than 1e-12 (or NaN), a
    non-finite ``u`` or |u| > 1 + 1e-9.  Arguments broadcast; all-scalar
    arguments give a float.
    """
    aa, bb = (c * c for c in _coefficients(a, b))
    s = survival(np.atleast_1d(u))
    return _maybe_scalar(2.0 * aa * bb + 4.0 * bb * s * (1.0 - s), a, b, u)
