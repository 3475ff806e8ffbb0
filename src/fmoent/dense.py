"""Dense 2^N route: the registers themselves, and their entanglement by linear algebra.

The oracle of the closed forms in :mod:`fmoent.entanglement`; no scan imports
it.  Negativities come from partial transposes and eigenvalues, Meyer-Wallach
values from single-qubit purities.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import _PUBLIC, qlin
from .entanglement import _NORM_ATOL, _coefficients
from .reservoir import _counts, _weights, damping

__all__ = _PUBLIC["dense"]


def _qubit_count(n_qubits, low: int = 1, high: float = math.inf) -> int:
    """The one count ``n_qubits`` as an int, refused unless an integer in ``low..high``."""
    return int(_counts(n_qubits, "n_qubits", low, high).item())


def enumerate_bipartitions(n_qubits: int) -> dict[int, list[tuple[int, ...]]]:
    """Nonequivalent bipartitions of ``n_qubits`` qubits (2 <= N <= 12) as ``{m: size-m subsets}``.

    ``result[m]`` lists the size-m subsets (tuples of qubit indices) for
    m = 1 .. N//2; for the even split m = N/2 only subsets containing qubit 0
    are kept, which halves the count to C(N, N/2)/2 and removes the double
    counting of complementary cuts.  The total count is 2**(N-1) - 1.
    """
    n = _qubit_count(n_qubits, 2, 12)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for m in range(1, n // 2 + 1):
        subsets = list(combinations(range(n), m))
        if 2 * m == n:
            subsets = [s for s in subsets if 0 in s]
        groups[m] = subsets
    return groups


def _require_density(rho, n_qubits: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    dim = 2**n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace {np.trace(rho):.3g} is not 1")
    if float(np.abs(rho - rho.conj().T).max()) > 1e-8:
        raise ValueError("density matrix is not Hermitian")
    return rho


def normalized_negativity(rho, n_qubits: int, subset) -> float:
    """Normalized negativity of one bipartition of a density matrix.

    Partially transposes the given subset (which must be the smaller side,
    m = |subset| <= N/2), sums the absolute values of the negative
    eigenvalues and scales by 2 / (2**m - 1) so a maximally entangled cut
    scores 1.  Which side is transposed does not change the eigenvalues.
    """
    rho = _require_density(rho, n_qubits)
    qubits = sorted(set(int(q) for q in subset))
    m = len(qubits)
    if m == 0:
        raise ValueError("subset must contain at least one qubit")
    if 2 * m > n_qubits:
        raise ValueError(
            f"subset size {m} exceeds half of {n_qubits} qubits; transpose the smaller side"
        )
    transposed = qlin.partial_transpose(rho, n_qubits, qubits)
    eigenvalues = np.linalg.eigvalsh(transposed)
    negative_sum = float(-eigenvalues[eigenvalues < 0.0].sum())
    return 2.0 / (2.0**m - 1.0) * negative_sum


def global_entanglement(rho, n_qubits: int) -> float:
    """Bipartition-averaged normalized negativity of an N-qubit state.

    Averages the normalized negativity first within each subset size m and
    then over m = 1 .. floor(N/2).
    """
    cuts = enumerate_bipartitions(n_qubits)
    rho = _require_density(rho, n_qubits)
    size_means = []
    for subsets in cuts.values():
        values = [normalized_negativity(rho, n_qubits, s) for s in subsets]
        size_means.append(sum(values) / len(values))
    return sum(size_means) / len(size_means)


def w_state(n_qubits: int) -> np.ndarray:
    """Single-excitation symmetric state over ``n_qubits`` qubits."""
    n = _qubit_count(n_qubits)
    psi = np.zeros(2**n, dtype=complex)
    for q in range(n):
        psi[1 << (n - 1 - q)] = 1.0 / math.sqrt(n)
    return psi


def ghz_state(n_qubits: int) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt(2) over ``n_qubits`` qubits."""
    n = _qubit_count(n_qubits)
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / math.sqrt(2)
    return psi


def w_mixture_rho(s, n_qubits=4) -> np.ndarray:
    """The state s|W><W| + (1 - s)|0...0><0...0| of :func:`fmoent.entanglement.w_mixture_entanglement`.

    A W register of ``n_qubits`` qubits that all decay with amplitude u
    leaves this mixture on its excitons with s = ``survival(u)``, and on its
    reservoirs with s = ``damping(u)``: distinct single-excitation reservoir
    states are orthogonal.  ``s`` is one weight in [0, 1] and ``n_qubits``
    an integer in 2..12, refused as the closed form refuses them, before
    the matrix is built.
    """
    n, weight = _qubit_count(n_qubits, 2, 12), _weights(s, "s")
    if weight.size != 1:
        raise ValueError(f"s must be one weight, got {weight.size} values")
    s = weight[0]
    w = w_state(n)
    rho = s * np.outer(w, w.conj())
    rho[0, 0] = 1.0 - s  # |W> has no |0...0> component
    return rho


def _x_state(a, b, u1, u2):
    """Broadcast shape, and v1, v2 = sqrt(1 - |u_i|^2), of a|00> + b|11> decaying with u1, u2.

    Refuses a^2 + b^2 off 1 and each u as :func:`fmoent.reservoir.survival`
    does, naming it.  The v_i are taken real and non-negative: no computed
    observable depends on their phase.
    """
    _coefficients(a, b)
    v = []
    for label, u in (("u1", u1), ("u2", u2)):
        try:
            v.append(np.sqrt(damping(u)))
        except ValueError as refusal:
            # survival owns the |u| rule; the message names the argument
            raise ValueError(str(refusal).replace("|u|", f"|{label}|")) from None
    return np.broadcast_shapes(*(np.shape(x) for x in (a, b, u1, u2))), *v


def x_state_rho(a, b, u1, u2) -> np.ndarray:
    """Two-qubit X-form density matrix of a|00> + b|11> with per-qubit amplitudes u1, u2.

    ``a`` and ``b`` are real with a^2 + b^2 = 1.  Populations f1..f4 mix
    the squared moduli of the survival and emission amplitudes; the only
    coherence sits on the |00><11| corner and carries conj(u1*u2).  The
    zero pattern (the X form) is preserved for all times.  Arguments
    broadcast, one 4x4 matrix per element: shape ``(..., 4, 4)``.
    """
    shape, v1, v2 = _x_state(a, b, u1, u2)
    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = a**2 + b**2 * v1**2 * v2**2
    rho[..., 1, 1] = b**2 * v1**2 * abs(u2) ** 2
    rho[..., 2, 2] = b**2 * abs(u1) ** 2 * v2**2
    rho[..., 3, 3] = b**2 * abs(u1) ** 2 * abs(u2) ** 2
    rho[..., 0, 3] = a * b * np.conj(u1 * u2)
    rho[..., 3, 0] = np.conj(rho[..., 0, 3])
    return rho


def x_state_register(a, b, u1, u2) -> np.ndarray:
    """Four-qubit purification (e1, e2, r1, r2) of :func:`x_state_rho`'s state.

    Each excited component sheds amplitude into its own reservoir qubit;
    tracing out qubits 2 and 3 recovers :func:`x_state_rho`.  Arguments
    broadcast, one register per element: shape ``(..., 16)``.
    """
    shape, v1, v2 = _x_state(a, b, u1, u2)
    psi = np.zeros(shape + (16,), dtype=complex)
    psi[..., 0b0000] = a
    psi[..., 0b1100] = b * u1 * u2
    psi[..., 0b1001] = b * u1 * v2
    psi[..., 0b0110] = b * v1 * u2
    psi[..., 0b0011] = b * v1 * v2
    return psi


def _require_normalized_state(psi) -> tuple[np.ndarray, int]:
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    length = psi.shape[-1]
    n = int(round(math.log2(length))) if length else 0
    if n < 1 or 2**n != length:
        raise ValueError(f"state length {length} is not a power of two >= 2")
    norm = np.linalg.norm(psi, axis=-1)
    worst = float(np.max(np.abs(norm - 1.0)))
    if not worst <= _NORM_ATOL:
        raise ValueError(f"state is not normalized (norm off by {worst:.3g})")
    return psi, n


def meyer_wallach_numeric(psi):
    """Meyer-Wallach measure of a normalized pure state.

    Averages 2*(1 - Tr rho_k^2) over every single-qubit reduced state;
    0 for product states, 1 when every qubit is maximally mixed.  ``psi``
    may carry leading batch axes (shape ``(..., 2**n)``); the result then
    has the batch shape, one value per state.  Each rho_k is built from the
    state vector reshaped to put qubit k first, so no 2^n x 2^n matrix is
    formed.
    """
    psi, n = _require_normalized_state(psi)
    batch = psi.shape[:-1]
    tensor = psi.reshape(batch + (2,) * n)
    total = 0.0
    for k in range(n):
        split = np.moveaxis(tensor, len(batch) + k, len(batch)).reshape(batch + (2, -1))
        up, down = split[..., 0, :], split[..., 1, :]
        r00 = np.sum(np.abs(up) ** 2, axis=-1)
        r11 = np.sum(np.abs(down) ** 2, axis=-1)
        r01 = np.sum(up * down.conj(), axis=-1)
        purity = r00**2 + r11**2 + 2.0 * np.abs(r01) ** 2
        total = total + 2.0 * (1.0 - purity)
    value = total / n
    return value if batch else float(value)
