"""Dense complex linear algebra for n-qubit registers.

Conventions shared across the package:

* States and operators are plain numpy arrays (``complex128``); a register
  of ``n`` qubits lives in dimension ``2**n``.
* Qubit 0 is the *most significant* bit of a computational-basis index, so
  basis index ``i`` assigns qubit ``k`` the bit ``(i >> (n - 1 - k)) & 1``.

Everything here is a pure function over value-semantic inputs and is safe to
call from any number of concurrent workers.
"""

from __future__ import annotations

import numpy as np

from . import _PUBLIC

__all__ = _PUBLIC["qlin"]


def _as_register_operator(mat, n_qubits: int) -> np.ndarray:
    """Validate that ``mat`` is a square operator on ``n_qubits`` qubits."""
    a = np.asarray(mat)
    dim = 2**n_qubits
    if a.ndim != 2 or a.shape != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got shape {a.shape}"
        )
    return a


def _check_qubit_subset(subset, n_qubits: int) -> list[int]:
    qubits = sorted(set(int(q) for q in subset))
    if any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError(f"qubit indices {qubits} out of range for {n_qubits} qubits")
    return qubits


def partial_trace(rho, n_qubits: int, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Returns the reduced operator on the kept qubits, ordered by ascending
    original index.  The total trace is preserved.
    """
    rho = _as_register_operator(rho, n_qubits)
    kept = _check_qubit_subset(keep, n_qubits)
    tensor = rho.reshape([2] * (2 * n_qubits))
    row = list(range(n_qubits))
    col = list(range(n_qubits, 2 * n_qubits))
    for q in range(n_qubits):
        if q not in kept:
            col[q] = row[q]  # contract bra against ket index
    out = [row[q] for q in kept] + [col[q] for q in kept]
    reduced = np.einsum(tensor, row + col, out)
    dim = 2 ** len(kept)
    return np.asarray(reduced, dtype=complex).reshape(dim, dim)


def partial_transpose(rho, n_qubits: int, subset) -> np.ndarray:
    """Transpose the bra/ket indices of the qubits in ``subset``.

    An involution: applying it twice on the same subset returns the input.
    The trace is unchanged, and Hermitian inputs give Hermitian outputs.
    """
    rho = _as_register_operator(rho, n_qubits)
    qubits = _check_qubit_subset(subset, n_qubits)
    tensor = rho.reshape([2] * (2 * n_qubits))
    axes = list(range(2 * n_qubits))
    for q in qubits:
        axes[q], axes[n_qubits + q] = axes[n_qubits + q], axes[q]
    dim = 2**n_qubits
    return np.ascontiguousarray(tensor.transpose(axes)).reshape(dim, dim)
