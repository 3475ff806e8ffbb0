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

__all__ = [
    "partial_trace",
    "partial_transpose",
    "hermitian_eigen",
]


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


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's global phase so its largest-magnitude component is real > 0.

    Every column must be nonzero (eigenvectors are unit vectors).
    """
    columns = np.arange(vectors.shape[1])
    pivot_rows = np.argmax(np.abs(vectors), axis=0)
    pivots = vectors[pivot_rows, columns]
    fixed = vectors * (pivots.conjugate() / np.abs(pivots))
    # clear the rounding residue on the pivots themselves
    fixed[pivot_rows, columns] = np.abs(fixed[pivot_rows, columns])
    return fixed


def hermitian_eigen(m):
    """Full eigendecomposition of a Hermitian matrix, in a fixed convention.

    LAPACK (``numpy.linalg.eigh``) does the work; the convention makes the
    result deterministic: eigenvalues are returned ascending, and every
    eigenvector is phased so that its largest-magnitude component is real
    and positive.  Exact eigenvalue ties are broken by component-wise
    comparison of the phased eigenvectors (larger leading components first).

    Parameters
    ----------
    m : array_like
        Hermitian matrix (violations beyond ``1e-10`` relative to the largest
        entry are rejected).

    Returns
    -------
    (eigenvalues, eigenvectors)
        ``eigenvalues`` is a real array in ascending order; column ``k`` of
        ``eigenvectors`` is the unit eigenvector for ``eigenvalues[k]``.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    entry_scale = max(1.0, float(np.abs(a).max()) if n else 1.0)
    if float(np.abs(a - a.conj().T).max()) > 1e-10 * entry_scale:
        raise ValueError("matrix is not Hermitian within tolerance")

    evals, vec = np.linalg.eigh((a + a.conj().T) / 2.0)
    vec = _phase_fix(vec)
    if not np.any(np.diff(evals) == 0.0):
        return evals, vec  # eigh returns them ascending; no ties to break

    def _tie_key(k: int):
        col = vec[:, k]
        return (evals[k],) + tuple((-c.real, -c.imag) for c in col)

    order = sorted(range(n), key=_tie_key)
    return evals[order], vec[:, order]
