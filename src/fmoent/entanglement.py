"""Multipartite entanglement measures for decaying excitonic qubit registers.

Two families of quantifiers:

* A global measure built from the normalized negativity, averaged over all
  nonequivalent bipartitions of an N-qubit density matrix (2**(N-1) - 1
  cuts in total), with a closed form for the decaying W mixture.
* The Meyer-Wallach measure of a pure multiqubit state, both evaluated
  numerically from single-qubit purities and as a closed form for the
  evolving two-exciton superposition state.

State builders cover the single-excitation W register decaying into
independent reservoirs (closed-form reduced states for excitons and
reservoirs) and the two-exciton X-form density matrix with its four-qubit
purification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import qlin

__all__ = [
    "BipartitionSet",
    "WStateParams",
    "XStateParams",
    "enumerate_bipartitions",
    "normalized_negativity",
    "global_entanglement",
    "w_mixture_entanglement",
    "w_state",
    "ghz_state",
    "w_state_exciton_rho",
    "w_state_reservoir_rho",
    "x_state_rho",
    "x_state_register",
    "meyer_wallach_numeric",
    "meyer_wallach_closed",
]

_TRACE_ATOL = 1e-8
_HERM_ATOL = 1e-8
_AMP_SLACK = 1e-9  # |u| may exceed 1 by rounding when fed from amplitude()


@dataclass(frozen=True)
class BipartitionSet:
    """Canonical nonequivalent bipartitions of an N-qubit register.

    ``groups[m]`` lists the size-m subsets (tuples of qubit indices); for
    the even split m = N/2 only subsets containing qubit 0 are kept, which
    halves the count to C(N, N/2)/2 and removes the double counting of
    complementary cuts.
    """

    n_qubits: int
    groups: dict[int, list[tuple[int, ...]]]

    @property
    def total(self) -> int:
        return sum(len(subsets) for subsets in self.groups.values())

    def counts(self) -> dict[int, int]:
        return {m: len(subsets) for m, subsets in self.groups.items()}


def enumerate_bipartitions(n_qubits: int) -> BipartitionSet:
    """All nonequivalent bipartitions of ``n_qubits`` qubits (2 <= N <= 12).

    The total count is 2**(N-1) - 1.
    """
    n = int(n_qubits)
    if not 2 <= n <= 12:
        raise ValueError(f"n_qubits must be in 2..12, got {n_qubits}")
    groups: dict[int, list[tuple[int, ...]]] = {}
    for m in range(1, n // 2 + 1):
        subsets = list(combinations(range(n), m))
        if 2 * m == n:
            subsets = [s for s in subsets if 0 in s]
        groups[m] = subsets
    return BipartitionSet(n_qubits=n, groups=groups)


def _require_density(rho, n_qubits: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    dim = 2**n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > _TRACE_ATOL:
        raise ValueError(f"density matrix trace {np.trace(rho):.3g} is not 1")
    if float(np.abs(rho - rho.conj().T).max()) > _HERM_ATOL:
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
    eigenvalues, _ = qlin.hermitian_eigen(transposed)
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
    for subsets in cuts.groups.values():
        values = [normalized_negativity(rho, n_qubits, s) for s in subsets]
        size_means.append(sum(values) / len(values))
    return sum(size_means) / len(size_means)


def w_mixture_entanglement(s, n_qubits):
    """Closed form of :func:`global_entanglement` for s|W><W| + (1-s)|0..0><0..0|.

    The mixture is permutation symmetric, so every m|N-m cut reduces to a
    two-qubit problem whose partial transpose has the single negative
    eigenvalue ``((1-s) - sqrt((1-s)^2 + 4 s^2 c)) / 2`` with
    ``c = m (N-m) / N^2`` (Vidal & Werner, PRA 65, 032314 (2002)).  It is
    evaluated in the cancellation-free form ``2 s^2 c / (sqrt(...) + (1-s))``,
    scaled by ``2 / (2^m - 1)`` and averaged over m = 1 .. floor(N/2) exactly
    as :func:`global_entanglement` averages.  ``s`` in [0, 1] and the integer
    ``n_qubits`` in 2..12 broadcast against each other; the reservoir side of
    a decaying W register is the same mixture with s -> 1 - s.
    """
    s = np.asarray(s, dtype=float)
    n_in = np.asarray(n_qubits, dtype=float)
    n = np.rint(n_in)
    bad = (n != n_in) | (n < 2) | (n > 12)
    if bad.any():
        raise ValueError(f"n_qubits must be integers in 2..12, got {n_in[bad].flat[0]:g}")
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("s must lie in [0, 1]")
    q = 1.0 - s
    half = n // 2
    total = np.zeros(np.broadcast_shapes(s.shape, n.shape))
    for m in range(1, int(half.max()) + 1):
        has_cut = m <= half
        # registers without an m-cut get a placeholder c > 0, then weight 0
        c = np.where(has_cut, m * (n - m), 1.0) / (n * n)
        cut = 2.0 * s * s * c / (np.sqrt(q * q + 4.0 * s * s * c) + q)
        total += np.where(has_cut, 2.0 / (2.0**m - 1.0) * cut, 0.0)
    value = total / half
    return value if value.ndim else float(value)


def w_state(n_qubits: int) -> np.ndarray:
    """Single-excitation symmetric state over ``n_qubits`` qubits."""
    n = int(n_qubits)
    if n < 1:
        raise ValueError("n_qubits must be >= 1")
    psi = np.zeros(2**n, dtype=complex)
    for q in range(n):
        psi[1 << (n - 1 - q)] = 1.0 / math.sqrt(n)
    return psi


def ghz_state(n_qubits: int, alpha: complex = 1 / math.sqrt(2), beta: complex = 1 / math.sqrt(2)) -> np.ndarray:
    """alpha |0...0> + beta |1...1> over ``n_qubits`` qubits."""
    n = int(n_qubits)
    if n < 1:
        raise ValueError("n_qubits must be >= 1")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = alpha
    psi[-1] = beta
    return psi


@dataclass(frozen=True)
class WStateParams:
    """Survival amplitude shared by every qubit of a decaying W register."""

    u: complex
    n_qubits: int = 4

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if abs(self.u) > 1.0 + _AMP_SLACK:
            raise ValueError(f"|u| must not exceed 1, got {abs(self.u):.6g}")

    @property
    def survival_probability(self) -> float:
        return min(1.0, abs(self.u) ** 2)


def _ground_projector(n_qubits: int) -> np.ndarray:
    rho = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def w_state_exciton_rho(params: WStateParams) -> np.ndarray:
    """Reduced exciton state of a W register with every qubit decaying.

    Tracing the reservoirs out of the evolved register leaves the mixture
    |u|^2 |W><W| + (1 - |u|^2) |0...0><0...0| because distinct
    single-excitation reservoir states are orthogonal.
    """
    surv = params.survival_probability
    w = w_state(params.n_qubits)
    return surv * np.outer(w, w.conj()) + (1.0 - surv) * _ground_projector(params.n_qubits)


def w_state_reservoir_rho(params: WStateParams) -> np.ndarray:
    """Reduced reservoir state: the exciton mixture with |u|^2 <-> 1 - |u|^2."""
    surv = params.survival_probability
    w = w_state(params.n_qubits)
    return (1.0 - surv) * np.outer(w, w.conj()) + surv * _ground_projector(params.n_qubits)


@dataclass(frozen=True)
class XStateParams:
    """Two-exciton superposition a|00> + b|11> with per-qubit amplitudes u1, u2.

    ``a`` and ``b`` are real with a^2 + b^2 = 1; the emitted amplitudes
    v_i = sqrt(1 - |u_i|^2) are taken real and non-negative (no computed
    observable depends on their phase).  Fields may be broadcastable arrays,
    one state per element, for :func:`x_state_register`.
    """

    a: float
    b: float
    u1: complex
    u2: complex

    def __post_init__(self):
        if np.any(np.abs(self.a**2 + self.b**2 - 1.0) > 1e-12):
            raise ValueError("a^2 + b^2 must equal 1")
        for label, u in (("u1", self.u1), ("u2", self.u2)):
            modulus = np.max(np.abs(u))
            if modulus > 1.0 + _AMP_SLACK:
                raise ValueError(f"|{label}| must not exceed 1, got {modulus:.6g}")

    def emitted(self):
        v1 = np.sqrt(np.maximum(0.0, 1.0 - np.abs(self.u1) ** 2))
        v2 = np.sqrt(np.maximum(0.0, 1.0 - np.abs(self.u2) ** 2))
        return v1, v2


def x_state_rho(params: XStateParams) -> np.ndarray:
    """Two-qubit X-form density matrix of the decaying two-exciton state.

    Populations f1..f4 mix the squared moduli of the survival and emission
    amplitudes; the only coherence sits on the |00><11| corner and carries
    conj(u1*u2).  The zero pattern (the X form) is preserved for all times.
    """
    v1, v2 = params.emitted()
    a, b, u1, u2 = params.a, params.b, params.u1, params.u2
    f1 = a**2 + b**2 * v1**2 * v2**2
    f2 = b**2 * v1**2 * abs(u2) ** 2
    f3 = b**2 * abs(u1) ** 2 * v2**2
    f4 = b**2 * abs(u1) ** 2 * abs(u2) ** 2
    f5 = a * b * (u1 * u2).conjugate()
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = f1
    rho[1, 1] = f2
    rho[2, 2] = f3
    rho[3, 3] = f4
    rho[0, 3] = f5
    rho[3, 0] = f5.conjugate()
    return rho


def x_state_register(params: XStateParams) -> np.ndarray:
    """Four-qubit purification (e1, e2, r1, r2) of the X-form state.

    Each excited component sheds amplitude into its own reservoir qubit;
    tracing out qubits 2 and 3 recovers :func:`x_state_rho`.  Array-valued
    params give one register per element along the leading axes.
    """
    v1, v2 = params.emitted()
    a, b, u1, u2 = params.a, params.b, params.u1, params.u2
    shape = np.broadcast_shapes(*(np.shape(x) for x in (a, b, u1, u2)))
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
    if not worst <= 1e-9:
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


def meyer_wallach_closed(a, b, u):
    """Closed-form Meyer-Wallach value 2 a^2 b^2 + 4 b^2 |u|^2 (1 - |u|^2).

    This is the published closed form for the two-exciton superposition with
    both qubits sharing the amplitude ``u``; it agrees with the register
    evaluation of :func:`meyer_wallach_numeric` when b = 1 (the plotted
    case), and is used as the default for figure reproduction.  Arguments
    broadcast; all-scalar arguments give a float.
    """
    if np.any(np.abs(a**2 + b**2 - 1.0) > 1e-12):
        raise ValueError("a^2 + b^2 must equal 1")
    survival = np.minimum(1.0, np.abs(u) ** 2)
    value = 2.0 * a**2 * b**2 + 4.0 * b**2 * survival * (1.0 - survival)
    return value if np.ndim(value) else float(value)
