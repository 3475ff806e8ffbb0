"""Shared independent oracles for the test suite.

Everything here is deliberately implemented *differently* from the library:
partial transposes by bit arithmetic instead of axis permutation, Hermitian
eigendecompositions by cyclic Jacobi rotations (the library's route is
LAPACK, through ``numpy.linalg.eigh``), states assembled index by index, the
Runge-Kutta integration of u(t) stepped one scalar step at a time instead of
by products of step maps, the Lorentzian spectral density whose weight
the amplitude's memory kernel carries, and CSV written one value at a time
instead of from block templates.  Agreement between the two routes is the
point of most tests.
"""

from __future__ import annotations

import math
import warnings
from itertools import combinations

import numpy as np

from fmoent import CM1_TO_RAD_PER_PS

# Hypothesis imports its patch writer only when a test fails, and that import
# raises a DeprecationWarning from a dependency; under ``-W error`` the
# failure report then ended in a pytest INTERNALERROR instead of the
# falsifying example.  Importing it here, with that warning ignored, keeps
# the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pt_by_bits(rho: np.ndarray, n_qubits: int, subset) -> np.ndarray:
    """Partial transpose by explicitly swapping subset bits of (row, col)."""
    dim = 2**n_qubits
    mask = 0
    for q in subset:
        mask |= 1 << (n_qubits - 1 - q)
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for i in range(dim):
        for j in range(dim):
            ii = (i & ~mask) | (j & mask)
            jj = (j & ~mask) | (i & mask)
            out[ii, jj] = rho[i, j]
    return out


def negativity_brute(rho: np.ndarray, n_qubits: int, subset) -> float:
    """Unnormalized negativity: |sum of negative eigenvalues| of the PT."""
    eigenvalues = np.linalg.eigvalsh(pt_by_bits(rho, n_qubits, subset))
    return float(-eigenvalues[eigenvalues < 0.0].sum())


def global_entanglement_brute(rho: np.ndarray, n_qubits: int) -> float:
    """Bipartition-averaged normalized negativity, all by numpy/itertools."""
    per_size = []
    for m in range(1, n_qubits // 2 + 1):
        subsets = list(combinations(range(n_qubits), m))
        if 2 * m == n_qubits:
            subsets = [s for s in subsets if 0 in s]
        scale = 2.0 / (2.0**m - 1.0)
        values = [scale * negativity_brute(rho, n_qubits, s) for s in subsets]
        per_size.append(sum(values) / len(values))
    return sum(per_size) / len(per_size)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix from a Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unit_disc(rng: np.random.Generator) -> complex:
    """Uniform complex point with modulus <= 1."""
    radius = math.sqrt(rng.uniform(0.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return radius * complex(math.cos(phi), math.sin(phi))


def decayed_w_register(n_qubits: int, u: complex, phases=None) -> np.ndarray:
    """Evolved 2n-qubit register: n excitons (first) plus n reservoirs.

    Each single-excitation term keeps amplitude ``u`` on its exciton qubit
    and sheds ``v`` onto the matching reservoir qubit.  ``phases`` optionally
    attaches a phase to each emitted amplitude (the library fixes them to
    zero; observables must not care).
    """
    v_mag = math.sqrt(max(0.0, 1.0 - abs(u) ** 2))
    if phases is None:
        phases = [0.0] * n_qubits
    psi = np.zeros(2 ** (2 * n_qubits), dtype=complex)
    for q in range(n_qubits):
        exciton_idx = 1 << (2 * n_qubits - 1 - q)
        reservoir_idx = 1 << (n_qubits - 1 - q)
        psi[exciton_idx] += u / math.sqrt(n_qubits)
        psi[reservoir_idx] += v_mag * np.exp(1j * phases[q]) / math.sqrt(n_qubits)
    return psi


def decayed_pair_register(a, b, u1, u2, phase1=0.0, phase2=0.0) -> np.ndarray:
    """Evolved 4-qubit register (e1, e2, r1, r2) of the a|00> + b|11> pair."""
    v1 = math.sqrt(max(0.0, 1.0 - abs(u1) ** 2)) * np.exp(1j * phase1)
    v2 = math.sqrt(max(0.0, 1.0 - abs(u2) ** 2)) * np.exp(1j * phase2)
    psi = np.zeros(16, dtype=complex)
    psi[0b0000] = a
    psi[0b1100] = b * u1 * u2
    psi[0b1001] = b * u1 * v2
    psi[0b0110] = b * v1 * u2
    psi[0b0011] = b * v1 * v2
    return psi


def rk4_stepwise(params, t_grid, max_step: float = 1e-4) -> np.ndarray:
    """Classical RK4 for du/dt = -C z, dz/dt = u - B z, one scalar step at a time.

    Same step rule as ``amplitude_ode_oracle``: each grid interval is cut into
    ``max(1, ceil(span/max_step))`` equal steps, so both routes take exactly
    the same steps and differ only in rounding.
    """
    k = CM1_TO_RAD_PER_PS
    b = (params.half_width - 1j * params.delta) * k
    c = (params.gamma0 * k) * (2.0 * params.half_width * k) / 4.0 + 0j
    u = 1.0 + 0.0j
    z = 0.0 + 0.0j
    t_now = 0.0
    out = np.empty(len(t_grid), dtype=complex)
    for i, t_target in enumerate(t_grid):
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


def jacobi_eigen(m, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps visit the index pairs in a fixed order until the off-diagonal
    Frobenius norm falls below ``tol`` times the norm of the input (floored
    at 1).  Column ``k`` of the eigenvectors belongs to eigenvalue ``k``;
    phases are left as the rotations produce them.
    """
    a = np.array(m, dtype=complex)
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    vec = np.eye(n, dtype=complex)
    threshold = tol * max(1.0, float(np.linalg.norm(a)))
    skip = threshold / max(1, 2 * n)
    for _ in range(max_sweeps):
        if float(np.linalg.norm(a - np.diag(np.diag(a)))) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                alpha = a[p, p].real
                beta = a[q, q].real
                tau = (beta - alpha) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = s * phase.conjugate()

                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sp * row_q
                a[q, :] = spc * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - spc * col_q
                a[:, q] = sp * col_p + c * col_q
                # exact 2x2 result of the rotation, clearing rounding residue
                a[p, p] = alpha - t * r
                a[q, q] = beta + t * r
                a[p, q] = 0.0
                a[q, p] = 0.0

                vcol_p = vec[:, p].copy()
                vcol_q = vec[:, q].copy()
                vec[:, p] = c * vcol_p - spc * vcol_q
                vec[:, q] = sp * vcol_p + c * vcol_q
    else:
        raise RuntimeError(f"Jacobi sweep limit ({max_sweeps}) reached without converging")
    evals = np.diag(a).real
    order = np.argsort(evals, kind="stable")
    return evals[order], vec[:, order]


def lorentzian_density(omega, gamma0: float, half: float, peak: float):
    """Lorentzian coupling density J(omega) (cm^-1): peak value gamma0 / 2 pi, half width ``half``.

    Its integral over the real line is gamma0 * half / 2, the weight of the
    memory kernel that ``reservoir.amplitude`` solves.
    """
    return (gamma0 / (2.0 * math.pi)) * half**2 / ((peak - omega) ** 2 + half**2)


def write_csv_reference(result, out) -> None:
    """A scan result as CSV, one ``format(v, ".12g")`` per value, joined by commas.

    The writer the library had before it formatted each axis value once; it
    reads every column from ``result.rows``, the table that ``ScanResult``
    derives from ``result.axes`` and ``result.values``.
    """
    out.write(",".join(result.header) + "\n")
    for row in result.rows.tolist():
        out.write(",".join(format(v, ".12g") for v in row) + "\n")
