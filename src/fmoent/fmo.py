"""Site-basis Hamiltonian of the seven-BChl FMO monomer and its exciton states.

The diagonal holds site energies of the seven bacteriochlorophylls relative
to BChl 3 (the lowest site), the off-diagonal holds the published intersite
couplings, everything in cm^-1.  Diagonalizing gives the seven delocalized
exciton qubit states.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import _PUBLIC, _Record

__all__ = _PUBLIC["fmo"]

N_SITES = 7

# Intersite couplings (cm^-1) between BChls 1..7; zero diagonal.  The same
# coupling matrix is used with every site-energy dataset (couplings are only
# published for the "reng" parameterization).
COUPLINGS_CM1 = np.array(
    [
        [0.0, -104.1, 5.1, -4.3, 4.7, -15.1, -7.8],
        [-104.1, 0.0, 32.6, 7.1, 5.4, 8.3, 0.8],
        [5.1, 32.6, 0.0, -46.8, 1.0, -8.1, 5.1],
        [-4.3, 7.1, -46.8, 0.0, -70.7, -14.7, -61.5],
        [4.7, 5.4, 1.0, -70.7, 0.0, 89.7, -2.5],
        [-15.1, 8.3, -8.1, -14.7, 89.7, 0.0, 32.7],
        [-7.8, 0.8, 5.1, -61.5, -2.5, 32.7, 0.0],
    ]
)
COUPLINGS_CM1.setflags(write=False)


class SiteDataset(_Record):
    """Absolute BChl site energies (cm^-1) and their differences to BChl 3.

    ``site_energies[k]`` belongs to BChl ``k + 1``; ``energy_diffs`` is the
    same array shifted so BChl 3 sits at zero.  The dataset keeps a read-only
    copy of the energies it is given.
    """

    __slots__ = ("name", "site_energies")

    def __init__(self, name: str, site_energies: np.ndarray):
        # a private copy: the caller's array, or a builtin's, cannot change it
        energies = np.array(site_energies, dtype=float)
        energies.setflags(write=False)
        if energies.shape != (N_SITES,):
            raise ValueError(f"{name}: expected {N_SITES} site energies, got {energies.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(energies - energies[2]).all():
                raise ValueError(f"{name}: site energies and their differences must be finite")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "site_energies", energies)

    @property
    def energy_diffs(self) -> np.ndarray:
        return self.site_energies - self.site_energies[2]


_BUILTIN = {
    "reng": SiteDataset("reng", [12450.0, 12520.0, 12210.0, 12320.0, 12550.0, 12540.0, 12470.0]),
    "lorenExpt": SiteDataset(
        "lorenExpt", [12266.0, 12496.0, 12112.0, 12293.0, 12634.0, 12396.0, 12457.0]
    ),
    "wend": SiteDataset("wend", [12315.0, 12500.0, 12175.0, 12405.0, 12625.0, 12430.0, 12450.0]),
}


def builtin_datasets() -> list[SiteDataset]:
    """The three published site-energy sets, keyed by their source label."""
    return list(_BUILTIN.values())


def dataset(name: str) -> SiteDataset:
    """Look up a builtin dataset by name ('reng', 'lorenExpt' or 'wend')."""
    try:
        return _BUILTIN[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN))
        raise ValueError(f"unknown dataset {name!r}; known datasets: {known}") from None


def load_site_energies(path) -> SiteDataset:
    """Read a site-energy table: one ``bchl_index energy_cm1`` pair per line.

    Blank lines are skipped and ``#`` starts a comment.  Every BChl index
    1..7 must appear exactly once.
    """
    path = Path(path)
    energies: dict[int, float] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'bchl_index energy_cm1', got {raw!r}")
        try:
            index = int(fields[0])
            energy = float(fields[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: could not parse {raw!r}") from None
        if not 1 <= index <= N_SITES:
            raise ValueError(f"{path}:{lineno}: BChl index must be 1..{N_SITES}, got {index}")
        if index in energies:
            raise ValueError(f"{path}:{lineno}: duplicate BChl index {index}")
        energies[index] = energy
    missing = sorted(set(range(1, N_SITES + 1)) - set(energies))
    if missing:
        raise ValueError(f"{path}: missing BChl indices {missing}")
    return SiteDataset(path.stem, [energies[i] for i in range(1, N_SITES + 1)])


def build_hamiltonian(site_data: SiteDataset) -> np.ndarray:
    """Assemble the 7x7 site-basis Hamiltonian (cm^-1, real symmetric).

    Diagonal entries are the dataset's energy differences, off-diagonal
    entries the intersite couplings ``COUPLINGS_CM1``.
    """
    return np.diag(site_data.energy_diffs) + COUPLINGS_CM1


class ExcitonTable(_Record):
    """Exciton energies (ascending, cm^-1) and site occupation amplitudes.

    Column ``k`` of ``amplitudes`` holds the amplitudes of exciton qubit
    ``k`` over BChl sites 1..7.  Columns are orthonormal.  The table keeps
    read-only copies of the arrays it is given.
    """

    __slots__ = ("energies", "amplitudes")

    def __init__(self, energies: np.ndarray, amplitudes: np.ndarray):
        # private copies: neither the caller nor a reader can change the table
        energies, amplitudes = np.array(energies, dtype=float), np.array(amplitudes, dtype=float)
        energies.setflags(write=False)
        amplitudes.setflags(write=False)
        norms = np.linalg.norm(amplitudes, axis=0)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise ValueError("exciton amplitude columns must have unit norm")
        gram = amplitudes.T @ amplitudes
        if np.abs(gram - np.eye(len(energies))).max() > 1e-10:
            raise ValueError("exciton amplitude columns must be orthogonal")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "amplitudes", amplitudes)


def _eigen(h: np.ndarray):
    """Eigenvalues (ascending) and real unit eigenvectors of a real symmetric 7x7.

    LAPACK's complex routine (``numpy.linalg.eigh``) diagonalizes the
    symmetrized matrix; the real routine would move last digits of the table.
    Each eigenvector is phased so its largest-magnitude component is real and
    positive, and exact eigenvalue ties are broken by component-wise
    comparison of the phased eigenvectors (larger leading components first).
    """
    energies, vectors = np.linalg.eigh(((h + h.T) / 2.0).astype(complex))
    columns = np.arange(N_SITES)
    pivot_rows = np.argmax(np.abs(vectors), axis=0)
    pivots = vectors[pivot_rows, columns]
    vectors = vectors * (pivots.conjugate() / np.abs(pivots))
    # clear the rounding residue on the pivots themselves
    vectors[pivot_rows, columns] = np.abs(vectors[pivot_rows, columns])
    if np.any(np.diff(energies) == 0.0):
        order = sorted(
            columns, key=lambda k: (energies[k], *((-c.real, -c.imag) for c in vectors[:, k]))
        )
        energies, vectors = energies[order], vectors[:, order]
    if float(np.abs(vectors.imag).max()) > 1e-12:
        raise RuntimeError("real symmetric input produced complex eigenvectors")
    return energies, vectors.real


def exciton_table(hamiltonian) -> ExcitonTable:
    """Diagonalize a site-basis Hamiltonian into its exciton table.

    Energies come out ascending; each amplitude column is phased so its
    largest-magnitude component is positive, and exact energy ties are
    ordered by their columns, larger leading components first.
    """
    h = np.asarray(hamiltonian)
    if np.iscomplexobj(h):
        if h.size and float(np.abs(h.imag).max()) > 0.0:
            raise ValueError("site-basis Hamiltonian must be real")
        h = h.real
    h = h.astype(float)
    if h.shape != (N_SITES, N_SITES):
        raise ValueError(f"expected a {N_SITES}x{N_SITES} Hamiltonian, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("site-basis Hamiltonian entries must be finite")
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.T).max()) > 1e-10 * scale:
        raise ValueError("site-basis Hamiltonian must be symmetric")
    energies, amplitudes = _eigen(h)
    return ExcitonTable(energies=energies, amplitudes=amplitudes)
