"""Exciton entanglement and fidelity dynamics in the FMO pigment-protein complex.

A small numerical library plus CLI: builds and diagonalizes the seven-site
exciton Hamiltonian, evaluates the survival amplitude of qubits damped by a
Lorentzian phonon reservoir, and computes multipartite entanglement measures
and teleportation/splitting fidelities as functions of time and reservoir
parameters.
"""

__version__ = "0.1.0"

from .entanglement import (
    BipartitionSet,
    WStateParams,
    XStateParams,
    enumerate_bipartitions,
    ghz_state,
    global_entanglement,
    meyer_wallach_closed,
    meyer_wallach_numeric,
    normalized_negativity,
    w_state,
    w_state_exciton_rho,
    w_state_reservoir_rho,
    w_mixture_entanglement,
    x_state_register,
    x_state_rho,
)
from .fidelity import (
    FidelityCurve,
    f_ghz_split,
    f_ghz_teleport,
    f_w_split,
    f_w_teleport,
    fidelity_vs_time,
)
from .fmo import (
    ExcitonTable,
    SiteDataset,
    build_hamiltonian,
    builtin_datasets,
    dataset,
    exciton_table,
    load_site_energies,
)
from .qlin import hermitian_eigen, kron, partial_trace, partial_transpose
from .reservoir import (
    CM1_TO_RAD_PER_PS,
    DEFAULT_UNITS,
    ReservoirParams,
    UnitSystem,
    amplitude,
    amplitude_ode_oracle,
    damping,
    population_difference,
    spectral_density,
)

__all__ = [
    "__version__",
    "kron",
    "partial_trace",
    "partial_transpose",
    "hermitian_eigen",
    "SiteDataset",
    "ExcitonTable",
    "builtin_datasets",
    "dataset",
    "load_site_energies",
    "build_hamiltonian",
    "exciton_table",
    "CM1_TO_RAD_PER_PS",
    "UnitSystem",
    "DEFAULT_UNITS",
    "ReservoirParams",
    "spectral_density",
    "amplitude",
    "amplitude_ode_oracle",
    "population_difference",
    "damping",
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
    "FidelityCurve",
    "f_ghz_teleport",
    "f_w_teleport",
    "f_ghz_split",
    "f_w_split",
    "fidelity_vs_time",
]
