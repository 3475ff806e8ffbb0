"""Exciton entanglement and fidelity dynamics in the FMO pigment-protein complex.

A small numerical library plus CLI: builds and diagonalizes the seven-site
exciton Hamiltonian, evaluates the survival amplitude of qubits damped by a
Lorentzian phonon reservoir, and computes multipartite entanglement measures
and teleportation/splitting fidelities as functions of time and reservoir
parameters.

Importing the package loads none of its modules.  Each public name below is
imported from its module on first access (``fmoent.amplitude``,
``from fmoent import amplitude``), so a process pays only for the modules it
uses.
"""

import importlib

__version__ = "0.1.0"

# 2*pi*c * (1 ps) with c = 0.0299792458 cm/ps, fixed to 11 significant digits.
CM1_TO_RAD_PER_PS = 0.18836515673

# Public name -> the module that defines it.
_EXPORTS = {
    "partial_trace": "qlin",
    "partial_transpose": "qlin",
    "hermitian_eigen": "qlin",
    "SiteDataset": "fmo",
    "ExcitonTable": "fmo",
    "builtin_datasets": "fmo",
    "dataset": "fmo",
    "load_site_energies": "fmo",
    "build_hamiltonian": "fmo",
    "exciton_table": "fmo",
    "UnitSystem": "reservoir",
    "DEFAULT_UNITS": "reservoir",
    "ReservoirParams": "reservoir",
    "amplitude": "reservoir",
    "amplitude_ode_oracle": "reservoir",
    "population_difference": "reservoir",
    "damping": "reservoir",
    "BipartitionSet": "entanglement",
    "WStateParams": "entanglement",
    "XStateParams": "entanglement",
    "enumerate_bipartitions": "entanglement",
    "normalized_negativity": "entanglement",
    "global_entanglement": "entanglement",
    "w_mixture_entanglement": "entanglement",
    "w_state": "entanglement",
    "ghz_state": "entanglement",
    "w_state_exciton_rho": "entanglement",
    "w_state_reservoir_rho": "entanglement",
    "x_state_rho": "entanglement",
    "x_state_register": "entanglement",
    "meyer_wallach_numeric": "entanglement",
    "meyer_wallach_closed": "entanglement",
    "f_ghz_teleport": "fidelity",
    "f_w_teleport": "fidelity",
    "f_ghz_split": "fidelity",
    "f_w_split": "fidelity",
}

# Submodules, imported on attribute access (``fmoent.reservoir``) too.
_MODULES = ("qlin", "fmo", "reservoir", "entanglement", "fidelity", "cli")

__all__ = ["__version__", "CM1_TO_RAD_PER_PS", *_EXPORTS]


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULES})
