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
import types

__version__ = "0.1.0"

# 2*pi*c * (1 ps) with c = 0.0299792458 cm/ps, fixed to 11 significant digits.
CM1_TO_RAD_PER_PS = 0.18836515673

# The one table of where each name lives: the public names of each module
# (each module's ``__all__`` is its row), and public name -> its module.
_PUBLIC = {
    "qlin": ("partial_trace", "partial_transpose"),
    "fmo": (
        "SiteDataset", "ExcitonTable", "COUPLINGS_CM1", "builtin_datasets", "dataset",
        "load_site_energies", "build_hamiltonian", "exciton_table",
    ),
    "reservoir": ("ReservoirParams", "amplitude", "survival", "population_difference", "damping"),
    "ode": ("amplitude_ode_oracle", "amplitude_ode_blocks"),
    "entanglement": ("w_mixture_entanglement", "meyer_wallach_register", "meyer_wallach_closed"),
    "dense": (
        "enumerate_bipartitions", "normalized_negativity", "global_entanglement", "w_state",
        "ghz_state", "w_mixture_rho", "x_state_rho", "x_state_register", "meyer_wallach_numeric",
    ),
    "fidelity": ("f_ghz_teleport", "f_w_teleport", "f_ghz_split", "f_w_split"),
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

# Submodules, imported on attribute access (``fmoent.reservoir``) too.
_MODULES = (*_PUBLIC, "cli")

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


class _Record:
    """Base of the read-only records: the fields are a subclass's ``__slots__``, in order.

    A subclass's ``__init__`` checks its arguments and sets each field once
    with ``object.__setattr__``.  This base gives the rest: assigning or
    deleting a field raises AttributeError, ``repr`` reads
    ``Name(field=value, ...)``, two records are equal when they are of one
    class and their fields are equal (an array compared with
    ``numpy.array_equal``, a tuple element by element), a record hashes as
    the tuple of its fields, and pickling or copying calls the constructor
    again, by keyword, so the copy is checked too.  A plain class costs
    nothing at import, where a generated one compiles its methods.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _same(self._fields(), other._fields())

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        # a mappingproxy cannot be pickled or copied: the constructor gets a dict
        fields = {name: dict(f) if isinstance(f, types.MappingProxyType) else f
                  for name, f in zip(self.__slots__, self._fields())}
        return _rebuild, (type(self), fields)


def _rebuild(cls, fields: dict):
    """A pickled or copied record, built again by its constructor: its parameters are its slot names."""
    return cls(**fields)


def _same(x, y) -> bool:
    """Value equality of two fields: arrays by ``numpy.array_equal``, tuples element by element."""
    if x is y:
        return True
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    import numpy as np  # loaded already: every module that defines a record imports it

    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return bool(x == y)


def _real(x):
    """``x`` as an array, and as floats, NaN where not a real number (a bool, a string, an int beyond 64 bits)."""
    import numpy as np  # loaded already: its callers, reservoir and cli, import numpy

    x = np.asarray(x)
    return x, (np.asarray(x, dtype=float) if x.dtype.kind in "iuf" else np.full(x.shape, np.nan))
