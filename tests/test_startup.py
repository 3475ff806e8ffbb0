"""Start-up guard: each entry point loads only the fmoent modules it runs, and neither
``dataclasses`` nor argparse with its ``gettext`` and ``locale``.

Every case starts a fresh interpreter, runs one entry and lists the
modules it ended up with.
"""

import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmoent

import dense

SRC = Path(fmoent.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent

_RUN_MAIN = """
import contextlib, io, sys
from fmoent import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exit:  # --version
        code = exit.code
assert code == 0, code
"""

_REPORT = "\nimport sys; print(' '.join(sorted(sys.modules)))"


@functools.cache
def modules_after(code: str, *argv: str) -> frozenset[str]:
    """Every module in ``sys.modules`` once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def loaded_modules(code: str, *argv: str) -> set[str]:
    fmoent_modules = (name for name in modules_after(code, *argv) if name.startswith("fmoent"))
    return {name.removeprefix("fmoent").lstrip(".") or "fmoent" for name in fmoent_modules}


SCAN = ("scan", "--axis1", "t:0:1:5", "--gamma0", "1000", "--half-width", "40", "--observable")


ENTRIES = pytest.mark.parametrize(
    "code, argv, expected",
    [
        ("import fmoent", (), {"fmoent"}),
        ("import fmoent.cli", (), {"fmoent", "cli"}),
        # the RK4 oracle imports nothing of the closed form it checks
        ("import fmoent.reservoir", (), {"fmoent", "reservoir"}),
        ("import fmoent.ode", (), {"fmoent", "ode"}),
        (_RUN_MAIN, ("--version",), {"fmoent", "cli"}),
        (_RUN_MAIN, ("check", "--t-max", "0.01"), {"fmoent", "cli", "reservoir", "ode"}),
        (_RUN_MAIN, ("table",), {"fmoent", "cli", "fmo"}),
        (_RUN_MAIN, (*SCAN, "delta_p"), {"fmoent", "cli", "reservoir"}),
        (_RUN_MAIN, (*SCAN, "f_w_split"), {"fmoent", "cli", "reservoir", "fidelity"}),
        # the scans evaluate closed forms: neither the dense route nor qlin
        (_RUN_MAIN, (*SCAN, "e_exciton"), {"fmoent", "cli", "reservoir", "entanglement"}),
        (_RUN_MAIN, (*SCAN, "q_numeric", "--b", "0.6"), {"fmoent", "cli", "reservoir", "entanglement"}),
        # the dense oracle, a test module, loads the closed forms' module for its
        # tolerances and reservoir for what |u| means
        (f"import sys; sys.path.insert(0, {str(TESTS)!r}); import dense; dense.x_state_register", (),
         {"fmoent", "entanglement", "qlin", "reservoir"}),
    ],
    ids=[
        "import-fmoent", "import-cli", "import-reservoir", "import-ode", "version", "check", "table",
        "scan-delta_p", "scan-f_w_split", "scan-e_exciton", "scan-q_numeric", "entanglement-dense-name",
    ],
)


@ENTRIES
def test_entry_loads_only_what_it_runs(code, argv, expected):
    assert loaded_modules(code, *argv) == expected


@ENTRIES
def test_entry_generates_no_classes(code, argv, expected):
    # six frozen dataclasses compiled their generated methods at import, about
    # 1.1 ms each, after 1-2 ms to import dataclasses; numpy imports none of it
    assert "dataclasses" not in modules_after(code, *argv)


@ENTRIES
def test_entry_reads_argv_without_argparse(code, argv, expected):
    # argparse cost about 2 ms to import with gettext and 2.4 ms to build its
    # parser, which imports locale, and 0.48 MB of each process's peak RSS
    assert not {"argparse", "gettext", "locale"} & modules_after(code, *argv)


def test_every_public_name_resolves_and_is_listed():
    listed = dir(fmoent)
    for name in fmoent.__all__:
        assert getattr(fmoent, name) is not None
        assert name in listed
    namespace: dict = {}
    exec("from fmoent import *", namespace)
    assert set(fmoent.__all__) <= set(namespace)


def test_each_module_lists_what_the_package_maps_to_it():
    for module, names in fmoent._PUBLIC.items():
        assert set(getattr(fmoent, module).__all__) == set(names), module
    assert fmoent.w_mixture_entanglement is fmoent.entanglement.w_mixture_entanglement
    # the package's map is the only route to a name: entanglement forwards none
    with pytest.raises(AttributeError, match="no attribute 'global_entanglement'"):
        fmoent.entanglement.global_entanglement


@pytest.mark.parametrize("module", list(fmoent._PUBLIC))
def test_star_import_binds_exactly_the_modules_row(module):
    namespace: dict = {}
    exec(f"from fmoent.{module} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(fmoent._PUBLIC[module])


def test_the_rk4_oracle_lives_only_in_ode():
    # a scan loads reservoir and never compiles the oracle; no alias is left there
    assert fmoent.amplitude_ode_oracle is fmoent.ode.amplitude_ode_oracle
    assert fmoent.amplitude_ode_blocks is fmoent.ode.amplitude_ode_blocks
    for name in ("amplitude_ode_oracle", "amplitude_ode_blocks", "_ORACLE_BLOCK", "_map_product"):
        assert not hasattr(fmoent.reservoir, name), name


def test_the_dense_oracle_takes_the_closed_forms_arguments():
    # one w_mixture_rho(s, n) builds both sides of the W register; the oracle takes no parameter objects
    for name in ("WStateParams", "XStateParams", "w_state_exciton_rho", "w_state_reservoir_rho", "_w_mixture"):
        assert not hasattr(dense, name), name
        with pytest.raises(AttributeError):
            getattr(fmoent, name)
    # the oracle lives beside the tests: the package ships neither its module nor its names
    assert len(dense.__all__) == 9
    assert importlib.util.find_spec("fmoent.dense") is None
    for name in dense.__all__:
        assert callable(getattr(dense, name)), name
        assert name not in fmoent.__all__ and name not in dir(fmoent), name
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(fmoent, name)
