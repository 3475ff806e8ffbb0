"""Acceptance suite: the quantitative anchors the package must reproduce.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import functools
import math
import time

import numpy as np

from fmoent import dense
from fmoent import entanglement as ent
from fmoent import fidelity as fid
from fmoent import qlin
from fmoent.fmo import build_hamiltonian, dataset, exciton_table
from fmoent.ode import amplitude_ode_oracle
from fmoent.reservoir import ReservoirParams, amplitude, damping, survival

from conftest import (
    decayed_w_register,
    global_entanglement_brute,
    random_unit_disc,
)

from test_fmo import EXCITON_AMPLITUDES, EXCITON_ENERGIES, amplitude_deviation_mod_sign


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL  {description}")
                raise
            print(f"criterion {number}: PASS  {description}")

        return wrapper

    return decorate


@criterion(1, "exciton table regression (energies +-1 cm^-1, amplitudes +-0.02, < 1 s)")
def test_criterion_1_exciton_table_regression():
    start = time.perf_counter()
    table = exciton_table(build_hamiltonian(dataset("reng")))
    elapsed = time.perf_counter() - start
    assert np.abs(table.energies - EXCITON_ENERGIES).max() < 1.0
    for k in range(7):
        deviation = amplitude_deviation_mod_sign(
            table.amplitudes[:, k], EXCITON_AMPLITUDES[:, k]
        )
        assert deviation < 0.02, f"exciton {k}: amplitude deviation {deviation:.4f}"
    assert elapsed < 1.0, f"diagonalization took {elapsed:.3f} s"


@criterion(2, "closed-form amplitude vs ODE oracle < 1e-6 on 8 parameter sets (< 30 s)")
def test_criterion_2_amplitude_oracle_equivalence():
    start = time.perf_counter()
    grid = np.arange(0.0, 2.0 + 5e-5, 1e-4)
    worst = 0.0
    for gamma0 in (10.0, 1000.0):
        for half_width in (20.0, 40.0):
            for delta in (0.0, 100.0):
                params = ReservoirParams(gamma0, half_width=half_width, delta=delta)
                analytic = amplitude(params, grid)
                integrated = amplitude_ode_oracle(params, grid, max_step=1e-4)
                worst = max(worst, float(np.abs(analytic - integrated).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"max |u_analytic - u_ode| = {worst:.3e}"
    assert elapsed < 30.0, f"comparison took {elapsed:.1f} s"


@criterion(3, "boundary identities: u(0)=1, p(0)=0, F(0)=1, F(1)=2/3, W floors at 2/3")
def test_criterion_3_boundary_identities():
    params = ReservoirParams(1000.0, half_width=40.0, delta=0.0)
    assert amplitude(params, 0.0) == 1.0 + 0.0j
    assert damping(amplitude(params, 0.0)) == 0.0
    for n_parties in (2, 4, 16, 64):
        for formula in (
            lambda p: fid.f_ghz_teleport(p, n_parties),
            fid.f_w_teleport,
            lambda p: fid.f_ghz_split(p, n_parties),
            fid.f_w_split,
        ):
            assert abs(formula(0.0) - 1.0) < 1e-14
            assert abs(formula(1.0) - 2.0 / 3.0) < 1e-14
    p_grid = np.linspace(0.0, 1.0, 10_000)
    assert np.all(fid.f_w_teleport(p_grid) >= 2.0 / 3.0 - 1e-15)
    assert np.all(fid.f_w_split(p_grid) >= 2.0 / 3.0 - 1e-15)


@criterion(4, "pure W4 global entanglement = (sqrt(3)/2 + 1/3)/2, brute-force confirmed")
def test_criterion_4_pure_w_entanglement():
    reference = (math.sqrt(3) / 2 + 1 / 3) / 2
    w4 = dense.w_state(4)
    rho = np.outer(w4, w4.conj())
    # independent route: bit-arithmetic partial transposes + LAPACK eigenvalues
    assert abs(global_entanglement_brute(rho, 4) - reference) < 1e-12
    assert abs(dense.global_entanglement(rho, 4) - reference) < 1e-9


@criterion(5, "closed-form exciton state equals the traced 8-qubit register (20 draws)")
def test_criterion_5_closed_form_vs_register_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        u = random_unit_disc(rng)
        register = decayed_w_register(4, u)
        rho_full = np.outer(register, register.conj())
        traced = qlin.partial_trace(rho_full, 8, {0, 1, 2, 3})
        closed = dense.w_mixture_rho(survival(u), 4)
        assert np.abs(closed - traced).max() < 1e-12


@criterion(6, "Meyer-Wallach anchors: Q=1 at (a=0, b=1, |u|^2=1/2); Q=0 on products")
def test_criterion_6_meyer_wallach_anchors():
    half = 1 / math.sqrt(2)
    assert abs(ent.meyer_wallach_closed(0.0, 1.0, half) - 1.0) < 1e-12
    register = dense.x_state_register(0.0, 1.0, half, half)
    assert abs(dense.meyer_wallach_numeric(register) - 1.0) < 1e-12
    rng = np.random.default_rng(66)
    for n in (2, 3, 4):
        psi = np.array([1.0], dtype=complex)
        for _ in range(n):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.kron(psi, q / np.linalg.norm(q))
        assert abs(dense.meyer_wallach_numeric(psi)) < 1e-12
    # closed form against the register route across a u grid, at b = 1
    for radius in np.linspace(0.0, 1.0, 11):
        for phase in (0.0, 1.1, 2.7, 4.4):
            u = radius * complex(math.cos(phase), math.sin(phase))
            register = dense.x_state_register(0.0, 1.0, u, u)
            numeric = dense.meyer_wallach_numeric(register)
            closed = ent.meyer_wallach_closed(0.0, 1.0, u)
            assert abs(numeric - closed) < 1e-12


@criterion(7, "non-Markovian revival of |u|^2 at gamma0=1000; monotone decay at gamma0=10")
def test_criterion_7_revival_property():
    grid = np.linspace(0.0, 1.0, 2001)

    revival = ReservoirParams(1000.0, half_width=40.0, delta=0.0)
    survival = np.abs(amplitude(revival, grid)) ** 2
    steps = np.diff(survival)
    assert np.any(steps > 1e-9), "survival probability should not be monotone"
    interior_minima = [
        i
        for i in range(1, grid.size - 1)
        if survival[i] < survival[i - 1] and survival[i] <= survival[i + 1]
    ]
    deep = [i for i in interior_minima if 1.0 - survival[i] >= 0.999]
    assert deep, "expected an interior minimum with damping >= 0.999"
    i = deep[0]
    assert survival[i + 1 :].max() > survival[i], "expected a rise after the minimum"

    markovian = ReservoirParams(10.0, half_width=40.0, delta=0.0)
    survival = np.abs(amplitude(markovian, grid)) ** 2
    assert np.all(np.diff(survival) <= 1e-12), "expected monotone non-increasing decay"


@criterion(8, "1e3-point sweep: every produced rho Hermitian, unit trace, PSD")
def test_criterion_8_density_matrix_sanity():
    produced = 0
    time_grid = np.linspace(0.0, 1.0, 25)
    for gamma0 in (10.0, 500.0, 1000.0, 2000.0):
        for delta in (0.0, 100.0):
            params = ReservoirParams(gamma0, half_width=40.0, delta=delta)
            for t in time_grid:
                u = amplitude(params, t)
                for rho in (
                    dense.w_mixture_rho(survival(u), 4),
                    dense.w_mixture_rho(damping(u), 4),
                ):
                    _assert_density(rho)
                    produced += 1
    params = ReservoirParams(800.0, half_width=40.0, delta=0.0)
    amplitudes = amplitude(params, np.linspace(0.0, 1.0, 30))
    for b in np.linspace(0.0, 1.0, 21):
        a = math.sqrt(1.0 - b * b)
        for u in amplitudes:
            rho = dense.x_state_rho(a, b, u, u)
            _assert_density(rho)
            produced += 1
    assert produced >= 1000, f"sweep produced only {produced} states"


def _assert_density(rho):
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
