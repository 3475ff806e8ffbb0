"""Property tests: invariants of the library over generated inputs.

Each test is derandomized (the same examples on every run) with a small
``max_examples``, so the suite stays fast and reproducible.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmoent import cli
from fmoent import entanglement as ent
from fmoent import fidelity as fid
from fmoent.reservoir import ReservoirParams, amplitude

import dense
from conftest import random_unit_disc

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

rates = st.floats(1.0, 5000.0)
detunings = st.floats(-500.0, 500.0)
times = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=20)
weights = st.floats(0.0, 1.0)
qubits = st.integers(2, 12)
seeds = st.integers(0, 2**32 - 1)
# rates log-uniform over 1e-6 .. 1e8 cm^-1, a detuning of either sign
log_rates = st.floats(-6.0, 8.0).map(lambda e: 10.0**e)
signed_rates = st.tuples(st.sampled_from([-1.0, 1.0]), log_rates).map(lambda x: x[0] * x[1])


@PROPERTY
@given(gamma0=rates, half_width=rates, delta=detunings, t=times)
def test_amplitude_starts_at_one_and_stays_in_the_unit_disc(gamma0, half_width, delta, t):
    params = ReservoirParams(gamma0, half_width=half_width, delta=delta)
    assert amplitude(params, 0.0) == 1.0
    u = amplitude(params, np.array(t))
    # |u| <= 1 up to rounding, the slack the state builders allow
    assert np.all(np.abs(u) <= 1.0 + 1e-12)


@PROPERTY
@given(p=weights, n=qubits)
def test_fidelities_lie_between_their_floors_and_one(p, n):
    # the W-type fidelities never drop below the classical 2/3; the GHZ ones
    # reach 2/3 at p = 1 but dip below it in between (to 1/3 as n grows)
    for value in (fid.f_w_teleport(p), fid.f_w_split(p)):
        assert 2.0 / 3.0 - 1e-15 <= value <= 1.0
    for value in (fid.f_ghz_teleport(p, n), fid.f_ghz_split(p, n)):
        assert 1.0 / 3.0 - 1e-15 <= value <= 1.0


def test_ghz_fidelities_dip_below_the_classical_value():
    assert fid.f_ghz_teleport(0.5, 4) < 2.0 / 3.0
    assert fid.f_ghz_split(0.5, 12) < 2.0 / 3.0


@PROPERTY
@given(s=weights, n=qubits)
def test_w_mixture_entanglement_lies_in_the_unit_interval(s, n):
    assert 0.0 <= ent.w_mixture_entanglement(s, n) <= 1.0


@PROPERTY
@given(s=weights, n=st.integers(2, 5))
def test_w_mixture_entanglement_equals_the_dense_route(s, n):
    rho = dense.w_mixture_rho(s, n)
    route = dense.global_entanglement(rho, n)
    assert abs(ent.w_mixture_entanglement(s, n) - route) < 1e-12


@PROPERTY
@given(b=weights, seed=seeds)
def test_x_state_rho_is_a_density_matrix(b, seed):
    rng = np.random.default_rng(seed)
    rho = dense.x_state_rho(math.sqrt(1.0 - b * b), b, random_unit_disc(rng), random_unit_disc(rng))
    assert np.abs(rho - rho.conj().T).max() == 0.0
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


@PROPERTY
@given(b=weights, radius=weights, phase=st.floats(0.0, 2.0 * math.pi))
def test_register_closed_form_equals_the_register(b, radius, phase):
    a, u = math.sqrt(1.0 - b * b), radius * complex(math.cos(phase), math.sin(phase))
    register = dense.meyer_wallach_numeric(dense.x_state_register(a, b, u, u))
    assert abs(ent.meyer_wallach_register(a, b, u) - register) <= 2e-15


# value columns bounded to [0, 1]; delta_p and the u columns have their own
# bounds, and q_closed's published form exceeds 1 for some b < 1
_UNIT_COLUMNS = ("p_damp", "fidelity", "e_exciton", "e_reservoir")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    gamma0=log_rates, half_width=log_rates, delta=st.one_of(st.just(0.0), signed_rates),
    t=st.floats(0.0, 1e4), b=weights, n=qubits,
)
# huge detuning: amplitude() returns |u| = 6403 here (ROADMAP item 4)
@example(
    gamma0=1.0504166348694111e76, half_width=6.105002384194852e49, delta=-1.714729736772316e80,
    t=1.3504003786612088e-32, b=0.8, n=4,
)
def test_every_scan_observable_is_refused_or_in_range(gamma0, half_width, delta, t, b, n):
    fixed = {"gamma0": gamma0, "half_width": half_width, "delta": delta, "t": t, "b": b, "n": n}
    for observable in cli.OBSERVABLES:
        try:
            result = cli.run_scan(cli.ScanSpec(observable, fixed=fixed))
        except ValueError:
            continue
        values = dict(zip(result.header, result.rows[0].tolist()))
        assert all(math.isfinite(v) for v in values.values()), (observable, values)
        for column, value in values.items():
            if column in _UNIT_COLUMNS:
                assert 0.0 <= value <= 1.0, (observable, column, value)
        if "delta_p" in values:
            assert -1.0 <= values["delta_p"] <= 1.0, values
        if "u_re" in values:
            assert max(abs(values["u_re"]), abs(values["u_im"])) <= 1.0 + 1e-9, values


def _rounded_n_grid(axis):
    """The n grid as a scan once read it: linspace rounded, or None if a point lies over 1e-9 from an integer."""
    grid = axis.values()
    rounded = np.round(grid)
    return None if (np.abs(grid - rounded) > 1e-9).any() else rounded


# an n axis: integer endpoints, moved off them by nothing, by less than 1e-9 or by more
_offsets = st.sampled_from([0.0] * 6 + [1e-12, -3e-10, 2.0**-40, 0.25, -0.5])


# no grid is evaluated, so an example costs about 0.1 ms
@settings(derandomize=True, max_examples=300, deadline=None)
@given(start=st.integers(-20, 40), step=st.integers(-6, 6), steps=st.integers(2, 60),
       loose=st.integers(-50, 50), off=st.tuples(_offsets, _offsets), whole=st.booleans())
def test_an_exact_n_axis_is_the_rounded_grid_of_the_rule_it_replaced(start, step, steps, loose, off, whole):
    stop = start + step * (steps - 1) if whole else loose
    axis = cli.AxisSpec("n", start + off[0], stop + off[1], steps)
    before = _rounded_n_grid(axis)
    try:
        cli.ScanSpec("e_exciton", (axis,), {"gamma0": 1000.0, "half_width": 40.0, "t": 0.1})
    except cli.ConfigError:
        # refused now, read before: only endpoints near an integer but not on it
        if before is not None:
            ends = (axis.start, axis.stop)
            assert all(abs(x - round(x)) <= 1e-9 for x in ends) and not all(float(x).is_integer() for x in ends)
    else:
        # accepted now: the grid the rounding made, bit for bit
        assert before is not None
        assert np.array_equal(axis.values().view(np.int64), before.view(np.int64))


@PROPERTY
@given(start=weights, stop=weights, steps=st.integers(2, 100_000))
@example(start=1.0 - 2.0**-53, stop=1.0, steps=99_991)
@example(start=2.0**-1074, stop=0.0, steps=3)
@example(start=0.1, stop=0.7, steps=7)
def test_b_endpoints_in_the_unit_interval_keep_every_point_in_it(start, stop, steps):
    axis = cli.AxisSpec("b", start, stop, steps)
    cli.ScanSpec("q_closed", (axis,), {"gamma0": 1000.0, "half_width": 40.0, "t": 0.1})
    grid = axis.values()
    assert np.all((grid >= 0.0) & (grid <= 1.0))
