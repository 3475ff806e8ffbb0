import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fmoent import reservoir
from fmoent.reservoir import (
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

MARKOVIAN = ReservoirParams.from_half_width(gamma0=10.0, half_width=4000.0, delta=0.0)
NON_MARKOVIAN = ReservoirParams.from_half_width(gamma0=1000.0, half_width=40.0, delta=0.0)


def closed_form_reference(params, t, flip_branch=False):
    """Direct transcription of the closed form, with a selectable xi branch."""
    k = CM1_TO_RAD_PER_PS
    b = (params.delta_omega / 2 - 1j * params.delta) * k
    xi = cmath.sqrt(b * b - (params.gamma0 * k) * (params.delta_omega * k))
    if flip_branch:
        xi = -xi
    return cmath.exp(-b * t / 2) * (cmath.cosh(xi * t / 2) + (b / xi) * cmath.sinh(xi * t / 2))


def bisect_amplitude_zero(params, lo, hi, iters=80):
    """Locate a zero crossing of Re(u) (u is real at zero detuning)."""
    f = lambda t: amplitude(params, t).real
    assert f(lo) * f(hi) < 0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            ReservoirParams(gamma0=0.0, delta_omega=80.0)
        with pytest.raises(ValueError):
            ReservoirParams(gamma0=10.0, delta_omega=-1.0)

    @pytest.mark.parametrize("field", ["gamma0", "delta_omega", "delta"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, field, bad):
        values = {"gamma0": 100.0, "delta_omega": 80.0, "delta": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ReservoirParams(**values)
        values[field] = np.array([1.0, bad])
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ReservoirParams(**values)

    def test_array_fields_validated_elementwise(self):
        with pytest.raises(ValueError, match="gamma0 must be positive, got -1.0"):
            ReservoirParams(gamma0=np.array([5.0, -1.0]), delta_omega=80.0)

    def test_half_width_round_trip(self):
        params = ReservoirParams.from_half_width(100.0, 40.0, 5.0)
        assert params.delta_omega == 80.0
        assert params.half_width == 40.0


class TestSpectralDensity:
    def test_peak_value(self):
        params = ReservoirParams(gamma0=111.0, delta_omega=80.0, delta=30.0)
        peak = params.omega0 - params.delta
        assert spectral_density(params, peak) == pytest.approx(params.gamma0 / (2 * math.pi), rel=1e-14)

    def test_half_maximum_at_full_width(self):
        params = ReservoirParams(gamma0=50.0, delta_omega=80.0, delta=0.0)
        peak = params.omega0
        half = params.delta_omega / 2
        target = params.gamma0 / (4 * math.pi)
        assert spectral_density(params, peak + half) == pytest.approx(target, rel=1e-14)
        assert spectral_density(params, peak - half) == pytest.approx(target, rel=1e-14)

    def test_symmetric_about_shifted_peak(self):
        params = ReservoirParams(gamma0=20.0, delta_omega=60.0, delta=100.0)
        peak = params.omega0 - params.delta
        offsets = np.linspace(0.0, 500.0, 64)
        assert np.allclose(
            spectral_density(params, peak + offsets),
            spectral_density(params, peak - offsets),
            rtol=0,
            atol=1e-16,
        )

    @pytest.mark.parametrize("gamma0", [111.0 / CM1_TO_RAD_PER_PS, 589.0, 42.0])
    def test_integral_by_adaptive_quadrature(self, gamma0):
        params = ReservoirParams(gamma0=gamma0, delta_omega=80.0, delta=0.0)
        profile = lambda w: spectral_density(params, w)
        peak = params.omega0 - params.delta
        lo, hi = peak - 50 * params.delta_omega, peak + 50 * params.delta_omega
        total = (
            quad(profile, -np.inf, lo)[0]
            + quad(profile, lo, hi, points=[peak])[0]
            + quad(profile, hi, np.inf)[0]
        )
        expected = params.gamma0 * params.delta_omega / 4
        assert total == pytest.approx(expected, rel=1e-8)


class TestAmplitude:
    def test_initial_value_is_one(self):
        for params in (MARKOVIAN, NON_MARKOVIAN):
            assert amplitude(params, 0.0) == 1.0 + 0.0j

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            amplitude(MARKOVIAN, -0.1)
        with pytest.raises(ValueError):
            amplitude(MARKOVIAN, math.nan)

    def test_markovian_limit_is_exponential(self):
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        t = np.linspace(0.0, 5.0 / rate, 400)
        survival = np.abs(amplitude(MARKOVIAN, t)) ** 2
        assert np.abs(survival / np.exp(-rate * t) - 1.0).max() < 0.01

    def test_nonmarkovian_zero_crossing_and_revival(self):
        # xi is imaginary here, so u oscillates through zero
        t_zero = bisect_amplitude_zero(NON_MARKOVIAN, 0.03, 0.09)
        assert abs(amplitude(NON_MARKOVIAN, t_zero)) < 1e-12
        assert damping(NON_MARKOVIAN, t_zero) == 1.0
        assert damping(NON_MARKOVIAN, t_zero + 0.02) < 1.0  # revival

    def test_zero_crossing_matches_ode_oracle(self):
        t_zero = bisect_amplitude_zero(NON_MARKOVIAN, 0.03, 0.09)
        grid = np.array([0.0, t_zero])
        from_ode = amplitude_ode_oracle(NON_MARKOVIAN, grid, max_step=1e-5)[-1]
        assert abs(from_ode) < 1e-6

    def test_survival_probability_bounded_on_dense_grid(self):
        t = np.linspace(0.0, 2.0, 10_000)
        for params in (
            MARKOVIAN,
            NON_MARKOVIAN,
            ReservoirParams.from_half_width(1000.0, 20.0, 100.0),
            ReservoirParams.from_half_width(10.0, 20.0, 100.0),
        ):
            survival = np.abs(amplitude(params, t)) ** 2
            assert survival.max() <= 1.0 + 1e-12
            assert survival.min() >= 0.0

    def test_detuning_sign_conjugates_amplitude(self):
        t = np.linspace(0.0, 1.5, 200)
        plus = amplitude(ReservoirParams.from_half_width(500.0, 40.0, 120.0), t)
        minus = amplitude(ReservoirParams.from_half_width(500.0, 40.0, -120.0), t)
        assert np.abs(minus - plus.conj()).max() < 1e-12

    def test_observables_even_in_detuning(self):
        t = np.linspace(0.0, 1.5, 50)
        plus = ReservoirParams.from_half_width(800.0, 30.0, 75.0)
        minus = ReservoirParams.from_half_width(800.0, 30.0, -75.0)
        assert np.abs(
            population_difference(plus, t) - population_difference(minus, t)
        ).max() < 1e-13
        assert np.abs(damping(plus, t) - damping(minus, t)).max() < 1e-13

    def test_branch_choice_of_xi_is_irrelevant(self):
        params = ReservoirParams.from_half_width(700.0, 35.0, 50.0)
        for t in (0.05, 0.4, 1.3):
            direct = closed_form_reference(params, t, flip_branch=False)
            flipped = closed_form_reference(params, t, flip_branch=True)
            assert abs(direct - flipped) < 1e-12
            assert abs(amplitude(params, t) - direct) < 1e-12

    def test_degenerate_xi_uses_series(self):
        # gamma0 = delta_omega / 4 makes xi exactly zero at delta = 0
        params = ReservoirParams(gamma0=20.0, delta_omega=80.0, delta=0.0)
        grid = np.linspace(0.0, 2.0, 101)
        diff = np.abs(amplitude(params, grid) - amplitude_ode_oracle(params, grid))
        assert diff.max() < 1e-9

    def test_scalar_and_array_evaluation_agree(self):
        t = np.linspace(0.0, 1.0, 7)
        batch = amplitude(NON_MARKOVIAN, t)
        singles = np.array([amplitude(NON_MARKOVIAN, float(x)) for x in t])
        assert np.array_equal(batch, singles)

    def test_parameters_broadcast_against_time(self):
        # every branch (series at xi = 0, hyperbolic, split-exponential) and
        # a detuned point; array arithmetic may round the last bits
        # differently from the scalar Python arithmetic
        gamma0 = np.array([20.0, 1000.0, 10.0, 777.0])[:, None]
        half_width = np.array([40.0, 40.0, 4000.0, 33.0])[:, None]
        delta = np.array([0.0, 0.0, 0.0, 21.0])[:, None]
        t = np.array([0.0, 0.3, 1.0, 40.0])
        params = ReservoirParams.from_half_width(gamma0, half_width, delta)
        grid = amplitude(params, t)
        assert grid.shape == (4, 4)
        for i in range(4):
            row = ReservoirParams.from_half_width(
                float(gamma0[i, 0]), float(half_width[i, 0]), float(delta[i, 0])
            )
            np.testing.assert_allclose(grid[i], amplitude(row, t), rtol=0, atol=1e-13)
        fixed_t = amplitude(params, 0.3)
        assert fixed_t.shape == (4, 1)
        assert np.array_equal(fixed_t[:, 0], grid[:, 1])

    def test_unit_system_is_a_time_rescaling(self):
        params = ReservoirParams.from_half_width(300.0, 25.0, 40.0)
        natural = UnitSystem(angular_conversion=1.0)
        for t in (0.1, 0.7):
            scaled = amplitude(params, t, DEFAULT_UNITS)
            unscaled = amplitude(params, t * CM1_TO_RAD_PER_PS, natural)
            assert abs(scaled - unscaled) < 1e-12


class TestOdeOracle:
    def test_initial_value(self):
        out = amplitude_ode_oracle(NON_MARKOVIAN, np.array([0.0, 0.1]))
        assert out[0] == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "gamma0,half_width,delta",
        [(10.0, 20.0, 0.0), (1000.0, 40.0, 100.0), (1000.0, 20.0, 100.0)],
    )
    def test_agreement_with_closed_form(self, gamma0, half_width, delta):
        params = ReservoirParams.from_half_width(gamma0, half_width, delta)
        grid = np.linspace(0.0, 2.0, 201)
        diff = np.abs(amplitude(params, grid) - amplitude_ode_oracle(params, grid, max_step=1e-4))
        assert diff.max() < 1e-6

    def test_decoupled_limit_stays_at_one(self):
        params = ReservoirParams.from_half_width(1e-9, 40.0, 0.0)
        grid = np.linspace(0.0, 2.0, 21)
        assert np.abs(amplitude_ode_oracle(params, grid) - 1.0).max() < 1e-6
        assert np.abs(amplitude(params, grid) - 1.0).max() < 1e-6

    def test_kernel_conventions_coincide_at_zero_detuning(self):
        params = ReservoirParams.from_half_width(500.0, 30.0, 0.0)
        grid = np.linspace(0.0, 1.0, 51)
        matched = amplitude_ode_oracle(params, grid, kernel="matched")
        detuned = amplitude_ode_oracle(params, grid, kernel="detuned")
        assert np.abs(matched - detuned).max() < 1e-12

    def test_kernel_conventions_differ_off_resonance(self):
        params = ReservoirParams.from_half_width(500.0, 30.0, 100.0)
        grid = np.linspace(0.0, 1.0, 51)
        matched = amplitude_ode_oracle(params, grid, kernel="matched")
        detuned = amplitude_ode_oracle(params, grid, kernel="detuned")
        assert np.abs(matched - detuned).max() > 1e-3
        # the closed form solves the matched kernel, not the detuned one
        closed = amplitude(params, grid)
        assert np.abs(closed - matched).max() < 1e-8
        assert np.abs(closed - detuned).max() > 1e-3

    def test_rejects_bad_grids_and_kernels(self):
        with pytest.raises(ValueError):
            amplitude_ode_oracle(MARKOVIAN, np.array([0.0, 0.2, 0.1]))
        with pytest.raises(ValueError):
            amplitude_ode_oracle(MARKOVIAN, np.array([-0.1, 0.2]))
        with pytest.raises(ValueError):
            amplitude_ode_oracle(MARKOVIAN, np.array([0.0, 0.1]), kernel="other")
        with pytest.raises(ValueError):
            amplitude_ode_oracle(MARKOVIAN, np.array([0.0, 0.1]), max_step=0.0)


class TestDerivedObservables:
    def test_population_difference_at_t0(self):
        assert population_difference(NON_MARKOVIAN, 0.0) == 1.0

    def test_population_difference_matches_definition(self):
        t = np.linspace(0.0, 1.0, 33)
        expected = 2.0 * np.abs(amplitude(NON_MARKOVIAN, t)) ** 2 - 1.0
        assert np.array_equal(population_difference(NON_MARKOVIAN, t), expected)

    def test_population_difference_markovian_anchor(self):
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        value = population_difference(MARKOVIAN, 1.0 / rate)
        assert abs(value - (2.0 / math.e - 1.0)) < 0.01

    def test_half_survival_crosses_zero(self):
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        t_half = math.log(2.0) / rate
        lo, hi = 0.5 * t_half, 1.5 * t_half
        for _ in range(80):
            mid = (lo + hi) / 2
            if population_difference(MARKOVIAN, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(population_difference(MARKOVIAN, (lo + hi) / 2)) < 1e-9

    def test_damping_boundaries(self):
        assert damping(NON_MARKOVIAN, 0.0) == 0.0
        rate = MARKOVIAN.gamma0 * CM1_TO_RAD_PER_PS
        assert damping(MARKOVIAN, 10.0 / rate) >= 0.9999
