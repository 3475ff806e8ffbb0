import numpy as np
import pytest

from fmoent import fidelity as fid
from fmoent.reservoir import ReservoirParams, amplitude, damping

TWO_THIRDS = 2.0 / 3.0


class TestGhzTeleport:
    def test_undamped(self):
        assert fid.f_ghz_teleport(0.0, 4) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_fully_damped_reaches_classical_value(self, n):
        assert abs(fid.f_ghz_teleport(1.0, n) - TWO_THIRDS) < 1e-14

    def test_half_damped_four_parties(self):
        # (1/6) [2 + (1/8)(3/2) + 2(1/4) + (1/8)(3/2)]
        assert fid.f_ghz_teleport(0.5, 4) == pytest.approx(0.4791666666666667, abs=1e-15)

    def test_odd_party_count_is_defined(self):
        values = fid.f_ghz_teleport(np.linspace(0.0, 1.0, 11), 5)
        assert np.all(np.isfinite(values))

    def test_domain_violations_rejected(self):
        with pytest.raises(ValueError):
            fid.f_ghz_teleport(-0.01, 4)
        with pytest.raises(ValueError):
            fid.f_ghz_teleport(1.01, 4)
        with pytest.raises(ValueError):
            fid.f_ghz_teleport(0.5, 1)
        with pytest.raises(ValueError):
            fid.f_ghz_teleport(0.5, 4.5)


class TestWTeleport:
    def test_boundaries(self):
        assert fid.f_w_teleport(0.0) == 1.0
        assert abs(fid.f_w_teleport(1.0) - TWO_THIRDS) < 1e-14

    def test_half_damped(self):
        assert fid.f_w_teleport(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_never_below_classical_threshold(self):
        p = np.linspace(0.0, 1.0, 10_000)
        assert np.all(fid.f_w_teleport(p) >= TWO_THIRDS - 1e-15)


class TestGhzSplit:
    def test_boundaries(self):
        assert fid.f_ghz_split(0.0, 4) == 1.0
        assert abs(fid.f_ghz_split(1.0, 4) - TWO_THIRDS) < 1e-14

    def test_half_damped_four_parties(self):
        assert fid.f_ghz_split(0.5, 4) == pytest.approx(TWO_THIRDS, abs=1e-15)

    def test_non_increasing_in_party_count(self):
        p_grid = np.linspace(0.01, 0.99, 25)
        for n in range(2, 12):
            now = fid.f_ghz_split(p_grid, n)
            nxt = fid.f_ghz_split(p_grid, n + 1)
            assert np.all(nxt <= now + 1e-14)


class TestDampingDomain:
    @pytest.mark.parametrize("p", [np.nan, np.array([0.5, np.nan])])
    def test_nan_damping_refused(self, p):
        for protocol in (fid.f_w_teleport, fid.f_w_split):
            with pytest.raises(ValueError, match="must lie in"):
                protocol(p)
        for protocol in (fid.f_ghz_teleport, fid.f_ghz_split):
            with pytest.raises(ValueError, match="must lie in"):
                protocol(p, 4)


    @pytest.mark.parametrize(
        "n", [np.inf, np.nan, -np.inf, np.float64(np.inf), np.array([3.0, np.inf]), np.array([np.nan])],
        ids=["inf", "nan", "-inf", "float64-inf", "array-inf", "array-nan"],
    )
    def test_non_finite_party_count_refused(self, n):
        # a scalar inf once escaped as OverflowError; an array inf gave 0.333 and 0.583
        for protocol in (fid.f_ghz_teleport, fid.f_ghz_split):
            with pytest.raises(ValueError, match="n_parties must be"):
                protocol(0.5, n)


class TestPartyCount:
    """One rule for a party count, whatever its spelling: integer values >= 2."""

    P_POINTS = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("protocol", [fid.f_ghz_teleport, fid.f_ghz_split])
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_spellings_of_a_count_give_identical_values(self, protocol, n):
        spellings = [n, np.int64(n), float(n), np.array(n), np.array([n])]
        # p scalar, one call per point (a (1,) count makes a (1,) result), and p an array
        for p in [*self.P_POINTS[::50], self.P_POINTS]:
            values = [np.asarray(protocol(p, count)).ravel() for count in spellings]
            for value in values[1:]:
                assert value.tobytes() == values[0].tobytes()

    @pytest.mark.parametrize(
        "n, shown",
        [
            (4.5, "4.5"),
            (np.array(4.5), "4.5"),
            (np.inf, "inf"),
            (np.nan, "nan"),
            (1, "1"),
            (True, "True"),
            ("4", "'4'"),
            (10**400, str(10**400)),
            (np.array([4.0, 2.5]), "2.5"),
        ],
        ids=["4.5", "0-d-4.5", "inf", "nan", "one", "True", "str", "10**400", "array"],
    )
    def test_refused_with_the_one_message(self, n, shown):
        # np.array(4.5) once showed as "array(4.5)", and 10**400 escaped as OverflowError
        for protocol in (fid.f_ghz_teleport, fid.f_ghz_split):
            with pytest.raises(ValueError, match=f"^n_parties must be integers >= 2, got {shown}$"):
                protocol(0.3, n)


class TestWSplit:
    def test_boundaries(self):
        assert fid.f_w_split(0.0) == 1.0
        assert abs(fid.f_w_split(1.0) - TWO_THIRDS) < 1e-14

    def test_linear_sample(self):
        assert fid.f_w_split(0.3) == pytest.approx(0.9, abs=1e-15)

    def test_never_below_classical_threshold(self):
        p = np.linspace(0.0, 1.0, 10_000)
        assert np.all(fid.f_w_split(p) >= TWO_THIRDS - 1e-15)


class TestFidelityVsTime:
    """Time traces f(p(t)) with p(t) = damping(amplitude(params, t)), as the scan observables compose them."""

    def test_starts_at_unity(self):
        res = ReservoirParams(1000.0, half_width=40.0, delta=0.0)
        grid = np.linspace(0.0, 0.5, 21)
        p_damp = damping(amplitude(res, grid))
        assert p_damp[0] == 0.0
        curves = (
            fid.f_ghz_teleport(p_damp, 4),
            fid.f_w_teleport(p_damp),
            fid.f_ghz_split(p_damp, 4),
            fid.f_w_split(p_damp),
        )
        for curve in curves:
            assert curve.shape == grid.shape
            assert curve[0] == 1.0

    def test_w_teleport_revivals_touch_classical_floor(self):
        res = ReservoirParams(1500.0, half_width=40.0, delta=0.0)
        grid = np.linspace(0.0, 1.0, 801)
        curve = fid.f_w_teleport(damping(amplitude(res, grid)))
        assert np.all(curve >= TWO_THIRDS - 1e-15)
        # at a zero of u the damping saturates and the fidelity sits exactly
        # on the classical value; locate one crossing by bisection
        lo, hi = 0.02, 0.08
        f = lambda t: amplitude(res, t).real
        assert f(lo) * f(hi) < 0
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        t_zero = (lo + hi) / 2
        assert damping(amplitude(res, t_zero)) == 1.0
        touch = fid.f_w_teleport(damping(amplitude(res, np.array([0.0, t_zero]))))
        assert abs(touch[-1] - TWO_THIRDS) < 1e-15

    def test_ghz_teleport_many_parties_decays_monotonically(self):
        res = ReservoirParams(10.0, half_width=40.0, delta=0.0)
        grid = np.linspace(0.0, 0.5, 101)
        curve = fid.f_ghz_teleport(damping(amplitude(res, grid)), 64)
        assert np.all(np.diff(curve) <= 1e-12)
        assert curve[0] == 1.0

    def test_detuning_evenness_is_inherited(self):
        grid = np.linspace(0.0, 1.0, 64)
        plus = amplitude(ReservoirParams(800.0, half_width=30.0, delta=90.0), grid)
        minus = amplitude(ReservoirParams(800.0, half_width=30.0, delta=-90.0), grid)
        plus, minus = fid.f_ghz_split(damping(plus), 4), fid.f_ghz_split(damping(minus), 4)
        assert np.abs(plus - minus).max() < 1e-13
