import math

import numpy as np
import pytest

from rdvopt import (
    KeplerConvergenceError,
    TargetOrbit,
    time_from_true,
    true_from_time,
)
from rdvopt.kepler import eccentric_from_true, mean_from_true, solve_kepler, true_from_eccentric

from conftest import ECCENTRICITIES, random_orbit

TWO_PI = 2.0 * math.pi


class TestTargetOrbit:
    def test_circular_normalized(self):
        o = TargetOrbit(a=1.0, e=0.0, mu=1.0)
        assert o.p == 1.0
        assert o.h == 1.0
        assert o.k2 == 1.0
        assert o.n == 1.0
        assert o.period == pytest.approx(TWO_PI, rel=1e-15)

    def test_station_orbit_semilatus(self):
        # direct arithmetic: 6763 * (1 - 0.0052^2)
        assert TargetOrbit(a=6763.0, e=0.0052).p == pytest.approx(6762.81712848, rel=1e-12)

    def test_highly_elliptic_semilatus(self):
        # direct arithmetic: 106246.98 * (1 - 0.7988^2)
        assert TargetOrbit(a=106246.98, e=0.7988).p == pytest.approx(38452.75400594881, rel=1e-12)

    def test_mutual_consistency(self, rng):
        for _ in range(50):
            o = random_orbit(rng)
            assert o.h == pytest.approx(math.sqrt(o.mu * o.p), rel=1e-12)
            assert o.k2 == pytest.approx(o.h / o.p**2, rel=1e-12)
            assert o.period == pytest.approx(TWO_PI / o.n, rel=1e-12)

    @pytest.mark.parametrize("kw", [dict(a=-1.0), dict(e=1.0), dict(e=1.2), dict(mu=0.0)])
    def test_invalid_orbit_rejected(self, kw):
        args = dict(a=1.0, e=0.1, mu=1.0)
        args.update(kw)
        with pytest.raises(ValueError):
            TargetOrbit(**args)


class TestTimeFromTrue:
    def test_epoch_is_zero(self):
        o = TargetOrbit(a=1.2, e=0.3, theta0=0.8, mu=1.0)
        assert time_from_true(0.8, o) == 0.0

    def test_circular_is_linear(self):
        o = TargetOrbit(a=1.0, e=0.0, mu=1.0)
        assert time_from_true(10.0, o) == pytest.approx(10.0, abs=1e-14)

    def test_highly_elliptic_benchmark_arc(self):
        # published transfer: theta 2.3562 -> 2.7859 rad takes 49995 s; the
        # quoted anomaly is rounded to 1e-4 rad, worth ~10 s here
        o = TargetOrbit(a=106246.98, e=0.7988, theta0=math.radians(135.0))
        assert time_from_true(2.7859, o) == pytest.approx(49995.0, abs=10.0)


class TestTrueFromTime:
    def test_zero_maps_to_epoch(self):
        o = TargetOrbit(a=1.0, e=0.7, theta0=2.1, mu=1.0)
        assert true_from_time(0.0, o) == pytest.approx(2.1, abs=1e-12)

    def test_ten_revolution_transfer(self):
        # station-orbit case: 55350 s is just short of ten revolutions
        o = TargetOrbit(a=6763.0, e=0.0052)
        assert true_from_time(55350.0, o) == pytest.approx(62.83149, abs=1e-4)

    def test_rejects_nonfinite(self):
        o = TargetOrbit(a=1.0, e=0.0, mu=1.0)
        with pytest.raises(ValueError):
            true_from_time(math.nan, o)

    def test_round_trip_thousand_random(self, rng):
        for _ in range(1000):
            o = random_orbit(rng)
            theta = o.theta0 + float(rng.uniform(0.0, 3.0 * TWO_PI))
            back = true_from_time(time_from_true(theta, o), o)
            assert abs(back - theta) < 1e-10

    def test_monotone_in_time(self, rng):
        o = TargetOrbit(a=1.0, e=0.9, theta0=-1.0, mu=1.0)
        ts = np.sort(rng.uniform(-0.5 * o.period, 3.0 * o.period, size=200))
        thetas = [true_from_time(t, o) for t in ts]
        assert np.all(np.diff(thetas) > 0.0)

    def test_period_consistency(self, rng):
        for _ in range(50):
            o = random_orbit(rng)
            theta = o.theta0 + float(rng.uniform(0.0, TWO_PI))
            dt = time_from_true(theta + TWO_PI, o) - time_from_true(theta, o)
            assert abs(dt - o.period) < 1e-10 * o.period

    def test_circular_limit_exact(self, rng):
        o = TargetOrbit(a=1.0, e=0.0, theta0=0.37, mu=1.0)
        for t in rng.uniform(0.0, 20.0, size=100):
            assert true_from_time(float(t), o) == pytest.approx(0.37 + t, abs=5e-15 * (1 + t))


class TestSolveKepler:
    def test_residual_at_solution(self, rng):
        for _ in range(200):
            e = float(rng.uniform(0.0, 0.99))
            m = float(rng.uniform(0.0, TWO_PI))
            ecc = solve_kepler(m, e)
            assert abs(ecc - e * math.sin(ecc) - m) <= 1e-13

    def test_iteration_failure_reports_residual(self):
        with pytest.raises(KeplerConvergenceError, match="residual"):
            solve_kepler(3.0, 0.95, max_iter=1)



def _time_from_true_scalar(theta, orbit):
    """Reference: the scalar closed form with the math module, one anomaly."""

    def mean(th):
        ew = 2.0 * math.atan2(math.sqrt(1.0 - orbit.e) * math.sin(0.5 * th),
                              math.sqrt(1.0 + orbit.e) * math.cos(0.5 * th))
        ecc = ew + TWO_PI * round((th - ew) / TWO_PI)
        return ecc - orbit.e * math.sin(ecc)

    return (mean(theta) - mean(orbit.theta0)) / orbit.n


class TestArrayAnomalies:
    def test_scalar_input_returns_float(self):
        o = TargetOrbit(a=1.2, e=0.3, theta0=0.8, mu=1.0)
        assert type(time_from_true(2.0, o)) is float
        assert type(time_from_true(np.float64(2.0), o)) is float
        assert time_from_true(np.array([2.0]), o).shape == (1,)

    def test_array_equals_stacked_scalar_calls(self, rng):
        # e <= 0.8, any departure anomaly, up to ten revolutions
        for _ in range(50):
            o = random_orbit(rng, e_max=0.8)
            theta = o.theta0 + rng.uniform(0.0, 10.0 * TWO_PI, size=64)
            got = time_from_true(theta, o)
            stacked = np.array([time_from_true(float(th), o) for th in theta])
            reference = np.array([_time_from_true_scalar(float(th), o) for th in theta])
            scale = np.maximum(np.abs(stacked), o.period)
            assert np.all(np.abs(got - stacked) <= 1e-14 * scale)
            assert np.all(np.abs(got - reference) <= 1e-14 * scale)

    def test_revolution_count_kept_on_arrays(self):
        o = TargetOrbit(a=1.0, e=0.7, theta0=0.0, mu=1.0)
        revs = np.arange(11)
        t = time_from_true(0.5 + TWO_PI * revs, o)
        assert np.allclose(np.diff(t), o.period, rtol=1e-12)

    @pytest.mark.parametrize("fn", [eccentric_from_true, mean_from_true])
    def test_anomaly_conversions_take_scalars_and_arrays(self, fn, rng):
        e = 0.7
        assert type(fn(2.0, e)) is float
        assert type(fn(np.float64(2.0), e)) is float
        theta = rng.uniform(0.0, 10.0 * TWO_PI, size=(4, 8))
        got = fn(theta, e)
        assert got.shape == theta.shape
        stacked = np.array([fn(float(th), e) for th in theta.ravel()]).reshape(theta.shape)
        assert np.array_equal(got, stacked)

    @pytest.mark.parametrize("e", ECCENTRICITIES)
    def test_anomaly_round_trips_keep_the_revolution(self, e):
        # ten revolutions, each anomaly through E and back, and through M,
        # Kepler's equation and E back
        theta = np.linspace(-1.0, 10.0 * TWO_PI, 241)
        ecc, mean = eccentric_from_true(theta, e), mean_from_true(theta, e)
        for th, ea, ma in zip(theta, ecc, mean):
            assert true_from_eccentric(float(ea), e) == pytest.approx(th, abs=1e-12)
            revs = math.floor(ma / TWO_PI)
            ea_kepler = solve_kepler(ma - TWO_PI * revs, e) + TWO_PI * revs
            assert true_from_eccentric(ea_kepler, e) == pytest.approx(th, abs=1e-9)
