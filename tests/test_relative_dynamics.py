import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rdvopt import (
    RelativeState,
    TargetOrbit,
    TransformedState,
    from_transformed,
    stm_full,
    stm_in_plane,
    stm_out_of_plane,
    to_transformed,
)
from rdvopt.relative_dynamics import IN_PLANE_IDX, OUT_OF_PLANE_IDX

from conftest import ECCENTRICITIES, random_orbit

TWO_PI = 2.0 * math.pi


def integrate_transformed(x0, theta0, theta1, e):
    """Oracle: adaptive integration of the transformed equations of motion.

    State ordering (x, y, z, vx, vy, vz); independent variable is the
    true anomaly.
    """

    def rhs(theta, x):
        rho = 1.0 + e * math.cos(theta)
        return [x[3], x[4], x[5], 2.0 * x[5], -x[1], 3.0 * x[2] / rho - 2.0 * x[3]]

    sol = solve_ivp(rhs, (theta0, theta1), x0, method="DOP853", rtol=1e-12, atol=1e-13)
    assert sol.success
    return sol.y[:, -1]


def random_state(rng):
    return RelativeState(r=rng.normal(size=3), v=rng.normal(size=3))


class TestTransformations:
    def test_circular_target(self, rng):
        o = TargetOrbit(a=2.0, e=0.0, mu=1.5)
        s = random_state(rng)
        t = to_transformed(s, 1.3, o)
        assert np.allclose(t.r, s.r, rtol=1e-15)
        assert np.allclose(t.v, s.v / o.k2, rtol=1e-15)
        assert np.allclose(from_transformed(t, 1.3, o).v, s.v, rtol=1e-14)

    def test_periapsis_scaling(self):
        o = TargetOrbit(a=1.0, e=0.5, mu=1.0)
        s = RelativeState(r=[1.0, -2.0, 3.0], v=[0.0, 0.0, 0.0])
        t = to_transformed(s, 0.0, o)
        assert np.allclose(t.r, 1.5 * s.r, rtol=1e-15)

    def test_zero_maps_to_zero(self):
        o = TargetOrbit(a=1.0, e=0.3, mu=1.0)
        z = RelativeState(r=np.zeros(3), v=np.zeros(3))
        t = to_transformed(z, 0.7, o)
        assert not np.any(t.vector)
        assert not np.any(from_transformed(TransformedState(np.zeros(3), np.zeros(3)), 0.7, o).vector)

    def test_round_trip_thousand_random(self, rng):
        for _ in range(1000):
            o = random_orbit(rng)
            theta = float(rng.uniform(-TWO_PI, 2 * TWO_PI))
            s = random_state(rng)
            back = from_transformed(to_transformed(s, theta, o), theta, o)
            scale = max(1.0, np.max(np.abs(s.vector)))
            assert np.max(np.abs(back.vector - s.vector)) < 1e-12 * scale


class TestInPlaneStm:
    def test_identity_at_zero_gap(self, rng):
        for _ in range(50):
            o = random_orbit(rng)
            th = o.theta0 + float(rng.uniform(0.0, TWO_PI))
            assert np.max(np.abs(stm_in_plane(th, th, o) - np.eye(4))) < 1e-13

    @pytest.mark.parametrize("e", ECCENTRICITIES)
    def test_matches_ode_oracle_over_one_revolution(self, e, rng):
        o = TargetOrbit(a=1.0, e=e, theta0=float(rng.uniform(0, TWO_PI)), mu=1.0)
        th1 = o.theta0 + TWO_PI
        phi = stm_in_plane(th1, o.theta0, o)
        for col in range(4):
            x6 = np.zeros(6)
            x6[IN_PLANE_IDX[col]] = 1.0
            ref = integrate_transformed(x6, o.theta0, th1, e)[list(IN_PLANE_IDX)]
            assert np.max(np.abs(phi[:, col] - ref)) < 1e-8

    def test_circular_full_revolution_secular_structure(self):
        # e=0, one revolution: the only departure from identity is the
        # along-track drift fed by the z and vx columns
        o = TargetOrbit(a=1.0, e=0.0, mu=1.0)
        phi = stm_in_plane(0.7 + TWO_PI, 0.7, o)
        dev = phi - np.eye(4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 1] = mask[0, 2] = True
        assert np.max(np.abs(dev[~mask])) < 1e-12
        assert abs(dev[0, 1] - 12.0 * math.pi) < 1e-10
        assert abs(dev[0, 2] + 6.0 * math.pi) < 1e-10
        assert np.max(np.abs(phi @ np.zeros(4))) == 0.0

    def test_high_eccentricity_rejected(self):
        o = TargetOrbit(a=1.0, e=0.995, mu=1.0)
        with pytest.raises(ValueError, match="ill-conditioned"):
            stm_in_plane(1.0, 0.0, o)


class TestOutOfPlaneStm:
    def test_identity_and_quarter_turn(self):
        o = TargetOrbit(a=1.0, e=0.4, mu=1.0)
        assert np.allclose(stm_out_of_plane(1.1, 1.1, o), np.eye(2), atol=1e-15)
        quarter = stm_out_of_plane(1.1 + math.pi / 2, 1.1, o)
        assert np.allclose(quarter, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_rotation_orthogonal_unit_determinant(self, rng):
        for _ in range(100):
            o = random_orbit(rng)
            dth = float(rng.uniform(0.0, 3 * TWO_PI))
            m = stm_out_of_plane(o.theta0 + dth, o.theta0, o)
            assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_matches_harmonic_oscillator_oracle(self, rng):
        o = TargetOrbit(a=1.0, e=0.6, mu=1.0)
        for _ in range(10):
            th0 = float(rng.uniform(0.0, TWO_PI))
            th1 = th0 + float(rng.uniform(0.1, TWO_PI))
            y0 = rng.normal(size=2)
            x6 = np.zeros(6)
            x6[[1, 4]] = y0
            ref = integrate_transformed(x6, th0, th1, o.e)[[1, 4]]
            assert np.max(np.abs(stm_out_of_plane(th1, th0, o) @ y0 - ref)) < 1e-10


class TestFullStm:
    def test_cross_blocks_exactly_zero(self, rng):
        o = random_orbit(rng)
        m = stm_full(o.theta0 + 2.3, o.theta0, o)
        ip, op = list(IN_PLANE_IDX), list(OUT_OF_PLANE_IDX)
        assert np.all(m[np.ix_(ip, op)] == 0.0)
        assert np.all(m[np.ix_(op, ip)] == 0.0)

    def test_composition_on_random_triples(self, rng):
        for _ in range(30):
            o = random_orbit(rng)
            th0 = o.theta0 + float(rng.uniform(0.0, 1.0))
            th1 = th0 + float(rng.uniform(0.1, TWO_PI))
            th2 = th1 + float(rng.uniform(0.1, TWO_PI))
            one = stm_full(th2, th0, o)
            two = stm_full(th2, th1, o) @ stm_full(th1, th0, o)
            scale = max(1.0, np.max(np.abs(one)))
            assert np.max(np.abs(two - one)) < 1e-9 * scale

    @pytest.mark.parametrize("e", ECCENTRICITIES)
    def test_propagation_matches_ode_oracle(self, e, rng):
        o = TargetOrbit(a=1.0, e=e, theta0=0.4, mu=1.0)
        x0 = rng.normal(size=6)
        th1 = o.theta0 + TWO_PI
        ref = integrate_transformed(x0, o.theta0, th1, e)
        got = stm_full(th1, o.theta0, o) @ x0
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < 1e-8 * scale


STMS = {"in_plane": stm_in_plane, "out_of_plane": stm_out_of_plane, "full": stm_full}


class TestArrayStm:
    @pytest.mark.parametrize("name", sorted(STMS))
    @pytest.mark.parametrize("shape", ["scalar-array", "array-array"])
    def test_stack_equals_stacked_scalar_calls(self, name, shape, rng):
        stm = STMS[name]
        for _ in range(20):
            o = random_orbit(rng, e_max=0.8)
            theta0 = o.theta0 + rng.uniform(0.0, 10.0 * TWO_PI, size=33)
            if shape == "scalar-array":
                theta1 = o.theta0 + float(rng.uniform(0.0, 10.0 * TWO_PI))
                pairs = [(theta1, float(th0)) for th0 in theta0]
            else:
                theta1 = o.theta0 + rng.uniform(0.0, 10.0 * TWO_PI, size=33)
                pairs = [(float(a), float(b)) for a, b in zip(theta1, theta0)]
            got = stm(theta1, theta0, o)
            stacked = np.array([stm(a, b, o) for a, b in pairs])
            assert got.shape == stacked.shape
            for g, s in zip(got, stacked):
                assert np.max(np.abs(g - s)) <= 1e-14 * max(1.0, np.max(np.abs(s)))

    def test_scalar_anomalies_give_plain_matrices(self):
        o = TargetOrbit(a=1.0, e=0.3, mu=1.0)
        for stm, n in ((stm_in_plane, 4), (stm_out_of_plane, 2), (stm_full, 6)):
            m = stm(1.7, 0.2, o)
            assert type(m) is np.ndarray and m.shape == (n, n)

    def test_inverse_map_acts_per_state_on_stacks(self, rng):
        o = random_orbit(rng, e_max=0.8)
        theta = rng.uniform(-TWO_PI, 2 * TWO_PI, size=7)
        states = [random_state(rng) for _ in theta]
        transformed = [to_transformed(s, float(th), o).vector for s, th in zip(states, theta)]
        back = from_transformed(TransformedState.from_vector(np.stack(transformed)), theta, o)
        assert back.r.shape == back.v.shape == (7, 3)
        for k, (s, th) in enumerate(zip(states, theta)):
            one = from_transformed(TransformedState.from_vector(transformed[k]), float(th), o)
            assert np.max(np.abs(back.vector[k] - one.vector)) <= 1e-14 * np.max(np.abs(one.vector))
            assert np.max(np.abs(back.vector[k] - s.vector)) < 1e-12 * max(1.0, np.max(np.abs(s.vector)))

    def test_state_needs_three_components(self):
        with pytest.raises(ValueError, match="3 components"):
            RelativeState(r=[1.0, 2.0], v=[0.0, 0.0, 0.0])
