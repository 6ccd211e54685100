import math
from dataclasses import replace

import numpy as np
import pytest

from rdvopt import (
    TargetOrbit,
    TransformedState,
    builtin,
    extract_impulses,
    from_transformed,
    inner_node_search,
    merge_adjacent_impulses,
    mesh_sweep,
    plan_rendezvous,
    reconstruct_trajectory,
    stm_full,
    to_inertial,
    to_transformed,
    verify_plan,
)
from rdvopt.postprocess import ImpulsePlan, TrajectorySample
from rdvopt.transcription import expand_solution


@pytest.fixture(scope="module")
def c2c_result():
    res = plan_rendezvous(builtin("circle2circle"), mesh_m=65)
    assert res.solution.status == "optimal"
    return res


@pytest.fixture(scope="module")
def coasting():
    # terminal state = free drift of the initial state: optimal cost is zero
    c2c = builtin("circle2circle")
    drift = stm_full(10.0, 0.0, c2c.orbit) @ to_transformed(c2c.x0, 0.0, c2c.orbit).vector
    xf = from_transformed(TransformedState.from_vector(drift), 10.0, c2c.orbit)
    return replace(c2c, name="coasting", xf=xf)


class TestExtractImpulses:
    def test_circle2circle_structure(self, c2c_result):
        plan = c2c_result.plan
        assert plan.n_impulses == 4
        assert plan.total_dv == pytest.approx(0.17828, abs=5e-4)
        assert [i.theta for i in plan.impulses] == [0.0, 2.8125, 7.1875, 10.0]
        for imp in plan.impulses:
            assert imp.magnitude == pytest.approx(np.linalg.norm(imp.dv), rel=1e-14)
        assert plan.total_dv == pytest.approx(
            plan.raw_magnitudes.sum(), rel=1e-14
        )

    def test_total_includes_dropped_mass(self, c2c_result):
        plan = c2c_result.plan
        kept = sum(i.magnitude for i in plan.impulses)
        assert plan.total_dv == pytest.approx(kept + plan.dropped_dv, rel=1e-12)

    def test_cost_matches_solver_objective(self, c2c_result):
        scen = builtin("circle2circle")
        obj_physical = c2c_result.solution.objective * scen.units.velocity
        assert c2c_result.plan.total_dv == pytest.approx(
            obj_physical, abs=1e-8 * (1 + obj_physical)
        )

    def test_coasting_gives_empty_plan(self, coasting):
        res = plan_rendezvous(coasting, mesh_m=17)
        assert res.solution.status == "optimal"
        assert res.plan.n_impulses == 0
        assert res.plan.total_dv < 1e-7
        assert res.plan.impulses == []

    def test_extraction_tolerance_override(self, c2c_result):
        grid = c2c_result.grid
        scen = builtin("circle2circle")
        exp = expand_solution(c2c_result.problem, c2c_result.solution, scen, grid)
        plan_all = extract_impulses(exp, grid, scen, tol=0.0)
        assert plan_all.n_impulses == grid.m
        plan_none = extract_impulses(exp, grid, scen, tol=1.0)
        assert plan_none.n_impulses == 0
        assert plan_none.total_dv == pytest.approx(plan_all.total_dv, rel=1e-14)


class TestVerifyPlan:
    def test_converged_plan_closes_terminal_gap(self, c2c_result):
        err = verify_plan(c2c_result.plan, builtin("circle2circle"))
        assert err.position_scaled < 1e-6
        assert err.velocity_scaled < 1e-6

    def test_empty_plan_on_coasting_scenario(self, coasting):
        plan = ImpulsePlan(
            impulses=[], total_dv=0.0, dropped_dv=0.0, n_impulses=0, mesh_m=0,
            extraction_tol=0.0, raw_thetas=np.array([]), raw_times=np.array([]),
            raw_dv=np.zeros((0, 3)), raw_magnitudes=np.array([]),
        )
        err = verify_plan(plan, coasting)
        assert err.position_scaled < 1e-12
        assert err.velocity_scaled < 1e-12

    def test_tampered_impulse_reports_error(self, c2c_result):
        plan = c2c_result.plan
        tampered = ImpulsePlan(
            impulses=[replace(imp, dv=np.zeros(3)) if k == 1 else imp
                      for k, imp in enumerate(plan.impulses)],
            total_dv=plan.total_dv, dropped_dv=plan.dropped_dv,
            n_impulses=plan.n_impulses, mesh_m=plan.mesh_m,
            extraction_tol=plan.extraction_tol, raw_thetas=plan.raw_thetas,
            raw_times=plan.raw_times, raw_dv=plan.raw_dv,
            raw_magnitudes=plan.raw_magnitudes,
        )
        err = verify_plan(tampered, builtin("circle2circle"))
        assert err.position_scaled > 1e-3


class TestMergeAdjacentImpulses:
    @staticmethod
    def _plan_with(impulses, grid_thetas):
        from rdvopt.postprocess import Impulse

        entries = [
            Impulse(theta=th, t=th, dv=np.asarray(dv, float),
                    magnitude=float(np.linalg.norm(dv)))
            for th, dv in impulses
        ]
        return ImpulsePlan(
            impulses=entries, total_dv=sum(e.magnitude for e in entries),
            dropped_dv=0.0, n_impulses=len(entries), mesh_m=len(grid_thetas),
            extraction_tol=0.0, raw_thetas=np.asarray(grid_thetas, float),
            raw_times=np.asarray(grid_thetas, float),
            raw_dv=np.zeros((len(grid_thetas), 3)),
            raw_magnitudes=np.zeros(len(grid_thetas)),
        )

    def test_aligned_neighbors_merge_at_weighted_anomaly(self):
        scen = builtin("circle2circle")
        grid = np.linspace(0.0, 10.0, 11)
        plan = self._plan_with(
            [(3.0, [0.03, 0.0, 0.0]), (4.0, [0.01, 0.0, 0.0]), (9.0, [0.0, 0.0, 0.02])],
            grid,
        )
        merged = merge_adjacent_impulses(plan, scen)
        assert merged.n_impulses == 2
        assert np.allclose(merged.impulses[0].dv, [0.04, 0.0, 0.0])
        # cost-weighted anomaly: (0.03*3 + 0.01*4) / 0.04
        assert merged.impulses[0].theta == pytest.approx(3.25, rel=1e-12)
        assert merged.impulses[1].theta == 9.0
        assert merged.total_dv == plan.total_dv

    def test_disagreeing_directions_not_merged(self):
        scen = builtin("circle2circle")
        grid = np.linspace(0.0, 10.0, 11)
        plan = self._plan_with(
            [(3.0, [0.03, 0.0, 0.0]), (4.0, [0.0, 0.0, 0.01])], grid
        )
        merged = merge_adjacent_impulses(plan, scen)
        assert merged.n_impulses == 2

    def test_distant_nodes_not_merged(self):
        scen = builtin("circle2circle")
        grid = np.linspace(0.0, 10.0, 11)
        plan = self._plan_with(
            [(3.0, [0.03, 0.0, 0.0]), (6.0, [0.01, 0.0, 0.0])], grid
        )
        merged = merge_adjacent_impulses(plan, scen, max_gap_steps=2)
        assert merged.n_impulses == 2


class TestReconstructTrajectory:
    def test_position_continuity_and_velocity_jumps(self, c2c_result):
        scen = builtin("circle2circle")
        plan = c2c_result.plan
        traj = reconstruct_trajectory(plan, scen, samples_per_segment=8)
        thetas = np.array([s.theta for s in traj])
        assert np.all(np.diff(thetas) >= 0.0)
        for imp in plan.impulses:
            at = [s for s in traj if s.theta == imp.theta]
            if len(at) < 2:
                continue
            pre, post = at[0], at[-1]
            assert np.max(np.abs(pre.state.r - post.state.r)) < 1e-10
            jump = post.state.v - pre.state.v
            assert np.max(np.abs(jump - imp.dv)) < 1e-10

    def test_endpoints_match_boundaries(self, c2c_result):
        scen = builtin("circle2circle")
        traj = reconstruct_trajectory(c2c_result.plan, scen, samples_per_segment=4)
        assert np.max(np.abs(traj[0].state.vector - scen.x0.vector)) < 1e-10
        assert np.max(np.abs(traj[-1].state.vector - scen.xf.vector)) < 1e-6

    def test_sample_count_validation(self, c2c_result):
        with pytest.raises(ValueError, match="samples_per_segment"):
            reconstruct_trajectory(c2c_result.plan, builtin("circle2circle"), 0)


class TestToInertial:
    def test_zero_offset_rides_the_ellipse(self):
        orbit = TargetOrbit(a=2.0, e=0.3, mu=1.0)
        zero = TrajectorySample(theta=1.2, t=0.0, state=__import__("rdvopt").RelativeState(
            r=np.zeros(3), v=np.zeros(3)))
        out = to_inertial([zero], orbit)[0]
        assert np.allclose(out.chaser, out.target, atol=1e-15)
        assert np.linalg.norm(out.target) == pytest.approx(
            orbit.p / (1 + orbit.e * math.cos(1.2)), rel=1e-13
        )

    def test_radial_offset_sign_convention(self):
        # +z points toward the central body: chaser ends up at lower radius
        from rdvopt import RelativeState

        orbit = TargetOrbit(a=1.0, e=0.0, mu=1.0)
        s = TrajectorySample(theta=0.7, t=0.0,
                             state=RelativeState(r=[0.0, 0.0, 0.1], v=np.zeros(3)))
        out = to_inertial([s], orbit)[0]
        assert np.linalg.norm(out.chaser) == pytest.approx(0.9, rel=1e-12)

    def test_initial_chaser_radius_circle2circle(self, c2c_result):
        # frame-sign check only: the departure offset z = +1/6 must put the
        # chaser radially inside the unit target circle by 1/6
        scen = builtin("circle2circle")
        traj = reconstruct_trajectory(c2c_result.plan, scen, samples_per_segment=2)
        out = to_inertial(traj[:1], scen.orbit)[0]
        r_hat = out.target / np.linalg.norm(out.target)
        assert out.chaser @ r_hat == pytest.approx(1.0 - 1.0 / 6.0, rel=1e-12)


class TestMeshSweep:
    def test_nested_family_non_increasing(self):
        rows = mesh_sweep(builtin("circle2circle"), [9, 17, 33])
        assert [r.m for r in rows] == [9, 17, 33]
        assert all(r.status == "optimal" for r in rows)
        for a, b in zip(rows, rows[1:]):
            assert b.total_dv <= a.total_dv + 1e-9

    def test_two_node_solve_is_upper_bound(self):
        rows = mesh_sweep(builtin("circle2circle"), [2, 33])
        assert rows[0].total_dv >= rows[1].total_dv - 1e-9

    def test_failed_mesh_marked_and_sweep_continues(self):
        rows = mesh_sweep(builtin("circle2circle"), [1, 9])
        assert len(rows) == 2
        assert rows[0].status != "optimal"
        assert math.isnan(rows[0].total_dv)
        assert rows[1].status == "optimal"


class TestInnerNodeSearch:
    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            inner_node_search(builtin("circle2circle"), resolution=5)

    def test_matches_brute_force_scan(self):
        scen = builtin("circle2circle")
        res = inner_node_search(scen, resolution=40)
        best_scan = res.scan_nodes[np.argmin(res.scan_costs)]
        assert abs(res.theta2 - best_scan) <= res.scan_nodes[1] - res.scan_nodes[0]
        assert res.total_dv <= np.min(res.scan_costs) + 1e-9
        assert res.plan is not None

    def test_refinement_stable_across_resolutions(self):
        # resolutions bracketing the same basin refine to the same point;
        # the cost curve has one basin per revolution, so the scan must be
        # finer than the revolution count
        r10 = inner_node_search(builtin("circle2circle"), resolution=10)
        r100 = inner_node_search(builtin("circle2circle"), resolution=100)
        assert abs(r10.theta2 - r100.theta2) < 1e-5
        assert abs(r10.total_dv - r100.total_dv) < 1e-9

    def test_endpoint_only_optimum_leaves_inner_node_idle(self):
        # two-impulse case: the swept interior burn stays below 1e-5 m/s
        res = inner_node_search(builtin("simbolx"), resolution=30)
        interior = res.plan.raw_magnitudes[1:-1]
        assert np.all(interior * 1e3 < 1e-5)
