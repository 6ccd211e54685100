import json
import math
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvopt import (
    SolverSettings,
    StageTimes,
    TargetOrbit,
    TransformedState,
    builtin,
    extract_impulses,
    from_transformed,
    grid_from_nodes,
    inner_node_search,
    load_scenario,
    merge_adjacent_impulses,
    mesh_sweep,
    plan_rendezvous,
    reconstruct_trajectory,
    stm_full,
    stm_in_plane,
    to_inertial,
    to_transformed,
    verify_plan,
)
from rdvopt import postprocess, transcription
from rdvopt.conic_solver import StageMatrix
from rdvopt.postprocess import ImpulsePlan, PlanResult, TrajectorySample, _three_node_costs
from rdvopt.relative_dynamics import IN_PLANE_IDX, rho
from rdvopt.transcription import expand_solution

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_extraction_tolerance_raises(self, c2c_result, tol):
        # a NaN tolerance used to drop every impulse of an optimal plan and a
        # negative one to keep every node
        grid = c2c_result.grid
        scen = builtin("circle2circle")
        exp = expand_solution(c2c_result.problem, c2c_result.solution, scen, grid)
        with pytest.raises(ValueError, match="extraction tolerance"):
            extract_impulses(exp, grid, scen, tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_stops_plans_and_sweeps_before_solving(self, monkeypatch, tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with a bad tolerance")

        monkeypatch.setattr(postprocess, "solve", no_solve)
        scen = builtin("circle2circle")
        with pytest.raises(ValueError, match="extraction tolerance"):
            plan_rendezvous(scen, mesh_m=9, tol=tol)
        with pytest.raises(ValueError, match="extraction tolerance"):
            mesh_sweep(scen, [9, 17], tol=tol)

    def test_zero_tolerance_keeps_every_node(self):
        res = plan_rendezvous(builtin("circle2circle"), mesh_m=9, tol=0.0)
        assert res.solution.status == "optimal"
        assert res.plan.n_impulses == 9 and res.plan.extraction_tol == 0.0


class TestVerifyPlan:
    def test_converged_plan_closes_terminal_gap(self, c2c_result):
        err = verify_plan(c2c_result.plan, builtin("circle2circle"))
        assert err.position_scaled < 1e-6
        assert err.velocity_scaled < 1e-6

    def test_empty_plan_on_coasting_scenario(self, coasting):
        plan = ImpulsePlan(
            impulses=[], dropped_dv=0.0,
            extraction_tol=0.0, raw_thetas=np.array([]),
            raw_dv=np.zeros((0, 3)), raw_magnitudes=np.array([]),
        )
        err = verify_plan(plan, coasting)
        assert err.position_scaled < 1e-12
        assert err.velocity_scaled < 1e-12

    @pytest.mark.parametrize("theta", [-0.5, 10.5])
    def test_impulse_outside_the_horizon_raises(self, c2c_result, theta):
        plan = c2c_result.plan
        stray = replace(plan, impulses=plan.impulses + [replace(plan.impulses[0], theta=theta)])
        with pytest.raises(ValueError, match="within the horizon"):
            verify_plan(stray, builtin("circle2circle"))

    def test_tampered_impulse_reports_error(self, c2c_result):
        plan = c2c_result.plan
        tampered = ImpulsePlan(
            impulses=[replace(imp, dv=np.zeros(3)) if k == 1 else imp
                      for k, imp in enumerate(plan.impulses)],
            dropped_dv=plan.dropped_dv,
            extraction_tol=plan.extraction_tol, raw_thetas=plan.raw_thetas,
            raw_dv=plan.raw_dv,
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
        raw_thetas = np.asarray(grid_thetas, float)
        raw_dv = np.zeros((len(raw_thetas), 3))
        for e in entries:
            raw_dv[np.flatnonzero(raw_thetas == e.theta)] = e.dv
        return ImpulsePlan(
            impulses=entries, dropped_dv=0.0,
            extraction_tol=0.0, raw_thetas=raw_thetas,
            raw_dv=raw_dv, raw_magnitudes=np.linalg.norm(raw_dv, axis=1),
        )

    def test_aligned_neighbors_merge_at_weighted_anomaly(self):
        scen = builtin("circle2circle")
        grid = np.linspace(0.0, 10.0, 11)
        plan = self._plan_with(
            [(3.0, [0.03, 0.0, 0.0]), (4.0, [0.01, 0.0, 0.0]), (9.0, [0.0, 0.0, 0.02])],
            grid,
        )
        plan.terminal_error = verify_plan(plan, scen)
        merged = merge_adjacent_impulses(plan, scen)
        assert merged.n_impulses == 2 and merged.terminal_error is None
        assert np.allclose(merged.impulses[0].dv, [0.04, 0.0, 0.0])
        # cost-weighted anomaly: (0.03*3 + 0.01*4) / 0.04
        assert merged.impulses[0].theta == pytest.approx(3.25, rel=1e-12)
        assert merged.impulses[1].theta == 9.0
        assert merged.total_dv == plan.total_dv == pytest.approx(0.06, rel=1e-12)

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

    def test_ends_where_verification_ends_whatever_the_burn_list(self, c2c_result):
        # one burn split in two halves, or the burns out of anomaly order, is
        # the same plan: the last sample is verify_plan's propagated end state
        scen = builtin("circle2circle")
        plan = c2c_result.plan
        burns = plan.impulses
        half = replace(burns[1], dv=burns[1].dv / 2, magnitude=burns[1].magnitude / 2)
        for impulses in (burns, burns[:1] + [half, half] + burns[2:],
                         [burns[k] for k in (2, 0, 3, 1)]):
            variant = replace(plan, impulses=impulses)
            miss = verify_plan(variant, scen)
            traj = reconstruct_trajectory(variant, scen, samples_per_segment=4)
            end = traj[-1].state
            assert traj[-1].theta == scen.theta_f
            assert np.linalg.norm(end.r - scen.xf.r) == pytest.approx(miss.position, abs=1e-12)
            assert np.linalg.norm(end.v - scen.xf.v) == pytest.approx(miss.velocity, abs=1e-12)
            # each burn anomaly twice: incoming and outgoing velocity
            count = Counter(s.theta for s in traj)
            assert [count[imp.theta] for imp in burns] == [2] * len(burns)

    def test_sample_count_validation(self, c2c_result):
        with pytest.raises(ValueError, match="samples_per_segment"):
            reconstruct_trajectory(c2c_result.plan, builtin("circle2circle"), 0)

    @pytest.mark.parametrize("samples", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
    def test_non_integer_sample_count_raises(self, c2c_result, samples):
        # a count is rejected, never truncated or handed to numpy
        with pytest.raises(ValueError, match="samples_per_segment must be an integer"):
            reconstruct_trajectory(c2c_result.plan, builtin("circle2circle"), samples)


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


class TestStageTimes:
    def test_every_stage_timed_within_the_call(self):
        scen = builtin("circle2circle")
        start = time.perf_counter()
        res = plan_rendezvous(scen, mesh_m=33)
        wall = time.perf_counter() - start
        times = [getattr(res.times, f.name) for f in fields(StageTimes)]
        assert all(t > 0.0 for t in times)
        assert sum(times) <= wall
        assert res.times.solve >= res.solution.solve_time

    def test_stages_that_did_not_run_read_zero(self):
        scen = builtin("circle2circle")
        grid = grid_from_nodes(scen, [0.0, 5.0, 10.0])
        res = plan_rendezvous(scen, grid=grid, settings=SolverSettings(max_iters=1))
        assert res.plan is None
        assert res.times.grid == 0.0
        assert res.times.assembly > 0.0 and res.times.solve > 0.0
        assert res.times.expansion == res.times.extraction == res.times.verification == 0.0


class TestMeshSweep:
    def test_nested_family_non_increasing(self):
        rows = mesh_sweep(builtin("circle2circle"), [9, 17, 33])
        assert [r.m for r in rows] == [9, 17, 33]
        assert all(r.status == "optimal" for r in rows)
        for a, b in zip(rows, rows[1:]):
            assert b.total_dv <= a.total_dv + 1e-9

    def test_a_generator_of_sizes_is_read_once(self):
        # the size check used to use the generator up, and the sweep returned []
        rows = mesh_sweep(builtin("circle2circle"), iter([17, 9]))
        assert [(r.m, r.status) for r in rows] == [(9, "optimal"), (17, "optimal")]

    def test_two_node_solve_is_upper_bound(self):
        rows = mesh_sweep(builtin("circle2circle"), [2, 33])
        assert rows[0].total_dv >= rows[1].total_dv - 1e-9

    @pytest.mark.parametrize("sizes", [[3.5, 9.9], [9, 9.9], [True, 9], [9, 1]])
    def test_non_integer_mesh_sizes_raise_before_solving(self, sizes, monkeypatch):
        # 3.5 and 9.9 used to be truncated to M=3 and M=9, and M=1 reported
        # as an error row after M=9 was solved
        def no_plan(*args, **kwargs):
            raise AssertionError("a sweep with a bad size must not solve")
        monkeypatch.setattr(postprocess, "plan_rendezvous", no_plan)
        with pytest.raises(ValueError, match="mesh size must be an integer"):
            mesh_sweep(builtin("circle2circle"), sizes)

    def test_failed_mesh_marked_and_sweep_continues(self, monkeypatch):
        real_plan = postprocess.plan_rendezvous

        def plan(scenario, mesh_m=None, **kwargs):
            if mesh_m == 9:
                raise np.linalg.LinAlgError("KKT factorization failed, 3 retries")
            return real_plan(scenario, mesh_m=mesh_m, **kwargs)

        monkeypatch.setattr(postprocess, "plan_rendezvous", plan)
        rows = mesh_sweep(builtin("circle2circle"), [17, 9])
        assert len(rows) == 2
        assert rows[0].status != "optimal"
        assert math.isnan(rows[0].total_dv)
        assert rows[1].status == "optimal"


def _two_impulse_cost(scen) -> float:
    """Cost of the plan that burns at theta0 and thetaf alone, with no solver:
    one square solve of [Phi(thetaf, theta0) B, B] u = xf - Phi(thetaf,
    theta0) x0 in transformed coordinates, each burn costing k2 rho |u|."""
    orbit, theta0, thetaf = scen.orbit, scen.theta0, scen.theta_f
    idx = list(IN_PLANE_IDX) if scen.planar else list(range(6))
    phi = (stm_in_plane if scen.planar else stm_full)(thetaf, theta0, orbit)
    x0, xf = (to_transformed(x, t, orbit).vector[idx]
              for x, t in ((scen.x0, theta0), (scen.xf, thetaf)))
    q = len(idx) // 2
    b = np.vstack([np.zeros((q, q)), np.eye(q)])
    u = np.linalg.solve(np.hstack([phi @ b, b]), xf - phi @ x0)
    return orbit.k2 * (rho(theta0, orbit.e) * np.linalg.norm(u[:q])
                       + rho(thetaf, orbit.e) * np.linalg.norm(u[q:]))


class TestTwoImpulseOracle:
    """Every uniform grid holds both end nodes, so it can fly the two-impulse
    plan: the grid optimum costs at most that plan, and at M=2, where the plan
    is the only feasible one, exactly as much."""

    @pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
    @pytest.mark.parametrize("name", ["atv", "circle2circle", "simbolx"])
    def test_grid_optimum_is_bounded_by_the_two_impulse_plan(self, name, planar):
        scen = replace(builtin(name), planar=planar)
        oracle = _two_impulse_cost(scen)
        total = plan_rendezvous(scen, mesh_m=2).plan.total_dv
        assert abs(total - oracle) <= 1e-9 * oracle
        for m in (9, 65, 257):
            assert plan_rendezvous(scen, mesh_m=m).plan.total_dv <= oracle * (1 + 1e-6), m

    @pytest.mark.parametrize("form", ["condensed", "full"])
    def test_simbolx_grid_optimum_is_the_two_impulse_plan(self, form):
        # simbolx's primer peaks at 1.0 at both ends, so the two-impulse plan
        # is its continuous-time optimum, which every grid reaches
        scen = builtin("simbolx")
        oracle = _two_impulse_cost(scen)
        for m in (2, 9, 33, 65, 257, 1025):
            total = plan_rendezvous(scen, mesh_m=m, form=form).plan.total_dv
            assert abs(total - oracle) <= 1e-6 * oracle, m


class TestInnerNodeSearch:
    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            inner_node_search(builtin("circle2circle"), resolution=5)

    @pytest.mark.parametrize("resolution", [10.5, 100.0, True, "100"])
    def test_non_integer_resolution_raises(self, resolution):
        # 10.5 would scan 11 candidates over 11.5 divisions
        with pytest.raises(ValueError, match="resolution must be an integer"):
            inner_node_search(builtin("circle2circle"), resolution=resolution)

    def test_matches_brute_force_scan(self):
        scen = builtin("circle2circle")
        res = inner_node_search(scen, resolution=40)
        best_scan = res.scan_nodes[np.argmin(res.scan_costs)]
        assert abs(res.theta2 - best_scan) <= res.scan_nodes[1] - res.scan_nodes[0]
        assert res.total_dv <= np.min(res.scan_costs) + 1e-9
        assert res.plan is not None

    def test_result_is_the_plan_result_of_the_chosen_grid(self):
        scen = builtin("atv")
        res = inner_node_search(scen, resolution=10)
        assert isinstance(res, PlanResult)
        assert res.grid.nodes.tolist() == [scen.theta0, res.theta2, scen.theta_f]
        again = plan_rendezvous(scen, grid=res.grid)
        assert res.status == again.solution.status == "optimal"
        assert res.total_dv == again.plan.total_dv
        assert res.plan.terminal_error == again.plan.terminal_error

    def test_no_plan_at_the_chosen_grid_costs_inf(self):
        res = inner_node_search(builtin("atv"), resolution=10, settings=SolverSettings(max_iters=2))
        assert res.plan is None and res.total_dv == math.inf
        assert res.status == res.solution.status == "max_iters"

    def test_refinement_stable_across_resolutions(self):
        # resolutions bracketing the same basin refine to the same point;
        # the cost curve has one basin per revolution, so the scan must be
        # finer than the revolution count
        r10 = inner_node_search(builtin("circle2circle"), resolution=10)
        r100 = inner_node_search(builtin("circle2circle"), resolution=100)
        assert abs(r10.theta2 - r100.theta2) < 1e-5
        assert abs(r10.total_dv - r100.total_dv) < 1e-9

    def test_scan_costs_are_the_plan_totals(self):
        scen = builtin("atv")
        res = inner_node_search(scen, resolution=100)
        for k in (0, 49, 99):
            grid = grid_from_nodes(scen, [scen.theta0, res.scan_nodes[k], scen.theta_f])
            total = plan_rendezvous(scen, grid=grid).plan.total_dv
            assert res.scan_costs[k] == pytest.approx(total, rel=1e-10, abs=0.0)

    # theta2 and total of the golden-section refinement this search replaced
    # (simbolx is left out: its cost curve is flat in theta2)
    @pytest.mark.parametrize("name, theta2, total", [
        ("atv", 59.90767063874531, 0.007743558134796338),
        ("circle2circle", 6.605393960657892, 0.18543803681792353),
    ])
    def test_bracket_rounds_find_the_golden_section_optimum(self, name, theta2, total):
        res = inner_node_search(builtin(name), resolution=100)
        assert res.status == "optimal"
        assert abs(res.theta2 - theta2) <= 1e-5
        assert res.total_dv == pytest.approx(total, rel=1e-9, abs=0.0)

    # synthetic cost curves of x = theta2 - theta*, each with its known
    # minimiser: an asymmetric curve, a kink, and a smooth curve that is
    # inf beyond a point of the bracket
    @pytest.mark.parametrize("curve, minimiser", [
        (lambda x: np.abs(x) ** 1.5 + 0.3 * x, -0.04),
        (lambda x: np.abs(x) + 0.5 * x, 0.0),
        (lambda x: np.where(x < 0.01, np.exp(x) - x, np.inf), 0.0),
    ], ids=["asymmetric", "kink", "inf-beyond"])
    def test_safeguarded_steps_find_a_synthetic_minimum(self, monkeypatch, curve, minimiser):
        scen = builtin("atv")
        centre = scen.theta0 + (scen.theta_f - scen.theta0) * 50.3 / 101
        monkeypatch.setattr(postprocess, "_three_node_costs",
                            lambda scenario, thetas, settings: curve(thetas - centre))
        res = inner_node_search(scen, resolution=100)
        assert abs(res.theta2 - (centre + minimiser)) <= 1e-6
        best = int(np.argmin(res.scan_costs))
        assert res.scan_nodes[best - 1] < res.theta2 < res.scan_nodes[best + 1]
        assert res.bracket_rounds >= 1

    def test_a_window_that_misses_the_minimum_gives_way_to_the_bracket(self, monkeypatch):
        # ripples 6.3e-3 rad long on a parabola: the coarse fit's window lies
        # beside the rippled minimum, its best lands on the window's edge,
        # and only a return to the bracket ends at a local minimum
        scen = builtin("circle2circle")
        centre = scen.theta0 + (scen.theta_f - scen.theta0) * 50.3 / 101

        def curve(theta):
            x = theta - centre
            return x**2 + 1e-5 * np.cos(x / 1e-3 + 1.0)
        monkeypatch.setattr(postprocess, "_three_node_costs",
                            lambda scenario, thetas, settings: curve(thetas))
        res = inner_node_search(scen, resolution=100)
        assert curve(res.theta2) <= min(curve(res.theta2 - 1e-6), curve(res.theta2 + 1e-6))

    @pytest.mark.parametrize("name, rounds", [("atv", 2), ("circle2circle", 1)])
    def test_one_or_two_rounds_find_the_fine_optimum(self, monkeypatch, name, rounds):
        scen = builtin(name)
        calls = []

        def counted(scenario, thetas, settings):
            costs = _three_node_costs(scenario, thetas, settings)
            calls.append((thetas, costs))
            return costs
        monkeypatch.setattr(postprocess, "_three_node_costs", counted)
        res = inner_node_search(scen, resolution=100)
        assert len(calls) <= 1 + rounds
        assert res.bracket_rounds == len(res.rounds) == len(calls) - 1
        # each record describes the family its round solved
        for record, (thetas, costs) in zip(res.rounds, calls[1:]):
            assert record.lo < thetas.min() and thetas.max() < record.hi
            assert record.best == np.argmin(costs) and record.wall_time > 0.0
        # the answer comes from a round whose window an estimate placed
        assert res.rounds[-1].placed
        # however the search got there: no anomaly of a fine family around
        # its answer costs less
        near = _three_node_costs(scen, np.linspace(res.theta2 - 1e-4, res.theta2 + 1e-4, 33), None)
        assert res.total_dv <= near.min() * (1.0 + 1e-12)

    def test_a_noisy_draw_reaches_the_optimum_of_a_fine_family(self):
        # perfbench inner-node draw (seed 4201, block 0, draw 5), written with
        # save_scenario: its cost jumps by 1e-7 of itself within 5e-6 rad of
        # the optimum, and a fit across the jump puts the minimum 2.4e-6 rad
        # beside it
        scen = load_scenario(DATA / "gen-4201-0-5.json")
        res = inner_node_search(scen, resolution=100)
        assert res.status == "optimal"
        assert res.bracket_rounds <= 4
        near = _three_node_costs(scen, np.linspace(res.theta2 - 1e-4, res.theta2 + 1e-4, 33), None)
        assert res.total_dv <= near.min() * (1.0 + 1e-12)

    @staticmethod
    def _quartic(a, b, c, x_min):
        return lambda x: a * (x - x_min) ** 2 + b * (x - x_min) ** 3 + c * (x - x_min) ** 4

    def test_stencil_minimum_is_exact_on_a_quartic(self):
        points = np.linspace(0.0, 1.0, 33)
        curve = self._quartic(2.0, 1.5, 3.0, 0.4337)
        j = int(np.argmin(curve(points)))
        estimate, spread, margin = postprocess._stencil_minimum(points, curve(points), j)
        assert estimate == pytest.approx(0.4337, abs=1e-12)
        assert spread <= margin <= 1e-12

    @pytest.mark.parametrize("curve", [
        lambda x: np.abs(x - 0.5) + 0.5 * (x - 0.5),
        lambda x: np.where(x < 0.56, (x - 0.5) ** 2, np.inf),
        lambda x: np.where(x > 0.45, (x - 0.5) ** 2, np.inf),
    ], ids=["kink", "inf-beside-right", "inf-beside-left"])
    def test_stencil_minimum_is_unusable(self, curve):
        points = np.linspace(0.0, 1.0, 33) + 0.3 / 32
        costs = curve(points)
        j = int(np.argmin(costs))
        estimate, spread, margin = postprocess._stencil_minimum(points, costs, j)
        assert math.isnan(estimate) and spread == margin == math.inf

    @given(a=st.floats(0.1, 10.0), c=st.floats(0.0, 10.0), skew=st.floats(-0.99, 0.99),
           where=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_search_lands_on_the_minimum_of_a_unimodal_quartic(self, a, c, skew, where):
        # a (x - x*)^2 + b (x - x*)^3 + c (x - x*)^4 has one minimum, at x*,
        # while 9 b^2 < 32 a c
        scen = builtin("circle2circle")
        x_min = scen.theta0 + (scen.theta_f - scen.theta0) * where
        curve = self._quartic(a, skew * math.sqrt(32.0 * a * c / 9.0), c, x_min)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(postprocess, "_three_node_costs", lambda scenario, thetas, settings: curve(thetas))
            res = inner_node_search(scen, resolution=100)
        assert abs(res.theta2 - x_min) <= 1e-6

    @pytest.mark.parametrize("planar", [True, False])
    def test_a_round_takes_the_same_kernel_calls_for_any_size(self, monkeypatch, planar):
        # one grid, one assembly and one costing per round: the Kepler times
        # and transition matrices of a whole family come from a fixed number
        # of array calls, however many candidates it has
        scen = replace(builtin("atv"), planar=planar)
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(transcription, "time_from_true")
        for name in ("stm_in_plane", "stm_out_of_plane", "stm_full"):
            counted(transcription.rd, name)
        counts = []
        for k in (4, 64):
            calls.clear()
            thetas = scen.theta0 + (scen.theta_f - scen.theta0) * np.arange(1, k + 1) / (k + 1)
            assert np.all(np.isfinite(_three_node_costs(scen, thetas, None)))
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["time_from_true"] == 1

    def test_candidates_without_an_optimal_solve_cost_inf(self):
        scen = builtin("atv")
        thetas = np.linspace(10.0, 50.0, 4)
        capped = _three_node_costs(scen, thetas, SolverSettings(max_iters=2))
        assert np.all(capped == math.inf)

    def test_search_repeats_its_recorded_results(self, monkeypatch):
        # theta2 and total recorded bit for bit with 16 bracket points, the
        # scan costs before the candidates were built as one family; like
        # the assembly pins they hold for one numpy and BLAS build
        monkeypatch.setattr(postprocess, "_BRACKET_POINTS", 16)
        pins = json.loads((DATA / "inner-node-search-pins.json").read_text())
        for name, pin in pins.items():
            res = inner_node_search(builtin(name), resolution=100)
            assert res.theta2 == pin["theta2"], name
            assert res.total_dv == pin["total_dv"], name
            assert res.scan_costs.tolist() == pin["scan_costs"], name

    def test_endpoint_only_optimum_leaves_inner_node_idle(self):
        # two-impulse case: the swept interior burn stays below 1e-5 m/s
        res = inner_node_search(builtin("simbolx"), resolution=30)
        interior = res.plan.raw_magnitudes[1:-1]
        assert np.all(interior * 1e3 < 1e-5)


class TestFullFormPlans:
    def test_raw_plan_closes_on_a_long_eccentric_draw(self):
        # e=0.63 over 5.2 revolutions, where |Phi(thetaf, theta_j)| reaches
        # ~800: a defect residual far below feas_tol used to grow through it
        # past the benchmark gate's closure limit
        scen = load_scenario(DATA / "gen-4209-1-9.json")
        res = plan_rendezvous(scen, mesh_m=65, form="full")
        assert res.solution.status == "optimal"
        expanded = expand_solution(res.problem, res.solution, scen, res.grid)
        err = verify_plan(extract_impulses(expanded, res.grid, scen, tol=0.0), scen)
        # the benchmark gate's closure limit: a miss of feas_tol * (1 + |b|) in
        # scaled transformed coordinates, mapped to verify_plan's scaled units
        orbit, theta = scen.orbit, scen.theta_f
        rho = 1.0 + orbit.e * math.cos(theta)
        gain = max(1.0 / rho, orbit.k2 / orbit.n * (orbit.e * abs(math.sin(theta)) + rho))
        limit = SolverSettings().feas_tol * (1.0 + np.linalg.norm(res.problem.b)) * gain
        assert max(err.position_scaled, err.velocity_scaled) <= 0.1 * limit

    @pytest.mark.parametrize("m", [33, 65])
    def test_ill_conditioned_states_leave_the_plan_exact(self, m):
        # e=0.761 in 3-D, where cond Phi(thetaf, theta_j) reaches 8.5e7: the
        # states solved from it once, after the loop, still close every row
        # block, and the plan costs what the condensed form's does
        scen = load_scenario(DATA / "gen-912-1-11.json")
        full = plan_rendezvous(scen, mesh_m=m, form="full")
        condensed = plan_rendezvous(scen, mesh_m=m)
        assert full.solution.status == "optimal"
        prob, x = full.problem, full.solution.x
        assert isinstance(prob.A, StageMatrix)
        assert np.linalg.norm(prob.A @ x - prob.b) / (1.0 + np.linalg.norm(prob.b)) <= 1e-10
        assert full.plan.total_dv == pytest.approx(condensed.plan.total_dv, rel=1e-8)

    def test_large_mesh_matches_condensed(self):
        # the full form presolves to the condensed program bit for bit, so
        # its plan is the condensed plan
        for name in ("atv", "circle2circle", "simbolx"):
            scen = builtin(name)
            full = plan_rendezvous(scen, mesh_m=1025, form="full")
            condensed = plan_rendezvous(scen, mesh_m=1025)
            assert full.solution.status == "optimal"
            assert condensed.solution.status == "optimal"
            assert full.plan.total_dv == condensed.plan.total_dv
            assert full.solution.iterations == condensed.solution.iterations
