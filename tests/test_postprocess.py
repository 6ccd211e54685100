import json
import math
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

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
    to_inertial,
    to_transformed,
    verify_plan,
)
from rdvopt import postprocess, transcription
from rdvopt.postprocess import ImpulsePlan, TrajectorySample, _three_node_costs
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

    def test_ends_where_verification_ends_whatever_the_burn_list(self, c2c_result):
        # one burn split in two halves, or the burns out of anomaly order, is
        # the same plan: the last sample is verify_plan's propagated end state
        scen = builtin("circle2circle")
        plan = c2c_result.plan
        burns = plan.impulses
        half = replace(burns[1], dv=burns[1].dv / 2, magnitude=burns[1].magnitude / 2)
        for impulses in (burns, burns[:1] + [half, half] + burns[2:],
                         [burns[k] for k in (2, 0, 3, 1)]):
            variant = replace(plan, impulses=impulses, n_impulses=len(impulses))
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
        # theta2, total and scan costs recorded bit for bit with 16 bracket
        # points before the candidates were built as one family; like the
        # assembly pins they hold for one numpy and BLAS build
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

    def test_large_mesh_matches_condensed(self):
        for name in ("atv", "circle2circle", "simbolx"):
            scen = builtin(name)
            full = plan_rendezvous(scen, mesh_m=1025, form="full")
            condensed = plan_rendezvous(scen, mesh_m=1025)
            assert full.solution.status == "optimal"
            assert condensed.solution.status == "optimal"
            assert full.plan.total_dv == pytest.approx(condensed.plan.total_dv, rel=1e-8)
