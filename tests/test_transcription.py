import math
from dataclasses import replace

import numpy as np
import pytest

from rdvopt import (
    assemble_socp,
    build_grid,
    builtin,
    expand_solution,
    grid_from_nodes,
    solve,
    stm_full,
    to_transformed,
    transform_boundaries,
)

@pytest.fixture(scope="module")
def c2c():
    return builtin("circle2circle")


@pytest.fixture(scope="module")
def atv():
    return builtin("atv")


class TestScenarioHorizon:
    def test_exactly_one_horizon_entry(self, c2c):
        with pytest.raises(ValueError, match="exactly one"):
            replace(c2c, duration=10.0)  # thetaf already set
        with pytest.raises(ValueError, match="exactly one"):
            replace(c2c, thetaf=None)

    def test_duration_and_anomaly_agree(self, atv):
        thf = atv.theta_f
        via_theta = replace(atv, duration=None, thetaf=thf)
        assert via_theta.duration_seconds == pytest.approx(55350.0, abs=1e-6)

    def test_unit_system_scales(self, atv, c2c):
        u = atv.units
        assert u.length == pytest.approx(atv.orbit.p)
        assert u.velocity == pytest.approx(atv.orbit.p * atv.orbit.n)
        assert c2c.units.length == 1.0 and c2c.units.velocity == 1.0


class TestBuildGrid:
    def test_two_nodes(self, c2c):
        g = build_grid(c2c, 2)
        assert list(g.nodes) == [0.0, 10.0]
        assert g.times[0] == 0.0

    def test_grid_contains_published_interior_node(self, c2c):
        # 257 uniform nodes on [0, 10]: node 72 sits at 2.8125 exactly
        g = build_grid(c2c, 257)
        assert g.nodes[72] == 2.8125
        assert g.nodes[184] == 7.1875

    def test_final_node_matches_published_anomaly(self):
        g = build_grid(builtin("simbolx"), 257)
        assert g.nodes[-1] == pytest.approx(2.7859, abs=1e-4)
        assert g.times[-1] == pytest.approx(49995.0, abs=1e-6)

    def test_invalid_mesh_rejected(self, c2c):
        with pytest.raises(ValueError, match="at least 2"):
            build_grid(c2c, 1)

    def test_explicit_nodes(self, atv):
        g = grid_from_nodes(atv, [0.0, 30.0, atv.theta_f])
        assert g.m == 3
        with pytest.raises(ValueError, match="increasing"):
            grid_from_nodes(atv, [0.0, 5.0, 1.0])


class TestTransformBoundaries:
    def test_rendezvous_target_is_zero(self, atv):
        g = build_grid(atv, 5)
        _, xft = transform_boundaries(atv, g)
        assert np.allclose(xft.v[1], 0.0)

    def test_circular_normalized_boundary_is_identity(self, c2c):
        x0t, xft = transform_boundaries(c2c, build_grid(c2c, 3))
        assert np.allclose(x0t.vector, [-math.pi, 0.0, 1.0 / 6.0, 0.25, 0.0, 0.0], atol=1e-15)
        assert not np.any(xft.vector)

    def test_station_orbit_departure_scaling(self, atv):
        # rho(theta0 = 0) = 1 + e
        x0t, _ = transform_boundaries(atv)
        assert np.allclose(x0t.r, 1.0052 * atv.x0.r, rtol=1e-12)


class TestAssembleSocp:
    def test_condensed_planar_dimensions(self, c2c):
        prob = assemble_socp(c2c, build_grid(c2c, 2))
        assert prob.c.size == 6
        assert prob.A.shape == (4, 6)
        assert prob.cones.soc_dims == (3, 3)

    def test_condensed_3d_dimensions(self, c2c):
        scen3d = replace(c2c, planar=False)
        prob = assemble_socp(scen3d, build_grid(scen3d, 257))
        assert prob.c.size == 1028
        assert prob.A.shape == (6, 1028)
        assert prob.cones.soc_dims == (4,) * 257

    def test_full_form_dimensions(self, c2c):
        prob = assemble_socp(c2c, build_grid(c2c, 5), form="full")
        assert prob.cones.n_free == 20
        assert prob.c.size == 20 + 15
        assert prob.A.shape == (24, 35)

    def test_unknown_form_rejected(self, c2c):
        with pytest.raises(ValueError, match="form"):
            assemble_socp(c2c, build_grid(c2c, 3), form="dense")

    def test_cost_carries_node_weights(self, atv):
        g = build_grid(atv, 9)
        prob = assemble_socp(atv, g)
        w = prob.c[prob.var_map["sigma"]]
        assert np.allclose(w, (atv.orbit.k2 / atv.orbit.n) * g.rho, rtol=1e-13)

    def test_full_and_condensed_objectives_agree(self, c2c):
        g = build_grid(c2c, 17)
        obj = {}
        for form in ("condensed", "full"):
            sol = solve(assemble_socp(c2c, g, form=form))
            assert sol.status == "optimal"
            obj[form] = sol.objective
        assert abs(obj["full"] - obj["condensed"]) < 1e-9 * (1 + abs(obj["condensed"]))


@pytest.fixture(scope="module")
def solved(c2c):
    grid = build_grid(c2c, 33)
    prob = assemble_socp(c2c, grid)
    sol = solve(prob)
    assert sol.status == "optimal"
    return c2c, grid, prob, sol


class TestSolvedProblemProperties:

    def test_epigraph_tightness_at_optimum(self, solved):
        _, _, prob, sol = solved
        vm = prob.var_map
        sigma = sol.x[vm["sigma"]]
        dv_norm = np.linalg.norm(sol.x[vm["dv"]], axis=1)
        assert np.all(sigma - dv_norm <= 1e-8 * np.maximum(1.0, sigma))
        assert np.all(dv_norm <= sigma + 1e-9)

    def test_physical_cost_identity(self, solved):
        scen, grid, prob, sol = solved
        vm = prob.var_map
        dv_norm = np.linalg.norm(sol.x[vm["dv"]], axis=1)
        physical = float(np.sum(vm["weights"] * dv_norm))
        assert physical == pytest.approx(sol.objective, abs=1e-8 * (1 + sol.objective))

    def test_nested_grid_monotonicity(self, c2c):
        costs = []
        for m in (5, 9, 17, 33):
            sol = solve(assemble_socp(c2c, build_grid(c2c, m)))
            assert sol.status == "optimal"
            costs.append(sol.objective)
        for coarse, fine in zip(costs, costs[1:]):
            assert fine <= coarse + 1e-9


class TestExpandSolution:
    def test_coasting_scenario_has_zero_impulses(self, c2c):
        # terminal state chosen as the free drift of the initial state
        drift = stm_full(10.0, 0.0, c2c.orbit) @ to_transformed(c2c.x0, 0.0, c2c.orbit).vector
        from rdvopt import TransformedState, from_transformed

        xf = from_transformed(TransformedState.from_vector(drift), 10.0, c2c.orbit)
        scen = replace(c2c, xf=xf)
        grid = build_grid(scen, 9)
        prob = assemble_socp(scen, grid)
        sol = solve(prob)
        assert sol.status == "optimal"
        exp = expand_solution(prob, sol, scen, grid)
        assert np.max(np.abs(exp.dv)) < 1e-7
        # states follow the transition chain
        from rdvopt import stm_in_plane

        for j in range(grid.m - 1):
            phi = stm_in_plane(grid.nodes[j + 1], grid.nodes[j], scen.orbit)
            err = exp.x_minus[j + 1] - phi @ exp.x_plus[j]
            assert np.max(np.abs(err)) < 1e-9

    def test_terminal_state_reaches_target(self, c2c):
        grid = build_grid(c2c, 33)
        prob = assemble_socp(c2c, grid)
        sol = solve(prob)
        exp = expand_solution(prob, sol, c2c, grid)
        _, xft = transform_boundaries(c2c, grid)
        target = xft.vector[[0, 2, 3, 5]] / c2c.units.length
        assert np.max(np.abs(exp.x_plus[-1] - target)) < 1e-6

    def test_full_form_expansion_matches_condensed(self, c2c):
        grid = build_grid(c2c, 9)
        out = {}
        for form in ("condensed", "full"):
            prob = assemble_socp(c2c, grid, form=form)
            sol = solve(prob)
            out[form] = expand_solution(prob, sol, c2c, grid)
        assert np.max(np.abs(out["full"].x_minus - out["condensed"].x_minus)) < 1e-6
        assert np.max(np.abs(out["full"].dv - out["condensed"].dv)) < 1e-6

    def test_rejects_failed_solutions(self, c2c):
        grid = build_grid(c2c, 5)
        prob = assemble_socp(c2c, grid)
        bad = replace(solve(prob), status="numerical_failure")
        with pytest.raises(ValueError, match="status"):
            expand_solution(prob, bad, c2c, grid)
