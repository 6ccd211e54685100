import hashlib
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
    plan_rendezvous,
    solve,
    stm_full,
    stm_in_plane,
    to_transformed,
    transform_boundaries,
)
from rdvopt import transcription
from rdvopt.conic_solver import BEST_EFFORT


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

    @pytest.mark.parametrize("m", [3.5, 33.0, True, "33"])
    def test_non_integer_mesh_rejected(self, c2c, m):
        # a size is rejected, never truncated or handed to numpy
        with pytest.raises(ValueError, match="mesh size must be an integer"):
            plan_rendezvous(c2c, mesh_m=m)

    def test_non_integer_scenario_mesh_rejected(self, c2c):
        # the scenario's default size is checked when it is built, not at the solve
        with pytest.raises(ValueError, match="mesh_m must be an integer of at least 2"):
            replace(c2c, mesh_m=3.5)

    def test_mesh_size_and_grid_together_rejected(self, c2c):
        with pytest.raises(ValueError, match="not both"):
            plan_rendezvous(c2c, mesh_m=33, grid=build_grid(c2c, 9))

    def test_explicit_nodes(self, atv):
        g = grid_from_nodes(atv, [0.0, 30.0, atv.theta_f])
        assert g.m == 3
        with pytest.raises(ValueError, match="increasing"):
            grid_from_nodes(atv, [0.0, 5.0, 1.0])


class TestTransformBoundaries:
    def test_rendezvous_target_is_zero(self, atv):
        _, xft = transform_boundaries(atv)
        assert np.allclose(xft.v[1], 0.0)

    def test_circular_normalized_boundary_is_identity(self, c2c):
        x0t, xft = transform_boundaries(c2c)
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

    def test_full_form_is_held_in_stage_blocks(self, atv):
        # O(M) storage: A as a dense array would take 235.6 MB at M=1025
        prob = assemble_socp(atv, build_grid(atv, 1025), form="full")
        # every array it holds: c, b, A's blocks and index maps, var_map
        arrays = [prob.c, prob.b, *vars(prob.A).values(), *prob.var_map.values()]
        assert prob.A.shape == (4104, 7175)
        assert sum(v.nbytes for v in arrays if isinstance(v, np.ndarray)) < 10e6

    @pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
    def test_full_form_block_products_match_the_dense_matrix(self, atv, planar):
        # A @ v and v @ A against the dense A laid out from the blocks D_j and
        # C_j = D_j [0 | B]: D_0 x_0, then D_{j+1} x_{j+1} - D_j x_j - C_j cone_j,
        # then D_{m-1} x_{m-1} + C_{m-1} cone_{m-1}
        scen = replace(atv, planar=planar)
        rng = np.random.default_rng(9)
        for m in (2, 9, 33):
            a = assemble_socp(scen, build_grid(scen, m), form="full").A
            _, d, w = a.cones.shape
            assert a.cones.shape == (m, d, w) and a.diag.shape == (m, d, d)
            dense = np.zeros(a.shape)
            for j in range(m):
                states, cone = slice(d * j, d * (j + 1)), slice(m * d + w * j, m * d + w * (j + 1))
                sign = 1.0 if j == m - 1 else -1.0
                dense[d * j:d * (j + 1), states] = a.diag[j]
                dense[d * (j + 1):d * (j + 2), states] += sign * a.diag[j]
                dense[d * (j + 1):d * (j + 2), cone] = sign * a.cones[j]
            assert np.array_equal(np.asarray(a), dense)
            (p, n), products = a.shape, []
            for v in (rng.normal(size=n), rng.normal(size=(n, 3))):
                products.append((a @ v, dense @ v))
            for v in (rng.normal(size=p), rng.normal(size=(3, p))):
                products.append((v @ a, v @ dense))
            for got, want in products:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

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
        # the full form presolves to the condensed program bit for bit
        assert obj["full"] == obj["condensed"]


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
        _, xft = transform_boundaries(c2c)
        target = xft.vector[[0, 2, 3, 5]] / c2c.units.length
        assert np.max(np.abs(exp.x_plus[-1] - target)) < 1e-6

    def test_full_form_expansion_matches_condensed(self, c2c):
        grid = build_grid(c2c, 9)
        out = {}
        for form in ("condensed", "full"):
            prob = assemble_socp(c2c, grid, form=form)
            sol = solve(prob)
            out[form] = expand_solution(prob, sol, c2c, grid)
        # the lift's states against the condensed chain, an independent check
        assert np.max(np.abs(out["full"].x_minus - out["condensed"].x_minus)) < 1e-6
        assert np.array_equal(out["full"].dv, out["condensed"].dv)

    def test_condensed_states_are_built_on_first_read(self, c2c):
        grid = build_grid(c2c, 9)
        prob = assemble_socp(c2c, grid)
        exp = expand_solution(prob, solve(prob), c2c, grid)
        assert "x_minus" not in vars(exp)
        assert np.array_equal(exp.x_plus, exp.x_minus + exp.jumps)
        assert exp.x_minus is exp.x_minus

    def test_rejects_failed_solutions(self, c2c):
        grid = build_grid(c2c, 5)
        prob = assemble_socp(c2c, grid)
        bad = replace(solve(prob), status="numerical_failure")
        with pytest.raises(ValueError, match="status"):
            expand_solution(prob, bad, c2c, grid)

    @pytest.mark.parametrize("status", BEST_EFFORT)
    def test_expands_best_effort_solutions(self, c2c, status):
        grid = build_grid(c2c, 5)
        prob = assemble_socp(c2c, grid)
        sol = solve(prob)
        exp = expand_solution(prob, replace(sol, status=status), c2c, grid)
        assert np.array_equal(exp.dv, expand_solution(prob, sol, c2c, grid).dv)


class TestGridWideMatrices:
    @pytest.mark.parametrize("name", ["simbolx", "atv-3d"])
    def test_condensed_columns_equal_chained_segments(self, name):
        scen = builtin(name.removesuffix("-3d"))
        if name.endswith("-3d"):
            scen = replace(scen, planar=False)
        grid = build_grid(scen, 129)
        prob = assemble_socp(scen, grid)
        stm = stm_in_plane if scen.planar else stm_full
        d, q = scen.state_dim, scen.input_dim
        # Phi(thetaf, theta_j) as the product of the segment matrices after node j
        chain = np.eye(d)
        cols = [chain[:, d - q:]]
        for j in range(grid.m - 2, -1, -1):
            chain = chain @ stm(float(grid.nodes[j + 1]), float(grid.nodes[j]), scen.orbit)
            cols.append(chain[:, d - q:])
        want = np.stack(cols[::-1])
        got = np.stack([prob.A[:, idx] for idx in prob.var_map["dv"]])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        x0t, xft = transform_boundaries(scen)
        sel = [0, 2, 3, 5] if scen.planar else list(range(6))
        b = (xft.vector[sel] - chain @ x0t.vector[sel]) / scen.units.length
        assert np.max(np.abs(prob.b - b)) <= 1e-10 * np.max(np.abs(b))

    def test_full_form_defects_use_segment_matrices(self, atv):
        # every defect block is stated at thetaf: Phi(thetaf, theta_{j+1}) times
        # the block x_{j+1} - Phi_j x_j - Phi_j B dv_j, block 0 pins x_0 there
        scen = replace(atv, planar=False)
        grid = build_grid(scen, 9)
        prob = assemble_socp(scen, grid, form="full")
        a = np.asarray(prob.A)
        d, m = scen.state_dim, grid.m
        thf = float(grid.nodes[-1])
        dv = prob.var_map["dv"]

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        phif = stm_full(thf, float(grid.nodes[0]), scen.orbit)
        x0t, _ = transform_boundaries(scen)
        assert close(a[:d, :d], phif)
        assert close(prob.b[:d], phif @ x0t.vector / scen.units.length)
        for j in range(m - 1):
            rows = slice(d * (j + 1), d * (j + 2))
            phi = stm_full(float(grid.nodes[j + 1]), float(grid.nodes[j]), scen.orbit)
            phif = stm_full(thf, float(grid.nodes[j + 1]), scen.orbit)
            seg = phif @ phi
            assert close(a[rows, d * j:d * (j + 1)], -seg)
            assert close(a[rows, d * (j + 1):d * (j + 2)], phif)
            assert close(a[rows, dv[j]], -seg[:, 3:])
            rest = a[rows].copy()
            rest[:, d * j:d * (j + 2)] = 0.0
            rest[:, dv[j]] = 0.0
            assert not np.any(rest)
            assert not np.any(prob.b[rows])

    def test_full_form_blocks_telescope_to_the_condensed_row(self, atv):
        # terminal block minus every other block: the node states cancel
        # exactly and what is left is the condensed terminal row, bit for bit,
        # so the blocks' residuals sum to the plan's terminal miss
        for scen in (atv, replace(atv, planar=False)):
            grid = build_grid(scen, 33)
            full = assemble_socp(scen, grid, form="full")
            cond = assemble_socp(scen, grid)
            d, m = scen.state_dim, grid.m
            a_blocks = np.asarray(full.A).reshape(m + 1, d, -1)
            b_blocks = full.b.reshape(m + 1, d)
            a_tel = a_blocks[m] - a_blocks[:m].sum(axis=0)
            b_tel = b_blocks[m] - b_blocks[:m].sum(axis=0)
            assert not np.any(a_tel[:, :d * m])
            assert np.array_equal(a_tel[:, full.var_map["dv"]], cond.A[:, cond.var_map["dv"]])
            assert np.array_equal(a_tel[:, full.var_map["sigma"]], cond.A[:, cond.var_map["sigma"]])
            assert np.array_equal(b_tel, cond.b)


def _scenario(name):
    scen = builtin(name.removesuffix("-3d"))
    return replace(scen, planar=False) if name.endswith("-3d") else scen


def _family_nodes(scen, inner):
    """(K, m) nodes: the horizon ends around each row of interior anomalies."""
    inner = np.atleast_2d(inner)
    ends = np.ones((inner.shape[0], 1))
    return np.hstack([scen.theta0 * ends, inner, scen.theta_f * ends])


def _scan_and_random_families(scen):
    """The inner-node scan's three-node family and a random five-node one."""
    span = scen.theta_f - scen.theta0
    scan = scen.theta0 + span * np.arange(1, 101) / 101
    rng = np.random.default_rng(7)
    inner = np.sort(rng.uniform(scen.theta0, scen.theta_f, (24, 3)), axis=-1)
    return _family_nodes(scen, scan[:, None]), _family_nodes(scen, inner)


class TestOneMatrixPerNode:
    @pytest.mark.parametrize("name", ["atv", "simbolx", "circle2circle",
                                      "atv-3d", "simbolx-3d", "circle2circle-3d"])
    def test_full_form_presolves_to_the_condensed_program(self, name):
        # both forms hold the same C_j and D_0 = Phi(thetaf, theta0), so the
        # presolve of the full form returns the condensed program bit for bit
        scen = _scenario(name)
        for m in (2, 9, 33, 257):
            grid = build_grid(scen, m)
            full = assemble_socp(scen, grid, form="full")
            reduced = full.A.presolve(full)
            cond = assemble_socp(scen, grid)
            assert reduced.cones == cond.cones, m
            for got, want in ((reduced.c, cond.c), (reduced.A, cond.A), (reduced.b, cond.b)):
                assert np.array_equal(got, want), m

    @pytest.mark.parametrize("form", ["condensed", "full"])
    def test_one_transition_matrix_call_per_assembly(self, atv, form, monkeypatch):
        real, calls = transcription._stm, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(transcription, "_stm", counting)
        assemble_socp(atv, build_grid(atv, 9), form=form)
        assert len(calls) == 1


class TestGridFamilies:
    def test_stacked_grid_rows_equal_single_grids(self, atv):
        for nodes in _scan_and_random_families(atv):
            grid = grid_from_nodes(atv, nodes)
            assert grid.m == nodes.shape[1]
            for k, row in enumerate(nodes):
                one = grid_from_nodes(atv, row)
                assert np.array_equal(grid.nodes[k], one.nodes)
                assert np.array_equal(grid.times[k], one.times)
                assert np.array_equal(grid.rho[k], one.rho)

    def test_non_increasing_row_rejected(self, atv):
        nodes = _family_nodes(atv, [[10.0, 20.0], [30.0, 40.0], [40.0, 40.0]])
        with pytest.raises(ValueError, match="increasing"):
            grid_from_nodes(atv, nodes)

    @pytest.mark.parametrize("name", ["atv", "simbolx", "circle2circle", "atv-3d", "simbolx-3d"])
    def test_stacked_programs_equal_single_assemblies(self, name):
        scen = _scenario(name)
        for nodes in _scan_and_random_families(scen):
            family = assemble_socp(scen, grid_from_nodes(scen, nodes))
            assert family.A.shape[0] == nodes.shape[0]
            for k, row in enumerate(nodes):
                one = assemble_socp(scen, grid_from_nodes(scen, row))
                assert np.array_equal(family.c[k], one.c)
                assert np.array_equal(family.A[k], one.A)
                assert np.array_equal(family.b[k], one.b)
                assert family.cones == one.cones
                assert family.var_map.keys() == one.var_map.keys()
                for key, value in one.var_map.items():
                    got = family.var_map[key]
                    # the node weights are per program, the rest is shared
                    assert np.array_equal(got[k] if key == "weights" else got, value), key

    def test_full_form_rejects_a_family(self, atv):
        grid = grid_from_nodes(atv, _family_nodes(atv, [[10.0], [20.0]]))
        with pytest.raises(ValueError, match="single grid"):
            assemble_socp(atv, grid, form="full")

    def test_family_must_share_its_ends(self, atv):
        nodes = _family_nodes(atv, [[10.0], [20.0]])
        nodes[1, -1] -= 1.0
        with pytest.raises(ValueError, match="end anomalies"):
            assemble_socp(atv, grid_from_nodes(atv, nodes))

    @pytest.mark.parametrize("ends", [(0.0, 50.0), (1.0, None)])
    def test_single_grid_must_end_at_the_horizon(self, atv, ends):
        # the horizon is [0, 62.83]: a grid ending at 50 plans a transfer
        # that misses the target by 2.1 km, so it must not be solved at all
        first, last = ends
        grid = grid_from_nodes(atv, [first, 30.0, atv.theta_f if last is None else last])
        with pytest.raises(ValueError, match="end anomalies"):
            assemble_socp(atv, grid)
        with pytest.raises(ValueError, match="end anomalies"):
            plan_rendezvous(atv, grid=grid)


# SHA-256 (first 32 hex digits) of c, A and b of single-grid programs;
# numpy 2.4 on x86-64.  The condensed pins date from before grids had a
# family axis.  The pins are bit-level, so another numpy or libm build may
# need them re-recorded in place.
RECORDED_ASSEMBLIES = [
    ("atv", "condensed", 9, "6842dc491296a92b95ce67688c09690c"),
    ("atv", "condensed", 257, "b05ac305eb0d29c224a76f69bd5e1b16"),
    ("atv", "condensed", 513, "47bdcfe0c9940e750bacbe104e592200"),
    ("atv", "full", 33, "1c41bdf85eb4d60c0743a94f3da51714"),
    ("atv", "full", 65, "c363946d3c9672a259f51c3ec8de89fc"),
    ("atv-3d", "condensed", 9, "76d5ed6bf7526a93de1d8a50562ce8fd"),
    ("atv-3d", "condensed", 257, "d4c30b03eac69cdef67be7478de876dd"),
    ("atv-3d", "condensed", 513, "f851243e67b49c83af252ab40edc919b"),
    ("atv-3d", "full", 33, "3609812eb29c8ce984ede5bbc9a2d7ad"),
    ("atv-3d", "full", 65, "53ab048032f34ea90af3483dcbd37cf0"),
    ("circle2circle", "condensed", 9, "ea39e445abaa0c5c8700d6dab12ded50"),
    ("circle2circle", "condensed", 257, "eab7eee9b57256fa0b18796ccc95f92e"),
    ("circle2circle", "condensed", 513, "df39a1707cca0d037eda825d3121be44"),
    ("circle2circle", "full", 33, "68ed6d8853f31c751e409fa360d52f94"),
    ("circle2circle", "full", 65, "f06bb10bcf523d51a929fb7f1978b1dc"),
    ("circle2circle-3d", "condensed", 9, "79c83810aa1a5afcb1c7931a45ab9433"),
    ("circle2circle-3d", "condensed", 257, "ac77c3d2fd80e0d057545ad344ec31ac"),
    ("circle2circle-3d", "condensed", 513, "a5dfe0cd4ca04ffcb69a898e7dca5ee8"),
    ("circle2circle-3d", "full", 33, "dac3e08bff2512e4123e8fc2a24556f6"),
    ("circle2circle-3d", "full", 65, "f70622fd90705046e5c289aa82d30213"),
    ("simbolx", "condensed", 9, "ed5680225409bba8fea347092671ac5a"),
    ("simbolx", "condensed", 257, "38cc86e6996d3cba7c27c70a76e48846"),
    ("simbolx", "condensed", 513, "bf1985a2cc09604fc7e33c1b8ef73d7a"),
    ("simbolx", "full", 33, "6b00d6229ea8b0e448aaa1ab223611ce"),
    ("simbolx", "full", 65, "52908748c6d5c0630511467b517e8364"),
    ("simbolx-3d", "condensed", 9, "0c147dc4e2ae757696bb8f363c9f7e96"),
    ("simbolx-3d", "condensed", 257, "547633a9099eff2dff3c9716f0d3a8fa"),
    ("simbolx-3d", "condensed", 513, "60c1020a6f46c4b8cca4d9426f4fd27a"),
    ("simbolx-3d", "full", 33, "572b5ebb905347b6aee796009b3c27a9"),
    ("simbolx-3d", "full", 65, "44be108b989b607cce05b3d59cce6c52"),
]


@pytest.mark.parametrize("name, form, m, digest", RECORDED_ASSEMBLIES,
                         ids=[f"{name}-{form}-{m}" for name, form, m, _ in RECORDED_ASSEMBLIES])
def test_single_grid_assembly_is_unchanged(name, form, m, digest):
    scen = _scenario(name)
    prob = assemble_socp(scen, build_grid(scen, m), form=form)
    h = hashlib.sha256()
    for arr in (prob.c, prob.A, prob.b):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest()[:32] == digest
