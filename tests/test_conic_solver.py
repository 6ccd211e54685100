import numpy as np
import pytest

from rdvopt import ConeSpec, ConicProblem, SolverSettings, builtin, residuals, solve
from rdvopt import conic_solver
from rdvopt.transcription import assemble_socp, build_grid


def make_kkt_certified_problem(rng, n_free=None, ncones=None, strict=False):
    """Oracle: build a random SOCP from a primal-dual pair satisfying KKT.

    The pair (x*, y*, z*) is optimal by construction: b := A x* makes x*
    feasible, c := A'y* + z* makes (y*, z*) dual feasible, and each cone
    block is complementary (x interior with z = 0, x = 0 with z interior,
    or a complementary boundary pair).
    """
    if n_free is None:
        n_free = int(rng.integers(0, 3))
    if ncones is None:
        ncones = int(rng.integers(1, 4))
    dims = [int(rng.integers(2, 6)) for _ in range(ncones)]
    n = n_free + sum(dims)
    # strict: pin x through the equalities so the argmin is unique
    p = n if strict else int(rng.integers(1, n + 1))
    x = np.zeros(n)
    z = np.zeros(n)
    x[:n_free] = rng.normal(size=n_free)
    off = n_free
    for d in dims:
        kind = 1 if strict else int(rng.integers(0, 3))
        if kind == 0:
            u1 = rng.normal(size=d - 1)
            x[off] = np.linalg.norm(u1) + rng.uniform(0.2, 2.0)
            x[off + 1:off + d] = u1
        elif kind == 1:
            u1 = rng.normal(size=d - 1)
            u1 += np.copysign(0.5, u1)
            beta = rng.uniform(0.5, 2.0)
            x[off] = np.linalg.norm(u1)
            x[off + 1:off + d] = u1
            z[off] = beta * np.linalg.norm(u1)
            z[off + 1:off + d] = -beta * u1
        else:
            w1 = rng.normal(size=d - 1)
            z[off] = np.linalg.norm(w1) + rng.uniform(0.2, 2.0)
            z[off + 1:off + d] = w1
        off += d
    y = rng.normal(size=p)
    a = rng.normal(size=(p, n))
    problem = ConicProblem(c=a.T @ y + z, A=a, b=a @ x, cones=ConeSpec(n_free, tuple(dims)))
    return problem, x, y, z


def _failing_factorization(*args):
    raise np.linalg.LinAlgError("forced breakdown")


class TestTrivialPrograms:
    def test_cone_projection_of_pinned_point(self):
        # min sigma s.t. v = 3, (sigma, v) in a 2-cone
        prob = ConicProblem(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[3.0], cones=ConeSpec(0, (2,)))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-8)
        assert np.allclose(sol.x, [3.0, 3.0], atol=1e-7)

    def test_equality_pinned_free_variable(self):
        prob = ConicProblem(c=[1.0], A=[[1.0]], b=[5.0], cones=ConeSpec(1, ()))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-8)

    def test_primal_infeasible_detected(self):
        # sigma = -1 cannot hold for a cone head
        prob = ConicProblem(c=[0.0, 0.0], A=[[1.0, 0.0]], b=[-1.0], cones=ConeSpec(0, (2,)))
        sol = solve(prob)
        assert sol.status == "primal_infeasible"
        # Farkas certificate: A'y + z ~ 0, b'y = 1
        assert prob.b @ sol.y == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(prob.A.T @ sol.y + sol.z) < 1e-7

    def test_dual_infeasible_detected(self):
        # min -sigma with only u pinned: unbounded below
        prob = ConicProblem(c=[-1.0, 0.0], A=[[0.0, 1.0]], b=[0.0], cones=ConeSpec(0, (2,)))
        sol = solve(prob)
        assert sol.status == "dual_infeasible"
        assert prob.c @ sol.x == pytest.approx(-1.0, abs=1e-6)
        assert np.linalg.norm(prob.A @ sol.x) < 1e-7

    @pytest.mark.parametrize("a, b, value", [
        ([[0.0, 1.0], [0.0, 1.0]], [3.0, 3.0], 3.0),
        ([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]], [3.0, 6.0, 9.0], 3.0),
        ([[0.0, 1.0, 0.5], [0.0, 2.0, 1.0]], [3.0, 6.0], 3.0 / np.sqrt(1.25)),
    ])
    def test_consistent_dependent_rows(self, a, b, value):
        n = len(a[0])
        prob = ConicProblem(c=[1.0] + [0.0] * (n - 1), A=a, b=b, cones=ConeSpec(0, (n,)))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(value, abs=1e-8)

    def test_max_iters_returns_diagnostics(self):
        prob = ConicProblem(c=[1.0, 0.0, 0.0], A=[[0.0, 1.0, 0.5]], b=[3.0],
                            cones=ConeSpec(0, (3,)))
        sol = solve(prob, SolverSettings(max_iters=2))
        assert sol.status == "max_iters"
        assert sol.iterations == 2
        assert np.all(np.isfinite(sol.x))


class TestConstructedOptimumOracle:
    def test_recovers_objective_on_random_programs(self, rng):
        # a few percent of degenerate draws stop as best-effort max_iters
        # at the float64 accuracy floor; they must still recover the value
        n_optimal = 0
        for _ in range(60):
            prob, x_star, _, _ = make_kkt_certified_problem(rng)
            sol = solve(prob)
            assert sol.status in ("optimal", "max_iters")
            n_optimal += sol.status == "optimal"
            ref = float(prob.c @ x_star)
            assert abs(sol.objective - ref) <= 1e-6 * (1.0 + abs(ref))
        assert n_optimal >= 54

    def test_cone_membership_of_solutions(self, rng):
        for _ in range(30):
            prob, *_ = make_kkt_certified_problem(rng)
            sol = solve(prob)
            off = prob.cones.n_free
            for d in prob.cones.soc_dims:
                sigma = sol.x[off]
                nrm = np.linalg.norm(sol.x[off + 1:off + d])
                assert sigma >= nrm - 1e-9 * (1.0 + sigma)
                off += d

    def test_weak_duality_and_reported_gap(self, rng):
        for _ in range(30):
            prob, *_ = make_kkt_certified_problem(rng)
            sol = solve(prob)
            assert sol.status in ("optimal", "max_iters")
            assert prob.c @ sol.x >= prob.b @ sol.y - 1e-7 * (1 + abs(sol.objective))
            rec = residuals(prob, sol.x, sol.y, sol.z)
            assert rec.gap == pytest.approx(sol.gap, rel=1e-9, abs=1e-15)


class TestResiduals:
    def test_constructed_pair_is_clean(self, rng):
        prob, x, y, z = make_kkt_certified_problem(rng)
        rec = residuals(prob, x, y, z)
        assert rec.primal < 1e-12 and rec.dual < 1e-12 and rec.gap < 1e-12

    def test_zero_point_primal_residual(self):
        prob = ConicProblem(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[3.0], cones=ConeSpec(0, (2,)))
        rec = residuals(prob, [0.0, 0.0], [0.0], [0.0, 0.0])
        assert rec.primal == pytest.approx(3.0 / 4.0, rel=1e-15)

    def test_scaling_leaves_relative_residuals_small(self, rng):
        prob, x, y, z = make_kkt_certified_problem(rng)
        scaled = ConicProblem(c=10.0 * prob.c, A=prob.A, b=10.0 * prob.b, cones=prob.cones)
        rec = residuals(scaled, 10.0 * x, 10.0 * y, 10.0 * z)
        assert max(rec.primal, rec.dual, rec.gap) < 1e-9

    def test_dimension_mismatch_raises(self):
        prob = ConicProblem(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[3.0], cones=ConeSpec(0, (2,)))
        with pytest.raises(ValueError, match="mismatch"):
            residuals(prob, [0.0], [0.0], [0.0, 0.0])


class TestSolverProperties:
    def test_determinism_bitwise(self, rng):
        prob, *_ = make_kkt_certified_problem(rng)
        s1 = solve(prob)
        s2 = solve(prob)
        assert s1.iterations == s2.iterations
        assert s1.objective == s2.objective
        assert np.array_equal(s1.x, s2.x)

    def test_objective_scaling_equivariance(self, rng):
        for _ in range(10):
            prob, *_ = make_kkt_certified_problem(rng, strict=True)
            lam = 7.5
            scaled = ConicProblem(c=lam * prob.c, A=prob.A, b=prob.b, cones=prob.cones)
            s1, s2 = solve(prob), solve(scaled)
            assert s2.objective == pytest.approx(lam * s1.objective,
                                                 abs=1e-8 * (1 + abs(lam * s1.objective)))
            scale = 1.0 + np.max(np.abs(s1.x))
            assert np.max(np.abs(s1.x - s2.x)) < 1e-6 * scale

    def test_trace_sink_receives_records(self, rng):
        prob, *_ = make_kkt_certified_problem(rng)
        records = []
        sol = solve(prob, trace=records.append)
        assert sol.status == "optimal"
        assert any("mu" in r for r in records)
        assert any("alpha" in r for r in records)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(gap_tol=0.0)

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            ConicProblem(c=[1.0, 2.0, 3.0], A=[[1.0, 0.0]], b=[1.0], cones=ConeSpec(0, (2,)))

    def test_trace_names_the_kkt_path(self, rng):
        for n_free, path in ((0, "scaled_qr"), (2, "dense")):
            prob, *_ = make_kkt_certified_problem(rng, n_free=n_free)
            records = []
            solve(prob, trace=records.append)
            steps = [r for r in records if "alpha" in r]
            assert steps and all(r["kkt"] == path for r in steps)

    @pytest.mark.parametrize("stop, name, fake", [
        ("kkt_breakdown", "_ScaledQRKKT", _failing_factorization),
        ("cone_boundary", "_jdet", lambda u: np.zeros(u.shape[0])),
        ("step_stall", "_max_step", lambda u, du: 0.0),
    ])
    def test_hidden_stops_are_named_in_the_trace(self, monkeypatch, stop, name, fake):
        monkeypatch.setattr(conic_solver, name, fake)
        prob = ConicProblem(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[3.0], cones=ConeSpec(0, (2,)))
        records = []
        sol = solve(prob, trace=records.append)
        assert sol.status == "max_iters"
        assert records[-1] == {"iter": sol.iterations, "stop": stop}
        assert sum("stop" in r for r in records) == 1


def _interior(rng, dims):
    """Random interior point of a product of second-order cones."""
    parts = []
    for d in dims:
        u1 = rng.normal(size=d - 1)
        parts.append(np.concatenate([[np.linalg.norm(u1) + rng.uniform(0.1, 2.0)], u1]))
    return np.concatenate(parts)


class TestNTScaling:
    def test_blocks_are_inverse_and_map_both_points_to_lambda(self, rng):
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(2, 6, size=int(rng.integers(2, 8))))
            layout = conic_solver._ConeLayout(ConeSpec(0, dims))
            uu = layout.gather(_interior(rng, dims))
            vv = layout.gather(_interior(rng, dims))
            for d in layout.index:
                w, winv = conic_solver._nt_scaling(uu[d], vv[d])
                eye = np.broadcast_to(np.eye(d), w.shape)
                assert np.max(np.abs(np.matmul(w, winv) - eye)) <= 1e-12
                lam = conic_solver._bmv(w, vv[d])
                scale = np.max(np.abs(lam))
                assert np.max(np.abs(conic_solver._bmv(winv, uu[d]) - lam)) <= 1e-12 * scale


class TestScaledQRKKT:
    def test_matches_dense_factorization_on_the_same_scaling(self, rng):
        for _ in range(20):
            prob, *_ = make_kkt_certified_problem(rng, n_free=0, ncones=int(rng.integers(2, 6)))
            layout = conic_solver._ConeLayout(prob.cones)
            n, p = prob.c.size, prob.b.size
            uu = layout.gather(_interior(rng, prob.cones.soc_dims))
            vv = layout.gather(_interior(rng, prob.cones.soc_dims))
            w = {}
            h = np.zeros((n, n))
            for d, idx in layout.index.items():
                w[d], winv = conic_solver._nt_scaling(uu[d], vv[d])
                h[idx[:, :, None], idx[:, None, :]] = np.matmul(winv, winv)
            a_blocks = {d: prob.A[:, idx].transpose(1, 2, 0) for d, idx in layout.index.items()}
            qr = conic_solver._ScaledQRKKT(w, layout, a_blocks, p)
            dense = conic_solver._DenseKKT(h, prob.A)
            rhs = rng.normal(size=n + p)
            want = dense.solve(rhs)
            assert np.linalg.norm(qr.solve(rhs) - want) <= 1e-9 * np.linalg.norm(want)

    def test_dense_factorization_not_built_for_full_rank_cone_programs(self, rng, monkeypatch):
        built = []

        class CountingDenseKKT(conic_solver._DenseKKT):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(conic_solver, "_DenseKKT", CountingDenseKKT)
        scenario = builtin("circle2circle")
        programs = [make_kkt_certified_problem(rng, n_free=0)[0] for _ in range(10)]
        programs.append(assemble_socp(scenario, build_grid(scenario, 33)))
        for prob in programs:
            solve(prob)
        assert not built
        solve(make_kkt_certified_problem(rng, n_free=2)[0])
        assert built

    def test_condensed_endgame_at_large_mesh(self):
        # the near-boundary endgame where a Schur-complement Cholesky or a
        # closed-form dz recovery stalls short of optimality
        scenario = builtin("circle2circle")
        sol = solve(assemble_socp(scenario, build_grid(scenario, 2049)))
        assert sol.status == "optimal"
        assert sol.gap <= 1e-9
        assert sol.residuals.dual <= 1e-12
