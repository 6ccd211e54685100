import sys
from dataclasses import replace

import numpy as np
import pytest

from rdvopt import ConeSpec, ConicProblem, SolverSettings, builtin, residuals, solve, solve_batch
from rdvopt import conic_solver
from rdvopt.postprocess import _three_node_grid
from rdvopt.relative_dynamics import RelativeState
from rdvopt.transcription import assemble_socp, build_grid


def make_kkt_certified_problem(rng, n_free=None, ncones=None, strict=False, dims=None, p=None):
    """Oracle: build a random SOCP from a primal-dual pair satisfying KKT.

    The pair (x*, y*, z*) is optimal by construction: b := A x* makes x*
    feasible, c := A'y* + z* makes (y*, z*) dual feasible, and each cone
    block is complementary (x interior with z = 0, x = 0 with z interior,
    or a complementary boundary pair).  The cones share one dimension, as
    the solver requires.  dims and p, when given, fix the cone dimensions
    and the number of rows.
    """
    if n_free is None:
        n_free = int(rng.integers(0, 3))
    if dims is None:
        if ncones is None:
            ncones = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 6))] * ncones
    n = n_free + sum(dims)
    # strict: pin x through the equalities so the argmin is unique
    if p is None:
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

    def test_free_variables_with_a_consistent_dependent_row(self, rng):
        # the presolve drops the appended row before it eliminates the free
        # variables: it changes neither the status nor the objective
        for _ in range(20):
            prob, *_ = make_kkt_certified_problem(rng, n_free=int(rng.integers(1, 4)))
            mix = rng.normal(size=prob.b.size)
            dependent = ConicProblem(c=prob.c, A=np.vstack([prob.A, mix @ prob.A]),
                                     b=np.append(prob.b, mix @ prob.b), cones=prob.cones)
            alone, sol = solve(prob), solve(dependent)
            assert (alone.status, sol.status) == ("optimal", "optimal")
            assert sol.objective == pytest.approx(alone.objective,
                                                  abs=1e-8 * (1 + abs(alone.objective)))

    @pytest.mark.parametrize("c, status, objective", [
        ([1.0, 0.0, 0.0], "optimal", 0.0),
        ([1.0, 2.0, 0.0], "dual_infeasible", -1.0),
    ])
    def test_cone_only_program_without_rows(self, c, status, objective):
        # min c'x over the 3-cone alone: no equality rows, so the presolve
        # decides it at iteration 0
        prob = ConicProblem(c=c, A=np.zeros((0, 3)), b=np.zeros(0), cones=ConeSpec(0, (3,)))
        sol = solve(prob)
        assert (sol.status, sol.y.shape, sol.iterations) == (status, (0,), 0)
        assert sol.objective == pytest.approx(objective, abs=1e-8)
        family = ConicProblem(c=[c, c], A=np.zeros((2, 0, 3)), b=np.zeros((2, 0)),
                              cones=prob.cones)
        assert [s.status for s in solve_batch(family)] == [status] * 2

    def test_max_iters_returns_diagnostics(self):
        prob = ConicProblem(c=[1.0, 0.0, 0.0], A=[[0.0, 1.0, 0.5]], b=[3.0],
                            cones=ConeSpec(0, (3,)))
        sol = solve(prob, SolverSettings(max_iters=2))
        assert sol.status == "max_iters"
        assert sol.iterations == 2
        assert np.all(np.isfinite(sol.x))


class TestConstructedOptimumOracle:
    def test_recovers_objective_on_random_programs(self, rng):
        # a degenerate draw may stop best-effort at the float64 accuracy
        # floor; it must still recover the value
        n_optimal = 0
        for _ in range(60):
            prob, x_star, _, _ = make_kkt_certified_problem(rng)
            sol = solve(prob)
            assert sol.status in ("optimal", *conic_solver.BEST_EFFORT)
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
            assert sol.status in ("optimal", *conic_solver.BEST_EFFORT)
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

    @pytest.mark.parametrize("field, value", [
        ("gap_tol", float("nan")), ("gap_tol", float("inf")), ("gap_tol", -1e-9),
        ("feas_tol", float("nan")), ("feas_tol", float("inf")), ("feas_tol", 0.0),
        ("gap_tol", True), ("feas_tol", "1e-9"),
        ("max_iters", 2.5), ("max_iters", 0), ("max_iters", -3), ("max_iters", True),
        ("max_iters", float("nan")), ("max_iters", "10"),
    ])
    def test_settings_reject_invalid_values(self, field, value):
        # a NaN tolerance would turn every solve into max_iters, and a
        # fractional max_iters would fail inside the loop
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})

    def test_settings_accept_integral_and_real_values(self):
        st = SolverSettings(gap_tol=1e-6, feas_tol=np.float64(1e-7), max_iters=np.int64(1))
        assert st.max_iters == 1
        prob = ConicProblem(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[3.0], cones=ConeSpec(0, (2,)))
        assert solve(prob, st).iterations == 1

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            ConicProblem(c=[1.0, 2.0, 3.0], A=[[1.0, 0.0]], b=[1.0], cones=ConeSpec(0, (2,)))

    def test_cones_of_mixed_dimensions_raise(self):
        # every cone of a program has one dimension; the error names them
        with pytest.raises(ValueError, match=r"one dimension, got dimensions \[3, 4\]"):
            ConicProblem(c=np.zeros(7), A=np.ones((1, 7)), b=[1.0], cones=ConeSpec(0, (3, 4)))
        with pytest.raises(ValueError, match=r"\[2, 3\]"):
            ConeSpec(1, (3, 2, 3))

    @pytest.mark.parametrize("n_free, dims", [
        (0, (2.7,)), (0, (3.0,)), (1.5, (3,)), (True, (3,)), (0, (True, True)), (0, ("3",)),
    ])
    def test_non_integral_cone_sizes_raise(self, n_free, dims):
        # a size is rejected, never truncated to an integer
        with pytest.raises(ValueError, match="cone sizes must be integers"):
            ConeSpec(n_free, dims)

    def test_numpy_integer_cone_sizes_are_kept(self):
        spec = ConeSpec(np.int64(2), (np.int64(3),) * 2)
        assert spec.dim == 8 and spec.soc_dims == (3, 3)

    def test_trace_names_the_kkt_path(self, rng):
        # free variables are presolved onto the scaled QR, and the full form
        # onto its stage QR
        scenario = builtin("atv")
        programs = [("scaled_qr", make_kkt_certified_problem(rng, n_free=0)[0]),
                    ("scaled_qr", make_kkt_certified_problem(rng, n_free=2, ncones=3)[0]),
                    ("stage_qr", assemble_socp(scenario, build_grid(scenario, 9), form="full"))]
        for path, prob in programs:
            records = []
            solve(prob, trace=records.append)
            steps = [r for r in records if "alpha" in r]
            assert steps and all(r["kkt"] == path for r in steps)
            assert all(r["factor_s"] >= 0.0 for r in steps)
            # no path refines its solve or retries a factorization
            assert not any("refine_rounds" in r or "reg_retries" in r for r in records)

    @pytest.mark.parametrize("stop, name, fake", [
        ("kkt_breakdown", "_ScaledQRKKT", _failing_factorization),
        ("cone_boundary", "_jdot", lambda u, v: np.zeros(u.shape[:-2] + u.shape[-1:])),
        ("step_stall", "_max_step", lambda u, det_u, du, programs: 0.0),
    ])
    def test_hidden_stops_are_named_in_the_trace(self, monkeypatch, stop, name, fake):
        monkeypatch.setattr(conic_solver, name, fake)
        prob = ConicProblem(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[3.0], cones=ConeSpec(0, (2,)))
        records = []
        sol = solve(prob, trace=records.append)
        assert sol.status == stop
        assert records[-1] == {"iter": sol.iterations, "stop": stop}
        assert sum("stop" in r for r in records) == 1

    def test_a_presolved_programs_breakdown_is_named_in_the_trace(self, monkeypatch):
        # min sigma s.t. f = 0, v - f = 3 with f free: the presolve eliminates
        # f, and the loop over the rest breaks down at its first factorization
        monkeypatch.setattr(conic_solver, "_ScaledQRKKT", _failing_factorization)
        prob = ConicProblem(c=[0.0, 1.0, 0.0], A=[[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0]],
                            b=[0.0, 3.0], cones=ConeSpec(1, (2,)))
        records = []
        sol = solve(prob, trace=records.append)
        assert (sol.status, sol.iterations) == ("kkt_breakdown", 0)
        assert records[0] == {"iter": 0, "presolve": "reduced"}
        assert records[-1] == {"iter": 0, "stop": "kkt_breakdown"}
        assert sum("stop" in r for r in records) == 1


def _interior(rng, dims):
    """Random interior point of a product of second-order cones."""
    parts = []
    for d in dims:
        u1 = rng.normal(size=d - 1)
        parts.append(np.concatenate([[np.linalg.norm(u1) + rng.uniform(0.1, 2.0)], u1]))
    return np.concatenate(parts)


def _infeasible_like(rng, prob):
    """A program of prob's shape whose equalities meet no cone point.

    y with A'y = z, z in the interior of the cones and zero on the free
    block, and b'y = -1 is a Farkas certificate: y'A x = z'x >= 0 for
    every x in the cones, while y'b < 0.
    """
    p, n = prob.A.shape
    y = rng.normal(size=p)
    z = np.concatenate([np.zeros(prob.cones.n_free), _interior(rng, prob.cones.soc_dims)])
    a = rng.normal(size=(p, n))
    a += np.outer(y, z - a.T @ y) / (y @ y)
    b = rng.normal(size=p)
    b -= y * (b @ y + 1.0) / (y @ y)
    return ConicProblem(c=rng.normal(size=n), A=a, b=b, cones=prob.cones)


def _stack(programs):
    """The family of same-shaped programs: their c, A and b along a program axis."""
    c, a, b = (np.stack([getattr(pr, name) for pr in programs]) for name in "cAb")
    return ConicProblem(c=c, A=a, b=b, cones=programs[0].cones)


def _member(family, k):
    return ConicProblem(c=family.c[k], A=family.A[k], b=family.b[k], cones=family.cones)


class TestSolveBatch:
    @staticmethod
    def _family(rng, count, n_free=0, dims=None, min_rows=2):
        """Random programs of one shape: cone dimension and rows drawn once."""
        if dims is None:
            dims = [int(rng.integers(2, 6))] * 4
        p = int(rng.integers(min_rows, n_free + sum(dims)))
        return [make_kkt_certified_problem(rng, n_free=n_free, dims=dims, p=p)[0]
                for _ in range(count)]

    @staticmethod
    def _matches_solo(family, settings=None):
        batch = solve_batch(family, settings)
        assert len(batch) == family.A.shape[0]
        for k, got in enumerate(batch):
            want = solve(_member(family, k), settings)
            assert (got.status, got.iterations) == (want.status, want.iterations)
            assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=0.0)
            # each program's arithmetic does not depend on its batch
            for field in ("x", "y", "z"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
        return batch

    def test_members_report_what_they_report_alone(self, rng):
        capped_statuses = set()
        # at least three rows, so that the member below has a dependent one
        for dims in (None, None, None, None, [3] * 5):
            family = self._family(rng, 8, dims=dims, min_rows=3)
            family.append(_infeasible_like(rng, family[0]))
            # dependent rows: the presolve drops one, and this member runs alone
            dep = family[1]
            a = dep.A.copy()
            a[-1] = a[0] + a[1]
            family.append(ConicProblem(c=dep.c, A=a, b=a @ solve(dep).x, cones=dep.cones))
            family = _stack(family)
            assert conic_solver._scaled_qr_path(family)[0].tolist() == [True] * 9 + [False]
            sols = self._matches_solo(family)
            assert sols[-2].status == "primal_infeasible"
            assert sols[-1].status == "optimal"

            # a cap at the fewest iterations stops the others at max_iters
            cap = min(s.iterations for s in sols[:-2])
            capped = self._matches_solo(family, SolverSettings(max_iters=cap))
            capped_statuses |= {s.status for s in capped[:-2]}
        assert {"optimal", "max_iters"} <= capped_statuses

    def test_a_breakdown_stops_only_its_program(self, rng, monkeypatch):
        family = self._family(rng, 4)
        want = [solve(prob) for prob in family]
        built = []

        class FirstPivotZeroOnce(conic_solver._ScaledQRKKT):
            def __init__(self, *args):
                super().__init__(*args)
                if not built:
                    self.singular = self.singular.copy()
                    self.singular[0] = True
                built.append(1)

        monkeypatch.setattr(conic_solver, "_ScaledQRKKT", FirstPivotZeroOnce)
        got = solve_batch(_stack(family))
        assert (got[0].status, got[0].iterations) == ("kkt_breakdown", 0)
        for g, w in zip(got[1:], want[1:]):
            assert (g.status, g.iterations) == (w.status, w.iterations)
            assert np.array_equal(g.x, w.x)

    def test_a_lone_large_cone_adds_up_as_it_does_alone(self, rng):
        # one 9-cone per program: alone, its eight tail components lie on a
        # contiguous axis, which np.add.reduce would sum pairwise
        self._matches_solo(_stack(self._family(rng, 6, dims=[9])))

    def test_a_family_with_free_variables_advances_in_one_loop(self, rng, monkeypatch):
        # its members presolve to one shape: one loop, each member's answer
        # bit for bit its answer alone
        family = _stack(self._family(rng, 3, n_free=2))
        real, loops = conic_solver._solve_batch, []

        def recording(problem, *args):
            loops.append(problem.A.shape)
            return real(problem, *args)

        monkeypatch.setattr(conic_solver, "_solve_batch", recording)
        self._matches_solo(family)
        p, n = family.A.shape[1:]
        assert loops == [(3, p - 2, n - 2)] + [(1, p - 2, n - 2)] * 3

    def test_mismatched_programs_raise(self, rng):
        family = _stack(self._family(rng, 3))
        c, a, b = family.c, family.A, family.b
        for args in ((c[:2], a, b), (c, a[:2], b), (c, a, b[:2]), (c[0], a, b), (c, a, b[0]),
                     (c, a[0], b)):
            with pytest.raises(ValueError, match="neither one program nor a family"):
                ConicProblem(*args, cones=family.cones)
        with pytest.raises(ValueError, match="neither one program nor a family"):
            ConicProblem(c[None], a[None], b[None], cones=family.cones)

    def test_single_program_entry_points_reject_a_family(self, rng):
        family = _stack(self._family(rng, 2))
        member = _member(family, 0)
        sol = solve(member)
        with pytest.raises(ValueError, match="family"):
            solve(family)
        with pytest.raises(ValueError, match="family"):
            residuals(family, sol.x, sol.y, sol.z)
        with pytest.raises(ValueError, match="family"):
            solve_batch(member)

    def test_empty_family_solves_to_nothing(self, rng):
        family = _stack(self._family(rng, 1))
        empty = ConicProblem(family.c[:0], family.A[:0], family.b[:0], cones=family.cones)
        assert empty.A.shape == (0,) + family.A.shape[1:]
        assert solve_batch(empty) == []

    @pytest.mark.parametrize("name", ["atv", "circle2circle", "simbolx"])
    def test_three_node_families_report_what_they_report_alone(self, name):
        # the inner-node search's families: each built-in's resolution-100
        # scan and, out of plane, a 32-point bracket round, whose cones pool
        # into one (d, 3 K) block per iterate
        scenario = builtin(name)
        span = scenario.theta_f - scenario.theta0
        scan = scenario.theta0 + span * np.arange(1, 101) / 101
        sols = self._matches_solo(assemble_socp(scenario, _three_node_grid(scenario, scan)))
        assert sum(sol.status == "optimal" for sol in sols) >= 90
        spatial = replace(scenario, planar=False)
        bracket = scan[40] + (scan[42] - scan[40]) * np.arange(1, 33) / 33
        family = assemble_socp(spatial, _three_node_grid(spatial, bracket))
        assert family.cones.soc_dims == (4, 4, 4) and family.A.shape[0] == 32
        self._matches_solo(family)


class TestNTScaling:
    def test_blocks_are_inverse_and_map_both_points_to_lambda(self, rng):
        for _ in range(20):
            dims = (int(rng.integers(2, 6)),) * int(rng.integers(2, 8))
            layout, u, v, nt, nt_inv = _scaled_point(rng, ConeSpec(0, dims))
            w, winv = _dense(*nt), _dense(*nt_inv)
            eye = np.broadcast_to(np.eye(layout.d), w.shape)
            assert np.max(np.abs(np.matmul(w, winv) - eye)) <= 1e-12
            lam = layout.scale(*nt, v)
            scale = np.max(np.abs(lam))
            assert np.max(np.abs(layout.scale(*nt_inv, u) - lam)) <= 1e-12 * scale

    def test_max_step_is_the_step_to_the_cone_boundary(self, rng):
        bounded = 0
        for _ in range(40):
            dims = (int(rng.integers(2, 6)),) * int(rng.integers(1, 5))
            layout, u, v, nt, _ = _scaled_point(rng, ConeSpec(0, dims))
            lam = layout.blocks(layout.scale(*nt, v))
            rdet = np.sqrt(conic_solver._jdot(lam, lam))
            # a stacked pair of steps of one program
            du = rng.normal(size=(2,) + lam.shape) * rng.uniform(0.1, 10.0)
            alpha = conic_solver._max_step(lam / rdet, rdet, du, 1)[0]

            def inside(step):
                pts = lam + step * du
                return bool(np.all(pts[..., 0, :] >= np.linalg.norm(pts[..., 1:, :], axis=-2)))
            assert inside(alpha * (1.0 - 1e-9))
            if alpha < 1e300:
                bounded += 1
                assert not inside(alpha * (1.0 + 1e-6))
        assert bounded >= 30


def _scaled_point(rng, cones):
    """A random interior primal-dual pair (u, v) of cone-only cones in the
    solver's variable order, with its NT scaling and the inverse scaling,
    each as the (wbar, eta) arrays that _ConeLayout.scale takes."""
    layout = conic_solver._ConeLayout(cones)
    u, v = (_interior(rng, cones.soc_dims)[layout.perm, None] for _ in range(2))
    ub, vb = layout.blocks(u), layout.blocks(v)
    wbar, eta = conic_solver._nt_scaling(ub, vb, conic_solver._jdot(ub, ub),
                                         conic_solver._jdot(vb, vb))
    # W^-1 = Wbar(wbar_0, -wbar_1) / eta
    wbar_inv = wbar * np.r_[1.0, -np.ones(layout.d - 1)][:, None]
    return layout, u, v, (wbar, eta), (wbar_inv, 1.0 / eta)


def _dense(wbar, eta):
    """(g, d, d) matrices of the scaling of each cone (one program), column by column."""
    d, g = wbar.shape
    unit = np.broadcast_to(np.eye(d)[:, :, None], (d, d, g))
    cols = np.empty((d, d, g))
    conic_solver._nt_apply(wbar, eta, unit, cols)
    return cols.transpose(2, 1, 0)


def _dense_kkt(a, layout, winv, n_free=0):
    """Reference K = [[-H, A'], [A, 0]] with H = W^-1 W^-1 on the cones and
    zero on the n_free free variables first, built densely in the solver's
    variable order of the cones (a is A with its columns in that order)."""
    p, n = a.shape
    k = np.zeros((n + p, n + p))
    idx = n_free + np.arange(layout.d) * layout.g + np.arange(layout.g)[:, None]
    k[idx[:, :, None], idx[:, None, :]] = -np.matmul(winv, winv)
    k[n:, :n] = a
    k[:n, n:] = a.T
    return k


class TestConeLayout:
    def test_permutation_groups_cones_by_dimension_component_by_component(self):
        # the loop's programs are cone-only: the heads, first tails and second
        # tails of the 3-cones at 0, 3 and 6
        layout = conic_solver._ConeLayout(ConeSpec(0, (3, 3, 3)))
        assert layout.perm.tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]
        assert (layout.d, layout.g) == (3, 3)
        assert layout.perm[layout.unperm].tolist() == list(range(9))
        v = np.arange(9.0)[:, None]
        block = layout.blocks(v)
        assert block.shape == (3, 3) and np.shares_memory(block, v)
        # column 1 holds the cone at 3, component by component
        assert block[:, 1].tolist() == [1.0, 4.0, 7.0]
        assert layout.perm[[1, 4, 7]].tolist() == [3, 4, 5]
        # a program without cones has an empty block
        empty = conic_solver._ConeLayout(ConeSpec(0, ()))
        assert empty.perm.tolist() == [] and empty.blocks(np.ones((0, 4))).size == 0

    def test_a_family_pools_each_dimension_into_one_contiguous_view(self):
        # variables x programs: component i of cone j of program k sits at
        # [i, j K + k] of the (d, g K) view
        layout = conic_solver._ConeLayout(ConeSpec(0, (3, 3, 3, 3)))
        d, g, count = 3, 4, 5
        v = np.arange(12.0 * count).reshape(12, count)
        block = layout.blocks(v)
        assert block.shape == (d, g * count) and block.flags.c_contiguous
        assert np.shares_memory(block, v)
        i, j, k = np.meshgrid(range(d), range(g), range(count), indexing="ij")
        assert np.array_equal(block[i, j * count + k], v[i * g + j, k])
        # a stack of iterates, (columns, n, programs), pools alike
        stacked = layout.blocks(np.stack([v, -v]))
        assert stacked.shape == (2, d, g * count)
        assert np.array_equal(stacked[1], -block)

    def test_a_solo_program_keeps_its_row_order(self):
        # a family of one stores one program's variables in the solver's
        # order, contiguously, and its block is the (d, g) view of that row
        layout = conic_solver._ConeLayout(ConeSpec(0, (3, 3, 3, 3)))
        row = np.arange(12.0)
        v = row[:, None].copy()
        assert np.array_equal(v.reshape(-1), row) and v.flags.c_contiguous
        block = layout.blocks(v)
        assert block.strides == (8 * 4, 8)
        assert np.array_equal(block, row.reshape(3, 4))


def _check_gty(rng, kkt, a, layout, nt):
    """A KKT path's G'dy, which the predictor's W dz takes, against W applied
    to A'dy (a is A with its columns in the solver's order, as is every vector)."""
    dy = rng.normal(size=(1, a.shape[0]))
    want = layout.scale(*nt, (a.T @ dy[0])[:, None])
    assert np.linalg.norm(kkt.gty(dy) - want) <= 1e-12 * np.linalg.norm(want)


def _scaled_kkt(a, layout, nt, nt_inv, n_free=0):
    """Reference scaled K = [[-E, G'], [G, 0]], G = A W, as S K S for the
    unscaled K and S = diag(I, W, I) (H = 0 on the n_free free variables
    first, W H W = I on the cones)."""
    p, n = a.shape
    s = np.eye(n + p)
    idx = n_free + np.arange(layout.d) * layout.g + np.arange(layout.g)[:, None]
    s[idx[:, :, None], idx[:, None, :]] = _dense(*nt)
    return s @ _dense_kkt(a, layout, _dense(*nt_inv), n_free) @ s


class TestScaledQRKKT:
    def test_matches_dense_factorization_on_the_same_scaling(self, rng):
        for _ in range(20):
            prob, *_ = make_kkt_certified_problem(rng, n_free=0, ncones=int(rng.integers(2, 6)))
            layout, _, _, nt, nt_inv = _scaled_point(rng, prob.cones)
            a = prob.A[:, layout.perm]
            # A's rows as (p, n, programs)
            qr = conic_solver._ScaledQRKKT(*nt, a[:, :, None], layout)
            # two right-hand sides r1 + W^-1 dl, solved as one stacked pair
            r1, dl = rng.normal(size=(2, 2, prob.c.size, 1))
            r2 = rng.normal(size=(1, 2, prob.b.size))
            dxs_rows, dxs, dy = qr.solve(layout.scale(*nt, r1), dl, r2)
            k = _dense_kkt(a, layout, _dense(*nt_inv))
            r1 = r1 + layout.scale(*nt_inv, dl)
            for col in range(2):
                want = np.linalg.solve(k, np.concatenate([r1[col, :, 0], r2[0, col]]))
                got = np.concatenate([layout.scale(*nt, dxs[col])[:, 0], dy[0, col]])
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
            assert np.array_equal(dxs_rows, dxs.transpose(2, 0, 1))
            _check_gty(rng, qr, a, layout, nt)

    def test_full_rank_cone_programs_are_not_presolved(self, rng, monkeypatch):
        real, presolved = conic_solver._presolve, []

        def counting(*args):
            presolved.append(1)
            return real(*args)

        monkeypatch.setattr(conic_solver, "_presolve", counting)
        scenario = builtin("circle2circle")
        programs = [make_kkt_certified_problem(rng, n_free=0)[0] for _ in range(10)]
        # the full form's states are eliminated onto the condensed program,
        # which the path test passes
        programs += [assemble_socp(scenario, build_grid(scenario, 33), form=form)
                     for form in ("condensed", "full")]
        for prob in programs:
            solve(prob)
        assert not presolved
        solve(make_kkt_certified_problem(rng, n_free=2)[0])
        assert presolved

    def test_condensed_endgame_at_large_mesh(self):
        # the near-boundary endgame where a Schur-complement Cholesky or a
        # closed-form dz recovery stalls short of optimality
        scenario = builtin("circle2circle")
        sol = solve(assemble_socp(scenario, build_grid(scenario, 2049)))
        assert sol.status == "optimal"
        assert sol.gap <= 1e-9
        assert sol.residuals.dual <= 1e-12


def _presolved(problem, settings=SolverSettings()):
    """_presolve of one program, with its rows' test on A' and its own norms."""
    norms = [1.0 + np.linalg.norm(v) for v in (problem.b, problem.c)]
    return conic_solver._presolve(problem, problem.A.T, settings, norms)


def _in_cones(v, cones, tol=0.0):
    """Whether v lies in the free block's space times the second-order cones."""
    heads = cones.n_free + np.cumsum((0,) + cones.soc_dims[:-1])
    return all(v[h] >= np.linalg.norm(v[h + 1:h + d]) - tol for h, d in zip(heads, cones.soc_dims))


class TestPresolve:
    """The presolve of every program that the path test does not pass: free
    variables eliminated through a QR of their columns, dependent rows
    dropped or certifying infeasibility, and programs with no rows left
    decided without the loop."""

    @staticmethod
    def _newton_step(rng, prob, r2):
        """A Newton step of prob (right-hand sides W r1 + dl on the cones, zero
        on the free rows as the loop's are after the presolve, and r2) through
        its presolved program's scaled QR and the lift, with the test-built
        scaled K of prob and its right-hand side."""
        nf, n = prob.cones.n_free, prob.c.size
        layout, _, _, nt, nt_inv = _scaled_point(rng, ConeSpec(0, prob.cones.soc_dims))
        step = ConicProblem(c=np.zeros(n), A=prob.A, b=r2, cones=prob.cones)
        reduced, offset, lift = _presolved(step)
        assert offset == 0.0 and reduced.cones.n_free == 0
        abar = reduced.A[:, layout.perm]
        kkt = conic_solver._ScaledQRKKT(*nt, abar[:, :, None], layout)
        _check_gty(rng, kkt, abar, layout, nt)
        wr1, dl = rng.normal(size=(2, 1, n - nf, 1))
        _, dxs, dy = kkt.solve(wr1, dl, reduced.b[None, None])
        dx = layout.scale(*nt, dxs[0])[:, 0].take(layout.unperm)
        dx, dy, _ = lift(dx, dy[0, 0], dx, True)
        a = np.concatenate([prob.A[:, :nf], prob.A[:, nf:][:, layout.perm]], axis=1)
        k = _scaled_kkt(a, layout, nt, nt_inv, nf)
        rhs = np.concatenate([np.zeros(nf), (wr1 + dl)[0, :, 0], r2])
        return k, np.concatenate([dx[:nf], dxs[0, :, 0], dy]), rhs

    def test_matches_dense_least_squares_with_free_variables(self, rng):
        # with more rows than free variables and independent ones, K is
        # nonsingular, and the presolved step is its solution
        for nf in rng.integers(1, 4, size=20):
            p = int(rng.integers(nf + 1, nf + 10))
            prob, *_ = make_kkt_certified_problem(rng, n_free=int(nf), dims=[3] * 3, p=p)
            k, got, rhs = self._newton_step(rng, prob, rng.normal(size=p))
            want = np.linalg.solve(k, rhs)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
            assert np.linalg.norm(k @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_matches_dense_least_squares_with_dependent_rows(self, rng):
        for _ in range(20):
            prob, *_ = make_kkt_certified_problem(rng, n_free=0, ncones=int(rng.integers(2, 5)))
            # append consistent combinations of the rows, which the presolve drops
            mix = rng.normal(size=(int(rng.integers(1, 4)), prob.b.size))
            dependent = ConicProblem(c=prob.c, A=np.vstack([prob.A, mix @ prob.A]),
                                     b=np.concatenate([prob.b, mix @ prob.b]), cones=prob.cones)
            assert _presolved(dependent)[0].b.size == prob.b.size
            r2 = rng.normal(size=prob.b.size)
            k, got, rhs = self._newton_step(rng, dependent, np.concatenate([r2, mix @ r2]))
            # K is singular: for a consistent right-hand side the solution is
            # determined up to null(K), so compare its part in range(K), which
            # for the minimum-norm least-squares solution is all of it.  The
            # dropped rows' dy is zero, and A'dy sees no null(A') direction
            assert np.linalg.matrix_rank(k) < k.shape[0]
            want = np.linalg.lstsq(k, rhs, rcond=None)[0]
            determined = np.linalg.pinv(k) @ (k @ got)
            assert np.linalg.norm(determined - want) <= 1e-9 * np.linalg.norm(want)
            assert np.linalg.norm(k @ got - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_lift_is_exact_with_free_variables(self, rng):
        # for any cone point and presolved dual, the lifted x closes the rows
        # that Q1 spans and the lifted y meets every free column in its cost,
        # to rounding; the rest is the presolved program's, rotated by Q2
        for nf in rng.integers(1, 4, size=20):
            p = int(rng.integers(nf + 1, nf + 10))
            prob, *_ = make_kkt_certified_problem(rng, n_free=int(nf), dims=[3] * 3, p=p)
            reduced, offset, lift = _presolved(prob)
            xc, zc = (_interior(rng, prob.cones.soc_dims) for _ in range(2))
            ybar = rng.normal(size=reduced.b.size)
            scale = 1.0 + np.abs(prob.A).sum() * (np.abs(xc).sum() + np.abs(ybar).sum())
            for sol in (True, False):
                x, y, z = lift(xc, ybar, zc, sol)
                assert np.array_equal(x[nf:], xc) and np.array_equal(z[nf:], zc)
                assert not np.any(z[:nf])
                b, c = prob.b * sol, prob.c * np.r_[np.full(nf, float(sol)), np.ones(xc.size)]
                primal = np.linalg.norm(reduced.A @ xc - reduced.b * sol)
                assert abs(np.linalg.norm(prob.A @ x - b) - primal) <= 1e-12 * scale
                dual = y @ prob.A + z - c
                assert np.all(np.abs(dual[:nf]) <= 1e-12 * scale)
                if sol:
                    assert np.allclose(dual[nf:], ybar @ reduced.A + zc - reduced.c, rtol=0.0,
                                       atol=1e-12 * scale)
                    assert prob.c @ x == pytest.approx(reduced.c @ xc + offset,
                                                       abs=1e-12 * scale)
                    assert prob.b @ y == pytest.approx(reduced.b @ ybar + offset,
                                                       abs=1e-12 * scale)
                else:
                    # a certificate: b and the free costs do not enter
                    assert prob.b @ y == pytest.approx(reduced.b @ ybar, abs=1e-12 * scale)

    def test_the_loop_reads_the_programs_gap(self, rng):
        # b moved along a free column moves the optimum's free part and its
        # cost, not the presolved program: the loop's traced gap is still the
        # program's residuals() gap, relative to the program's own objective
        for _ in range(5):
            prob, *_ = make_kkt_certified_problem(rng, n_free=2, dims=[3] * 3, p=6)
            moved = ConicProblem(prob.c, prob.A, prob.b + 100.0 * prob.A[:, 0], prob.cones)
            records = []
            sol = solve(moved, trace=records.append)
            last = [r for r in records if "gap" in r][-1]
            assert sol.status == "optimal"
            assert last["gap"] == pytest.approx(sol.residuals.gap, rel=1e-3)

    @pytest.mark.parametrize("n_free", [0, 2])
    def test_an_inconsistent_dependent_row_is_a_farkas_vector(self, rng, n_free, monkeypatch):
        # a dependent row whose b disagrees: primal_infeasible at iteration 0,
        # without the loop, with the exact Farkas vector
        monkeypatch.setattr(conic_solver, "_solve_batch", _no_loop)
        settings = SolverSettings()
        for _ in range(10):
            prob, *_ = make_kkt_certified_problem(rng, n_free=n_free, dims=[3] * 3, p=4)
            mix = rng.normal(size=4)
            bad = ConicProblem(c=prob.c, A=np.vstack([prob.A, mix @ prob.A]),
                               b=np.append(prob.b, mix @ prob.b + 1e-3), cones=prob.cones)
            sol = solve(bad)
            assert (sol.status, sol.iterations) == ("primal_infeasible", 0)
            # b'y = 1 up to the rounding of a 1e-3 misfit of O(1) terms
            assert bad.b @ sol.y == pytest.approx(1.0, abs=1e-9)
            tol = settings.feas_tol * (1.0 + np.linalg.norm(bad.c))
            assert np.linalg.norm(bad.A.T @ sol.y + sol.z) <= tol
            assert _in_cones(sol.z, bad.cones) and not np.any(sol.z[:n_free])

    @pytest.mark.parametrize("n_free, p", [(1, 1), (2, 2), (3, 2), (3, 1)])
    def test_a_program_with_no_rows_left_is_decided_without_the_loop(self, rng, n_free, p,
                                                                      monkeypatch):
        # as many free variables as rows or more: the free columns take every
        # row, and the cones alone decide the program
        monkeypatch.setattr(conic_solver, "_solve_batch", _no_loop)
        for _ in range(10):
            prob, x_star, *_ = make_kkt_certified_problem(rng, n_free=n_free, dims=[3] * 2, p=p)
            sol = solve(prob)
            ref = prob.c @ x_star
            assert (sol.status, sol.iterations) == ("optimal", 0)
            assert sol.objective == pytest.approx(ref, abs=1e-9 * (1.0 + abs(ref)))
            assert max(vars(sol.residuals).values()) <= 1e-9
            assert _in_cones(sol.x, prob.cones) and _in_cones(sol.z, prob.cones)
            # a cost that leaves K* on the cones, or one with a part in null(F)
            # (which more free variables than rows leave), is a ray's
            costs = [prob.c - np.r_[np.zeros(n_free), 10.0 + np.abs(prob.c[n_free:]).sum(),
                                    np.zeros(5)]]
            if n_free > p:
                f = prob.A[:, :n_free]
                null = np.linalg.svd(f)[2][p:].T @ rng.normal(size=n_free - p)
                costs.append(prob.c + np.r_[null, np.zeros(6)])
            for c in costs:
                ray = solve(ConicProblem(c=c, A=prob.A, b=prob.b, cones=prob.cones))
                assert (ray.status, ray.iterations) == ("dual_infeasible", 0)
                assert c @ ray.x == pytest.approx(-1.0, abs=1e-12)
                assert np.linalg.norm(prob.A @ ray.x) <= 1e-12 * (1.0 + np.abs(ray.x).sum())
                assert _in_cones(ray.x, prob.cones, tol=1e-12)


def _no_loop(*args):
    raise AssertionError("the presolve decides this program without the loop")


class TestStagePresolve:
    """The full form's presolve: its states eliminated once per solve onto a
    cone-only program, whose answer is lifted back."""

    @staticmethod
    def _full(planar, m):
        scenario = replace(builtin("atv"), planar=planar)
        return assemble_socp(scenario, build_grid(scenario, m), form="full")

    @pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
    def test_matches_a_dense_solve_on_random_interior_scalings(self, rng, planar):
        # at NT scalings of random interior points a Newton step through the
        # reduced QR and the lift solves the test-built full scaled K (its
        # free rows' right-hand side zero, as the loop's is) to a backward
        # error of rounding, so it agrees with a dense solve of K within K's
        # condition number (3e10 at M=2)
        for m in (2, 9, 33):
            prob = self._full(planar, m)
            reduced = prob.A.presolve(prob)
            (p, n), nf, s = prob.A.shape, prob.cones.n_free, reduced.b.size
            a = np.asarray(prob.A)
            for _ in range(3):
                cones, _, _, nt, nt_inv = _scaled_point(rng, reduced.cones)
                qr = conic_solver._ScaledQRKKT(*nt, reduced.A[:, cones.perm, None], cones)
                wr1, dl = rng.normal(size=(2, 2, n - nf, 1))
                r2 = rng.normal(size=(1, 2, p))
                # row block m less the blocks before it
                blocks = r2.reshape(1, 2, -1, s)
                _, dxs, dym = qr.solve(wr1, dl, blocks[..., -1, :] - blocks[..., :-1, :].sum(-2))
                # the states solve A dx = r2 with dx = W dxs on the cones
                dx = cones.scale(*nt, dxs)[..., 0].take(cones.unperm, axis=-1)
                dx, dy, _ = prob.A.lift(dx, dym[0], dx, r2[0])
                x = np.concatenate([dx[:, :nf], dxs[..., 0], dy], axis=1)
                rhs = np.concatenate([np.zeros((2, nf)), (wr1 + dl)[..., 0], r2[0]], axis=1)
                k = _scaled_kkt(np.concatenate([a[:, :nf], a[:, nf:][:, cones.perm]], axis=1),
                                cones, nt, nt_inv, nf)
                backward = np.linalg.norm(rhs - x @ k, axis=1) / (
                    np.linalg.norm(k, 2) * np.linalg.norm(x, axis=1) + np.linalg.norm(rhs, axis=1))
                assert np.all(backward <= 1e-14)
                ref = np.linalg.solve(k, rhs.T).T
                assert np.linalg.norm(x - ref) <= 1e-15 * np.linalg.cond(k) * np.linalg.norm(ref)

    def test_presolve_and_lift_run_once_per_solve(self, monkeypatch):
        # the presolve, which depends on A and b alone, runs and its answer is
        # lifted once per solve, whatever the iteration count
        built, lifted = [], []
        presolve, lift = conic_solver.StageMatrix.presolve, conic_solver.StageMatrix.lift

        def counting_presolve(self, *args):
            built.append(1)
            return presolve(self, *args)

        def counting_lift(self, *args):
            lifted.append(1)
            return lift(self, *args)

        monkeypatch.setattr(conic_solver.StageMatrix, "presolve", counting_presolve)
        monkeypatch.setattr(conic_solver.StageMatrix, "lift", counting_lift)
        prob = self._full(True, 33)
        counts = []
        for cap in (3, 10):
            built.clear()
            lifted.clear()
            assert solve(prob, SolverSettings(max_iters=cap)).iterations == cap
            counts.append((len(built), len(lifted)))
        assert counts == [(1, 1), (1, 1)]

    def test_every_iteration_factors_the_same_presolved_rows(self, monkeypatch):
        # every factorization of a solve is one QR of the same reduced rows,
        # the condensed form's shape: none is rebuilt or copied per iteration
        real, rows = conic_solver._ScaledQRKKT.__init__, []

        def recording(self, wbar, eta, a, *args):
            rows.append((a.__array_interface__["data"][0], a.shape))
            return real(self, wbar, eta, a, *args)

        monkeypatch.setattr(conic_solver._ScaledQRKKT, "__init__", recording)
        prob = self._full(True, 33)
        for cap in (3, 10):
            rows.clear()
            assert solve(prob, SolverSettings(max_iters=cap)).iterations == cap
            assert len(rows) == cap and len(set(rows)) == 1
            assert rows[0][1] == (4, 33 * 3, 1)

    @pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
    def test_holds_only_o_m_arrays(self, planar):
        # the stage blocks and their presolved program take a fixed size per
        # stage whatever the grid: none grows with M squared
        per_stage = []
        for m in (33, 1025):
            prob = self._full(planar, m)
            arrays = [v for obj in (prob.A, prob.A.presolve(prob)) for v in vars(obj).values()
                      if isinstance(v, np.ndarray)]
            per_stage.append(sum(v.nbytes for v in arrays) / m)
        assert per_stage[1] <= 1.1 * per_stage[0]

    @pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
    def test_lift_is_exact(self, rng, planar):
        # for any cone point and reduced dual, the lifted y cancels on every
        # state exactly, and the states close row blocks 0..m-1 to rounding
        for m in (2, 9, 33):
            prob = self._full(planar, m)
            nf, s = prob.cones.n_free, prob.A.presolve(prob).A.shape[0]
            for _ in range(5):
                xc, zc = (_interior(rng, prob.cones.soc_dims)[None] for _ in range(2))
                ybar = rng.normal(size=(1, s))
                x, y, z = prob.A.lift(xc, ybar, zc, prob.b[None])
                assert np.array_equal(x[:, nf:], xc) and np.array_equal(z[:, nf:], zc)
                assert not np.any(z[:, :nf])
                assert np.array_equal(y, np.concatenate([np.tile(-ybar, m), ybar], axis=1))
                assert not np.any((y @ prob.A)[:, :nf])
                rows = (prob.A @ x[0] - prob.b)[:-s]
                scale = (np.abs(np.asarray(prob.A)) @ np.abs(x[0]) + np.abs(prob.b))[:-s]
                assert np.all(np.abs(rows) <= 1e-14 * scale)

    def test_the_loop_reads_the_full_programs_residuals(self):
        # v added to row blocks 0 and m leaves the reduced program as it is
        # but triples the full program's 1 + |b|: the loop's traced residuals
        # are the full program's residuals() of the lifted answer, to the
        # lift's rounding
        prob = self._full(True, 33)
        b = prob.b.copy()
        b[:4] += 1.0
        b[-4:] += 1.0
        records = []
        sol = solve(ConicProblem(prob.c, prob.A, b, prob.cones), trace=records.append)
        last = [r for r in records if "pres" in r][-1]
        assert sol.status == "optimal"
        assert last["pres"] == pytest.approx(sol.residuals.primal, rel=0.05, abs=0.0)
        assert last["dres"] == pytest.approx(sol.residuals.dual, rel=1e-3, abs=0.0)

    def test_a_certificate_lifts_to_a_ray(self):
        # min -(weighted sigmas) is unbounded: the lifted x is a ray of the
        # full program, its states closing A x = 0 rather than A x = b
        prob = self._full(True, 9)
        sol = solve(ConicProblem(-prob.c, prob.A, prob.b, prob.cones))
        assert sol.status == "dual_infeasible"
        assert -prob.c @ sol.x == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(prob.A @ sol.x) <= 1e-12

    def test_states_carry_no_cost(self):
        prob = self._full(True, 9)
        c = prob.c.copy()
        c[5] = 1.0
        with pytest.raises(ValueError, match="carry no cost"):
            ConicProblem(c, prob.A, prob.b, prob.cones)

    def test_cones_must_match_the_stages(self):
        # the elimination reads stage j's free x_j and cone j off the blocks
        prob = self._full(True, 9)
        assert (prob.cones.n_free, prob.cones.soc_dims) == (36, (3,) * 9)
        with pytest.raises(ValueError, match="StageMatrix of 9 stages needs 36 free"):
            ConicProblem(prob.c, prob.A, prob.b, ConeSpec(39, (3,) * 8))

    @pytest.mark.parametrize("out_of_plane, status, iterations, objective", [
        ((2e-4, 1e-4), "primal_infeasible", 0, 0.0),
        ((0.0, 0.0), "optimal", 6, 5.0e-4),
    ], ids=["infeasible", "optimal"])
    def test_dependent_eliminated_rows_are_presolved(self, out_of_plane, status, iterations,
                                                      objective, monkeypatch):
        # half a period in 3-D: both impulses leave the final out-of-plane
        # position alone, so that row of Abar (and of the condensed A) is
        # zero, and both forms presolve it and agree.  The full form is
        # presolved first: the loop gets the reduced program's ndarray A with
        # the zero row dropped, and the QR factors its 8 x 5 G', not the full
        # program's.  Where the row's b is not zero, it is the Farkas vector
        real_loop, real_qr = conic_solver._solve_batch, conic_solver._ScaledQRKKT.__init__
        loops, factored = [], []

        def recording_loop(problem, *args):
            loops.append(type(problem.A))
            return real_loop(problem, *args)

        def recording_qr(self, wbar, eta, a, *args):
            factored.append(a.shape)
            return real_qr(self, wbar, eta, a, *args)

        monkeypatch.setattr(conic_solver, "_solve_batch", recording_loop)
        monkeypatch.setattr(conic_solver._ScaledQRKKT, "__init__", recording_qr)
        c2c = builtin("circle2circle")
        scenario = replace(c2c, planar=False, thetaf=c2c.theta0 + np.pi,
                           x0=RelativeState(r=[1e-3, out_of_plane[0], 0.0],
                                            v=[0.0, out_of_plane[1], 0.0]))
        sols = {}
        for form, path in (("condensed", "scaled_qr"), ("full", "stage_qr")):
            records = []
            loops.clear()
            factored.clear()
            prob = assemble_socp(scenario, build_grid(scenario, 2), form=form)
            sols[form] = sol = solve(prob, trace=records.append)
            assert records[0] == {"iter": 0, "presolve": "reduced" if iterations else status}
            if iterations:
                assert {r["kkt"] for r in records if "kkt" in r} == {path}
                assert loops == [np.ndarray]
                assert factored and set(factored) == {(5, 8, 1)}
            else:
                assert not loops and not factored
                # the exact Farkas vector: b'y = 1, A'y + z = 0 and z in K*
                assert prob.b @ sol.y == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(sol.y @ prob.A + sol.z) <= 1e-12
                assert _in_cones(sol.z, prob.cones)
        condensed, full = sols["condensed"], sols["full"]
        assert (full.status, full.iterations) == (condensed.status, condensed.iterations)
        assert (full.status, full.iterations) == (status, iterations)
        assert full.objective == pytest.approx(objective, rel=1e-6)
        assert full.objective == pytest.approx(condensed.objective, rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12])
    def test_near_singular_reduced_rows(self, delta):
        # half a period plus delta in 3-D: the final out-of-plane position row
        # of Abar is of order delta, so it passes the rank test by a small
        # margin and both forms take the QR.  The full form presolves to the
        # condensed program, so the two report the same answer bit for bit
        c2c = builtin("circle2circle")
        scenario = replace(c2c, planar=False, thetaf=c2c.theta0 + np.pi + delta,
                           x0=RelativeState(r=[1e-3, 2e-4, 0.0], v=[0.0, 1e-4, 0.0]))
        sols = {}
        for form, path in (("condensed", "scaled_qr"), ("full", "stage_qr")):
            records = []
            sol = solve(assemble_socp(scenario, build_grid(scenario, 2), form=form),
                        trace=records.append)
            assert {r["kkt"] for r in records if "kkt" in r} == {path}
            assert sol.status not in ("max_iters", "numerical_failure")
            if sol.status == "optimal":
                assert sol.residuals.primal <= SolverSettings().feas_tol
            sols[form] = sol
        condensed, full = sols["condensed"], sols["full"]
        assert (full.status, full.iterations, full.objective) == \
            (condensed.status, condensed.iterations, condensed.objective)


# IPM iterations of the built-in scenarios, as measured on the solver
# before its Newton step moved to NT-scaled variables: a change to the
# arithmetic of the iteration must leave them exactly as they are
_BUILTIN_ITERATIONS = {
    ("condensed", 9): {"atv": 11, "circle2circle": 9, "simbolx": 8},
    ("condensed", 65): {"atv": 11, "circle2circle": 11, "simbolx": 10},
    ("condensed", 257): {"atv": 14, "circle2circle": 14, "simbolx": 12},
    ("condensed", 513): {"atv": 18, "circle2circle": 16, "simbolx": 13},
    ("condensed", 1025): {"atv": 16, "circle2circle": 15, "simbolx": 13},
    ("full", 33): {"atv": 11, "circle2circle": 10, "simbolx": 9},
    ("full", 65): {"atv": 11, "circle2circle": 11, "simbolx": 10},
    ("full", 257): {"atv": 14, "circle2circle": 14, "simbolx": 12},
}


class TestIterationGuards:
    @pytest.mark.parametrize("form, m", list(_BUILTIN_ITERATIONS))
    def test_builtin_iteration_counts(self, form, m):
        for name, iterations in _BUILTIN_ITERATIONS[form, m].items():
            scenario = builtin(name)
            sol = solve(assemble_socp(scenario, build_grid(scenario, m), form=form))
            assert (sol.status, sol.iterations) == ("optimal", iterations), name

    def test_one_qr_per_iteration(self, monkeypatch):
        # the full form's factorizations, counted over atv at M=65: the path
        # test's QR serves the first iteration, one QR of W Abar' each other
        real, calls = np.linalg.qr, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        scenario = builtin("atv")
        sol = solve(assemble_socp(scenario, build_grid(scenario, 65), form="full"))
        assert (sol.status, sol.iterations) == ("optimal", 11)
        # the condensed form's size: (programs, m c, s) = (1, 65 * 3, 4)
        assert calls == [(1, 195, 4)] * 11

    @pytest.mark.parametrize("m", [3, 513])
    def test_python_calls_per_iteration(self, m):
        # the fixed cost of an iteration: Python-level calls, counted as the
        # profiler sees them, whatever the grid size (247.5 at m=3, 225.3 at m=513)
        scenario = builtin("atv")
        prob = assemble_socp(scenario, build_grid(scenario, m))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            sol = solve(prob)
        finally:
            sys.setprofile(previous)
        assert sol.status == "optimal"
        assert calls / sol.iterations <= 260
