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


def _singular_factorization(*args):
    return None  # dense_lu's answer to an exactly singular pivot


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
        # free variables take the dense LU, whose diagonal shift is what keeps
        # a dependent row's zero pivot off zero: the appended row changes
        # neither the status nor the objective
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
        # min c'x over the 3-cone alone: no equality rows for the scaled QR
        prob = ConicProblem(c=c, A=np.zeros((0, 3)), b=np.zeros(0), cones=ConeSpec(0, (3,)))
        sol = solve(prob)
        assert (sol.status, sol.y.shape) == (status, (0,))
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
        scenario = builtin("atv")
        programs = {"scaled_qr": make_kkt_certified_problem(rng, n_free=0)[0],
                    "dense_lu": make_kkt_certified_problem(rng, n_free=2)[0],
                    "stage_qr": assemble_socp(scenario, build_grid(scenario, 9), form="full")}
        for path, prob in programs.items():
            records = []
            solve(prob, trace=records.append)
            steps = [r for r in records if "alpha" in r]
            assert steps and all(r["kkt"] == path for r in steps)
            assert all(r["factor_s"] >= 0.0 and r["reg_retries"] == 0 for r in steps)
            # no path refines its solve, so no record counts refinement rounds
            assert not any("refine_rounds" in r for r in records)

    def test_trace_counts_regularization_retries(self, rng, monkeypatch):
        real_dense_lu = conic_solver.dense_lu
        calls = []

        def dense_lu_singular_once(k):
            calls.append(1)
            if len(calls) == 1:
                return None
            return real_dense_lu(k)

        monkeypatch.setattr(conic_solver, "dense_lu", dense_lu_singular_once)
        prob, *_ = make_kkt_certified_problem(rng, n_free=2)
        records = []
        solve(prob, trace=records.append)
        retries = [r["reg_retries"] for r in records if "alpha" in r]
        assert retries[0] == 1 and not any(retries[1:])

    @pytest.mark.parametrize("stop, name, fake", [
        ("kkt_breakdown", "_ScaledQRKKT", _failing_factorization),
        ("cone_boundary", "_jdot", lambda u, v: np.zeros(u.shape[:-2] + u.shape[-1:])),
        ("step_stall", "_max_step", lambda u, det_u, du, programs: 0.0),
        pytest.param("kkt_breakdown", "dense_lu", _singular_factorization,
                     id="kkt_breakdown-dense_lu"),
    ])
    def test_hidden_stops_are_named_in_the_trace(self, monkeypatch, stop, name, fake):
        monkeypatch.setattr(conic_solver, name, fake)
        if name == "dense_lu":
            # the dense path: min sigma s.t. f = 0, v - f = 3 with f free
            prob = ConicProblem(c=[0.0, 1.0, 0.0], A=[[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0]],
                                b=[0.0, 3.0], cones=ConeSpec(1, (2,)))
        else:
            prob = ConicProblem(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[3.0], cones=ConeSpec(0, (2,)))
        records = []
        sol = solve(prob, trace=records.append)
        assert sol.status == stop
        assert records[-1] == {"iter": sol.iterations, "stop": stop}
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
            # dependent rows: this member needs the dense LU and runs alone
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

    def test_free_variables_run_one_at_a_time(self, rng):
        self._matches_solo(_stack(self._family(rng, 3, n_free=2)))

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
    """A random interior primal-dual pair (u, v) in the solver's variable
    order, with its NT scaling and the inverse scaling, each as the
    (wbar, eta) arrays that _ConeLayout.scale takes."""
    layout = conic_solver._ConeLayout(cones)
    free = np.zeros(cones.n_free)
    u, v = (np.concatenate([free, _interior(rng, cones.soc_dims)])[layout.perm, None]
            for _ in range(2))
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


def _dense_kkt(a, layout, winv):
    """Reference K = [[-H, A'], [A, 0]] with H = W^-1 W^-1, built densely in the
    solver's variable order (a is A with its columns in that order)."""
    p, n = a.shape
    k = np.zeros((n + p, n + p))
    idx = layout.n_free + np.arange(layout.d) * layout.g + np.arange(layout.g)[:, None]
    k[idx[:, :, None], idx[:, None, :]] = -np.matmul(winv, winv)
    k[n:, :n] = a
    k[:n, n:] = a.T
    return k


class TestConeLayout:
    def test_permutation_groups_cones_by_dimension_component_by_component(self):
        layout = conic_solver._ConeLayout(ConeSpec(2, (3, 3, 3)))
        # free block; the heads, first tails and second tails of the 3-cones
        # at 2, 5 and 8
        assert layout.perm.tolist() == [0, 1, 2, 5, 8, 3, 6, 9, 4, 7, 10]
        assert (layout.n_free, layout.d, layout.g) == (2, 3, 3)
        assert layout.perm[layout.unperm].tolist() == list(range(11))
        v = np.arange(11.0)[:, None]
        block = layout.blocks(v)
        assert block.shape == (3, 3) and np.shares_memory(block, v)
        # column 1 holds the cone at 5, component by component
        assert block[:, 1].tolist() == [3.0, 6.0, 9.0]
        assert layout.perm[[3, 6, 9]].tolist() == [5, 6, 7]
        # a program without cones has an empty block
        empty = conic_solver._ConeLayout(ConeSpec(1, ()))
        assert empty.perm.tolist() == [0] and empty.blocks(np.ones((1, 4))).size == 0

    def test_a_family_pools_each_dimension_into_one_contiguous_view(self):
        # variables x programs: component i of cone j of program k sits at
        # [i, j K + k] of the (d, g K) view
        layout = conic_solver._ConeLayout(ConeSpec(2, (3, 3, 3, 3)))
        d, g, count = 3, 4, 5
        v = np.arange(14.0 * count).reshape(14, count)
        block = layout.blocks(v)
        assert block.shape == (d, g * count) and block.flags.c_contiguous
        assert np.shares_memory(block, v)
        i, j, k = np.meshgrid(range(d), range(g), range(count), indexing="ij")
        assert np.array_equal(block[i, j * count + k], v[2 + i * g + j, k])
        # a stack of iterates, (columns, n, programs), pools alike
        stacked = layout.blocks(np.stack([v, -v]))
        assert stacked.shape == (2, d, g * count)
        assert np.array_equal(stacked[1], -block)

    def test_a_solo_program_keeps_its_row_order(self):
        # a family of one stores one program's variables in the solver's
        # order, contiguously, and its block is the (d, g) view of that row
        layout = conic_solver._ConeLayout(ConeSpec(2, (3, 3, 3, 3)))
        row = np.arange(14.0)
        v = row[:, None].copy()
        assert np.array_equal(v.reshape(-1), row) and v.flags.c_contiguous
        block = layout.blocks(v)
        assert block.strides == (8 * 4, 8)
        assert np.array_equal(block, row[2:].reshape(3, 4))


def _check_gty(rng, kkt, a, layout, nt):
    """A KKT path's G'dy, which the predictor's W dz takes, against W applied
    to A'dy (a is A with its columns in the solver's order, as is every vector)."""
    dy = rng.normal(size=(1, a.shape[0]))
    want = layout.scale(*nt, (a.T @ dy[0])[:, None])
    assert np.linalg.norm(kkt.gty(dy) - want) <= 1e-12 * np.linalg.norm(want)


def _scaled_kkt(a, layout, nt, nt_inv):
    """Reference scaled K = [[-E, G'], [G, 0]], G = A W, as S K S for the
    unscaled K and S = diag(W, I) (H = 0 on the free block, W H W = I on the cones)."""
    p, n = a.shape
    s = np.eye(n + p)
    idx = layout.n_free + np.arange(layout.d) * layout.g + np.arange(layout.g)[:, None]
    s[idx[:, :, None], idx[:, None, :]] = _dense(*nt)
    return s @ _dense_kkt(a, layout, _dense(*nt_inv)) @ s


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

    def test_sparse_factorization_not_built_for_full_rank_cone_programs(self, rng, monkeypatch):
        built = []

        class CountingDenseKKT(conic_solver._DenseKKT):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(conic_solver, "_DenseKKT", CountingDenseKKT)
        scenario = builtin("circle2circle")
        programs = [make_kkt_certified_problem(rng, n_free=0)[0] for _ in range(10)]
        # the full form's free states are eliminated onto the scaled QR
        programs += [assemble_socp(scenario, build_grid(scenario, 33), form=form)
                     for form in ("condensed", "full")]
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


class TestSparseKKT:
    """The dense LU's KKT system, which programs outside the scaled QR and
    the stage elimination take, and the full form's once-per-solve set-up;
    the name keeps these tests' ids."""

    @staticmethod
    def _check(rng, prob):
        layout, _, _, nt, nt_inv = _scaled_point(rng, prob.cones)
        a = prob.A[:, layout.perm]
        kkt = conic_solver._DenseKKT(*nt, a[:, :, None], layout)
        k = _scaled_kkt(a, layout, nt, nt_inv)
        n = prob.c.size
        # K is singular with dependent rows, or with a free direction in the
        # null space of A.  For a consistent right-hand side the solution is
        # then determined up to null(K); compare its part in range(K), which
        # for the minimum-norm least-squares solution is all of it.  The
        # null-space part of a regularized solve is rounding amplified by the
        # inverse regularization and does not enter the Newton step: A'dy and
        # the objective see no null(A') direction of dy, and a free direction
        # with A dx = 0 and zero cost is a free direction of the program.
        rhs = k @ rng.normal(size=k.shape[0])
        want = np.linalg.lstsq(k, rhs, rcond=None)[0]
        # the solver's interface: W r1 + dl in, dxs = W^-1 dx out, as rows
        # and as cone columns
        dl = rng.normal(size=(1, n, 1))
        dxs_rows, dxs, dy = kkt.solve(rhs[None, :n, None] - dl, dl, rhs[None, None, n:])
        assert np.array_equal(dxs_rows, dxs.transpose(2, 0, 1))
        got = np.concatenate([dxs[0, :, 0], dy[0, 0]])
        determined = np.linalg.pinv(k) @ (k @ got)
        assert np.linalg.norm(determined - want) <= 1e-9 * np.linalg.norm(want)
        assert np.linalg.norm(k @ got - rhs) <= 1e-9 * np.linalg.norm(rhs)
        _check_gty(rng, kkt, a, layout, nt)
        return np.linalg.matrix_rank(k) == k.shape[0]

    def test_matches_dense_least_squares_with_free_variables(self, rng):
        nonsingular = [self._check(rng, make_kkt_certified_problem(rng, n_free=int(n))[0])
                       for n in rng.integers(1, 4, size=20)]
        # most draws have a nonsingular K, where the whole solution is compared
        assert sum(nonsingular) >= 10

    def test_matches_dense_least_squares_with_dependent_rows(self, rng):
        for _ in range(20):
            prob, *_ = make_kkt_certified_problem(rng, n_free=0, ncones=int(rng.integers(2, 5)))
            # append consistent combinations of the rows
            mix = rng.normal(size=(int(rng.integers(1, 4)), prob.b.size))
            dependent = ConicProblem(c=prob.c, A=np.vstack([prob.A, mix @ prob.A]),
                                     b=np.concatenate([prob.b, mix @ prob.b]), cones=prob.cones)
            assert not self._check(rng, dependent)

    def test_singular_pivot_retries_at_the_old_strengths(self, rng, monkeypatch):
        # the first factorization shifts K's diagonal by a rounding; each
        # exactly singular pivot retries at 1e-10 + 1e-8, then + 1e-6.  The
        # row block's diagonal holds the shift alone
        real, shifts = conic_solver.dense_lu, []

        def singular_twice(k):
            shifts.append(np.diagonal(k)[n:].copy())
            return None if len(shifts) <= 2 else real(k)

        monkeypatch.setattr(conic_solver, "dense_lu", singular_twice)
        prob, *_ = make_kkt_certified_problem(rng, n_free=2)
        n = prob.c.size
        layout, _, _, nt, _ = _scaled_point(rng, prob.cones)
        kkt = conic_solver._DenseKKT(*nt, prob.A[:, layout.perm, None], layout)
        assert kkt.reg_retries == 2
        first, retry, last = shifts
        assert np.all(first == np.finfo(float).eps)
        assert retry == pytest.approx(np.full(prob.b.size, 1e-10 + 1e-8), rel=1e-12)
        assert last == pytest.approx(np.full(prob.b.size, 1e-10 + 1e-8 + 1e-6), rel=1e-12)

    @staticmethod
    def _full(m):
        scenario = builtin("atv")
        return assemble_socp(scenario, build_grid(scenario, m), form="full")

    def test_band_slot_map_built_once_per_solve(self, monkeypatch):
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
        prob = self._full(33)
        counts = []
        for cap in (3, 10):
            built.clear()
            lifted.clear()
            assert solve(prob, SolverSettings(max_iters=cap)).iterations == cap
            counts.append((len(built), len(lifted)))
        assert counts == [(1, 1), (1, 1)]

    def test_band_storage_allocated_once_per_solve(self, monkeypatch):
        # every factorization of a solve is one QR of the same reduced rows,
        # the condensed form's shape: none is rebuilt or copied per iteration
        real, rows = conic_solver._ScaledQRKKT.__init__, []

        def recording(self, wbar, eta, a, *args):
            rows.append((a.__array_interface__["data"][0], a.shape))
            return real(self, wbar, eta, a, *args)

        monkeypatch.setattr(conic_solver._ScaledQRKKT, "__init__", recording)
        prob = self._full(33)
        for cap in (3, 10):
            rows.clear()
            assert solve(prob, SolverSettings(max_iters=cap)).iterations == cap
            assert len(rows) == cap and len(set(rows)) == 1
            assert rows[0][1] == (4, 33 * 3, 1)


class TestStageKKT:
    """The full form's presolve: its states eliminated once per solve onto a
    cone-only program, whose answer is lifted back; the name keeps these
    tests' ids."""

    @staticmethod
    def _full(planar, m):
        scenario = replace(builtin("atv"), planar=planar)
        return assemble_socp(scenario, build_grid(scenario, m), form="full")

    @pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
    def test_matches_the_dense_lu_on_random_interior_scalings(self, rng, planar):
        # at NT scalings of random interior points a Newton step through the
        # reduced QR and the lift solves the full scaled K (its free rows'
        # right-hand side zero, as the loop's is) to a backward error of
        # rounding, so it agrees with the dense LU within K's condition
        # number (3e10 at M=2)
        for m in (2, 9, 33):
            prob = self._full(planar, m)
            reduced = prob.A.presolve(prob)
            cones = conic_solver._ConeLayout(reduced.cones)
            (p, n), nf = prob.A.shape, prob.cones.n_free
            for _ in range(3):
                layout, _, _, nt, _ = _scaled_point(rng, prob.cones)
                qr = conic_solver._ScaledQRKKT(*nt, reduced.A[:, cones.perm, None], cones)
                dense = conic_solver._DenseKKT(*nt, np.asarray(prob.A)[:, layout.perm, None],
                                               layout)
                wr1, dl = rng.normal(size=(2, 2, n, 1))
                wr1[:, :nf] = dl[:, :nf] = 0.0
                r2 = rng.normal(size=(1, 2, p))
                _, dxs, dym = qr.solve(wr1[:, nf:], dl[:, nf:], prob.A.telescope(r2))
                # the states solve A dx = r2 with dx = W dxs on the cones
                dx = cones.scale(*nt, dxs)[..., 0].take(cones.unperm, axis=-1)
                dx, dy, _ = prob.A.lift(dx, dym[0], dx, r2[0])
                x = np.concatenate([dx[:, :nf], dxs[..., 0], dy], axis=1)
                want = dense.solve(wr1, dl, r2)
                ref = np.concatenate([want[1][..., 0], want[2][0]], axis=1)
                rhs = np.concatenate([(wr1 + dl)[..., 0], r2[0]], axis=1)
                # the unshifted K = [[-E, G'], [G, 0]] that the dense LU factors
                k = np.diag(np.r_[np.zeros(nf), -np.ones(n - nf), np.zeros(p)])
                k[n:, :n], k[:n, n:] = dense.g, dense.g.T
                backward = np.linalg.norm(rhs - x @ k, axis=1) / (
                    np.linalg.norm(k, 2) * np.linalg.norm(x, axis=1) + np.linalg.norm(rhs, axis=1))
                assert np.all(backward <= 1e-14)
                assert np.linalg.norm(x - ref) <= 1e-15 * np.linalg.cond(k) * np.linalg.norm(ref)

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

    @pytest.mark.parametrize("out_of_plane, status, objective", [
        ((2e-4, 1e-4), "primal_infeasible", 2.0 / 3.0),
        ((0.0, 0.0), "optimal", 5.0e-4),
    ], ids=["infeasible", "optimal"])
    def test_dependent_eliminated_rows_take_the_dense_lu(self, out_of_plane, status, objective,
                                                          monkeypatch):
        # half a period in 3-D: both impulses leave the final out-of-plane
        # position alone, so that row of Abar (and of the condensed A) is
        # zero, and both forms take the dense LU and agree.  The full form is
        # presolved first: the loop gets the reduced program's ndarray A and
        # the LU factors its 14 x 14 K, not the full program's 38 x 38
        real_loop, real_lu = conic_solver._solve_batch, conic_solver.dense_lu
        loops, factored = [], []

        def recording_loop(problem, *args):
            loops.append(type(problem.A))
            return real_loop(problem, *args)

        def recording_lu(k):
            factored.append(k.shape)
            return real_lu(k)

        monkeypatch.setattr(conic_solver, "_solve_batch", recording_loop)
        monkeypatch.setattr(conic_solver, "dense_lu", recording_lu)
        c2c = builtin("circle2circle")
        scenario = replace(c2c, planar=False, thetaf=c2c.theta0 + np.pi,
                           x0=RelativeState(r=[1e-3, out_of_plane[0], 0.0],
                                            v=[0.0, out_of_plane[1], 0.0]))
        sols = {}
        for form in ("condensed", "full"):
            records = []
            loops.clear()
            factored.clear()
            sols[form] = solve(assemble_socp(scenario, build_grid(scenario, 2), form=form),
                               trace=records.append)
            assert {r["kkt"] for r in records if "kkt" in r} == {"dense_lu"}
            assert loops == [np.ndarray]
            assert factored and set(factored) == {(14, 14)}
        condensed, full = sols["condensed"], sols["full"]
        assert (full.status, full.iterations) == (condensed.status, condensed.iterations)
        assert full.status == status
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
        # profiler sees them, whatever the grid size (268 at m=3, 244 at m=513)
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
        assert calls / sol.iterations <= 281
