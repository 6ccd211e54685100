"""Turn solved cone programs into physical impulse plans and check them.

The conversion back to physical velocity units uses the per-node factor
k^2 * rho_j that relates a transformed velocity jump to the actual one.
Verification re-propagates the boundary state through fresh transition
matrices and the plan's impulses only; it never touches the optimizer's
internal state chain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import relative_dynamics as rd
from .conic_solver import ConicProblem, ConicSolution, SolverSettings, solve, solve_batch
from .kepler import TargetOrbit, time_from_true
from .relative_dynamics import RelativeState
from .transcription import (
    ExpandedSolution,
    Grid,
    Scenario,
    assemble_socp,
    build_grid,
    expand_solution,
    grid_from_nodes,
    transform_boundaries,
)

# Interior points of the bracket solved together in each refinement round;
# each round shrinks the bracket to 2 / (_BRACKET_POINTS + 1) of its width.
# A round's family costs little more per added candidate, so fewer, wider
# rounds pay: over the built-ins and nine drawn scenarios, paired timings
# of whole searches (medians of 24 alternating repeats) give 16 points
# (6.6 rounds) 8-9% and 8 points (9.2 rounds) 30-33% more time than 32
# (5.0 rounds), and 64 points (4.1 rounds) the same as 32 within 3%.
_BRACKET_POINTS = 32


@dataclass(frozen=True)
class Impulse:
    theta: float
    t: float
    dv: np.ndarray
    magnitude: float


@dataclass(frozen=True)
class TerminalError:
    """Miss distance at the final anomaly, physical and nondimensional."""

    position: float
    velocity: float
    position_scaled: float
    velocity_scaled: float


@dataclass
class ImpulsePlan:
    """Extracted burn sequence plus the raw per-node magnitudes.

    total_dv sums every grid node (the exact optimizer cost); impulses
    holds only the nodes above the extraction tolerance, with the
    discarded mass reported in dropped_dv.
    """

    impulses: list[Impulse]
    total_dv: float
    dropped_dv: float
    n_impulses: int
    mesh_m: int
    extraction_tol: float
    raw_thetas: np.ndarray
    raw_times: np.ndarray
    raw_dv: np.ndarray
    raw_magnitudes: np.ndarray
    terminal_error: Optional[TerminalError] = None


def _physical_dv(dv_scaled: np.ndarray, grid: Grid, scenario: Scenario) -> np.ndarray:
    """Per-node physical impulse vectors, (..., m, 3) in scenario velocity units."""
    orbit = scenario.orbit
    factors = orbit.k2 * grid.rho * scenario.units.length
    dv = np.zeros(dv_scaled.shape[:-1] + (3,))
    if scenario.planar:
        dv[..., 0] = dv_scaled[..., 0]
        dv[..., 2] = dv_scaled[..., 1]
    else:
        dv[:] = dv_scaled
    return dv * factors[..., None]


def _extraction_tol(tol: Optional[float], scenario: Scenario) -> float:
    """The extraction tolerance to use; a negative or non-finite one raises ValueError."""
    if tol is None:
        return scenario.extraction_tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"extraction tolerance must be finite and nonnegative, got {tol}")
    return tol


def extract_impulses(
    expanded: ExpandedSolution,
    grid: Grid,
    scenario: Scenario,
    tol: Optional[float] = None,
) -> ImpulsePlan:
    """Physical impulse plan from an expanded solution.

    tol is expressed in the problem's normalized velocity unit; nodes at
    or below it are dropped from the plan but still counted in total_dv.
    A negative or non-finite tol raises ValueError.
    """
    tol = _extraction_tol(tol, scenario)
    dv = _physical_dv(expanded.dv, grid, scenario)
    mags = np.linalg.norm(dv, axis=1)
    threshold = tol * scenario.units.velocity
    keep = mags > threshold
    impulses = [
        Impulse(theta=float(grid.nodes[j]), t=float(grid.times[j]), dv=dv[j], magnitude=float(mags[j]))
        for j in np.flatnonzero(keep)
    ]
    return ImpulsePlan(
        impulses=impulses,
        total_dv=float(mags.sum()),
        dropped_dv=float(mags[~keep].sum()),
        n_impulses=len(impulses),
        mesh_m=grid.m,
        extraction_tol=float(tol),
        raw_thetas=grid.nodes.copy(),
        raw_times=grid.times.copy(),
        raw_dv=dv,
        raw_magnitudes=mags,
    )


def _transformed_jump(dv_phys: np.ndarray, theta: float, orbit: TargetOrbit) -> np.ndarray:
    return dv_phys / (orbit.k2 * rd.rho(theta, orbit.e))


def verify_plan(plan: ImpulsePlan, scenario: Scenario) -> TerminalError:
    """Propagate the boundary state through the plan and report the miss.

    Independent of the optimizer: only the plan's impulse list and fresh
    transition matrices are used.
    """
    orbit = scenario.orbit
    x0t, xft = transform_boundaries(scenario)
    state = x0t.vector.copy()
    theta = scenario.theta0
    for imp in plan.impulses:
        state = rd.stm_full(imp.theta, theta, orbit) @ state
        state[3:] += _transformed_jump(imp.dv, imp.theta, orbit)
        theta = imp.theta
    state = rd.stm_full(scenario.theta_f, theta, orbit) @ state

    diff = state - xft.vector
    thf = scenario.theta_f
    rho_f = rd.rho(thf, orbit.e)
    r_err = diff[:3] / rho_f
    v_err = orbit.k2 * (orbit.e * math.sin(thf) * diff[:3] + rho_f * diff[3:])
    units = scenario.units
    return TerminalError(
        position=float(np.linalg.norm(r_err)),
        velocity=float(np.linalg.norm(v_err)),
        position_scaled=float(np.linalg.norm(r_err) / units.length),
        velocity_scaled=float(np.linalg.norm(v_err) / units.velocity),
    )


def merge_adjacent_impulses(
    plan: ImpulsePlan,
    scenario: Scenario,
    max_gap_steps: int = 2,
    direction_tol_deg: float = 5.0,
) -> ImpulsePlan:
    """Collapse a burn spread over neighboring nodes into one impulse.

    Impulses within max_gap_steps grid nodes of each other whose
    directions agree within direction_tol_deg are summed and placed at
    the cost-weighted mean anomaly.  Off by default everywhere; the
    merged anomalies are generally not grid nodes.  The returned plan
    keeps the original raw arrays and total cost; terminal_error is
    cleared and should be re-verified.
    """
    cos_tol = math.cos(math.radians(direction_tol_deg))
    node_of = {float(th): k for k, th in enumerate(plan.raw_thetas)}
    groups: list[list[Impulse]] = []
    for imp in plan.impulses:
        if groups:
            prev = groups[-1][-1]
            gap = node_of.get(imp.theta, 0) - node_of.get(prev.theta, 0)
            vec = sum(i.dv for i in groups[-1])
            aligned = (
                float(vec @ imp.dv)
                >= cos_tol * np.linalg.norm(vec) * imp.magnitude
            )
            if gap <= max_gap_steps and aligned:
                groups[-1].append(imp)
                continue
        groups.append([imp])

    merged = []
    for group in groups:
        if len(group) == 1:
            merged.append(group[0])
            continue
        dv = sum(i.dv for i in group)
        weights = np.array([i.magnitude for i in group])
        theta = float(weights @ [i.theta for i in group] / weights.sum())
        merged.append(Impulse(theta=theta, t=float(time_from_true(theta, scenario.orbit)),
                              dv=dv, magnitude=float(np.linalg.norm(dv))))
    return ImpulsePlan(
        impulses=merged,
        total_dv=plan.total_dv,
        dropped_dv=plan.dropped_dv,
        n_impulses=len(merged),
        mesh_m=plan.mesh_m,
        extraction_tol=plan.extraction_tol,
        raw_thetas=plan.raw_thetas,
        raw_times=plan.raw_times,
        raw_dv=plan.raw_dv,
        raw_magnitudes=plan.raw_magnitudes,
    )


@dataclass(frozen=True)
class TrajectorySample:
    theta: float
    t: float
    state: RelativeState


def reconstruct_trajectory(
    plan: ImpulsePlan,
    scenario: Scenario,
    samples_per_segment: int = 32,
) -> list[TrajectorySample]:
    """Densely sampled physical trajectory between consecutive burn nodes.

    Burns apply in anomaly order, whatever their order in the plan, and the
    burns of one anomaly (within 1e-12 of each other, relative to theta_f)
    add up.  Each burn anomaly appears twice, once with the incoming
    velocity and once with the outgoing one; positions agree, velocities
    jump by the anomaly's summed dv.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be at least 1")
    orbit = scenario.orbit
    eps = 1e-12 * max(1.0, abs(scenario.theta_f))
    x0t, _ = transform_boundaries(scenario)
    theta, state = scenario.theta0, x0t.vector
    # sampled anomalies and transformed states, mapped back in one call
    thetas, states = [np.array([theta])], [state[None, :]]

    def coast(th0, th1, x):
        """Sample the coast from th0 (excluded) to th1; the state at th1."""
        pts = np.linspace(th0, th1, samples_per_segment + 1)[1:]
        thetas.append(pts)
        states.append(rd.stm_full(pts, th0, orbit) @ x)
        return states[-1][-1]

    burns = sorted(plan.impulses, key=lambda imp: imp.theta)
    for k, imp in enumerate(burns):
        if imp.theta > theta + eps:
            theta, state = imp.theta, coast(theta, imp.theta, state)
        state = state.copy()
        state[3:] += _transformed_jump(imp.dv, imp.theta, orbit)
        if k + 1 == len(burns) or burns[k + 1].theta > theta + eps:
            thetas.append(np.array([theta]))
            states.append(state[None, :])
    if scenario.theta_f > theta + eps:
        coast(theta, scenario.theta_f, state)

    theta = np.concatenate(thetas)
    times = time_from_true(theta, orbit)
    rel = rd.from_transformed(rd.TransformedState.from_vector(np.concatenate(states)),
                              theta, orbit)
    return [TrajectorySample(theta=float(th), t=float(t), state=RelativeState(r=r, v=v))
            for th, t, r, v in zip(theta, times, rel.r, rel.v)]


@dataclass(frozen=True)
class InertialSample:
    theta: float
    t: float
    chaser: np.ndarray
    target: np.ndarray


def _perifocal_to_inertial(orbit: TargetOrbit) -> np.ndarray:
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    ci, si = math.cos(orbit.i), math.sin(orbit.i)
    cw, sw = math.cos(orbit.argp), math.sin(orbit.argp)
    rz_raan = np.array([[co, -so, 0.0], [so, co, 0.0], [0.0, 0.0, 1.0]])
    rx_i = np.array([[1.0, 0.0, 0.0], [0.0, ci, -si], [0.0, si, ci]])
    rz_argp = np.array([[cw, -sw, 0.0], [sw, cw, 0.0], [0.0, 0.0, 1.0]])
    return rz_raan @ rx_i @ rz_argp


def to_inertial(samples: list[TrajectorySample], orbit: TargetOrbit) -> list[InertialSample]:
    """Inertial chaser/target positions for plotting.

    The rotating frame has x along-track, y opposite the orbit normal
    and z radial toward the central body.
    """
    rot = _perifocal_to_inertial(orbit)
    h_hat = rot @ np.array([0.0, 0.0, 1.0])
    out = []
    for s in samples:
        th = s.theta
        r_mag = orbit.p / rd.rho(th, orbit.e)
        r_hat = rot @ np.array([math.cos(th), math.sin(th), 0.0])
        t_hat = np.cross(h_hat, r_hat)
        target = r_mag * r_hat
        axes = np.column_stack([t_hat, -h_hat, -r_hat])
        chaser = target + axes @ s.state.r
        out.append(InertialSample(theta=th, t=s.t, chaser=chaser, target=target))
    return out


@dataclass(frozen=True)
class StageTimes:
    """Wall time in seconds of each stage of one plan_rendezvous call.

    A stage that did not run (the grid was passed in, or the solve found
    no optimal plan to expand, extract and verify) reads 0.
    """

    grid: float
    assembly: float
    solve: float
    expansion: float
    extraction: float
    verification: float


@dataclass(frozen=True)
class PlanResult:
    """One scenario solve end to end: problem, solution, extracted plan."""

    plan: Optional[ImpulsePlan]
    solution: ConicSolution
    grid: Grid
    problem: ConicProblem
    times: StageTimes


def plan_rendezvous(
    scenario: Scenario,
    mesh_m: Optional[int] = None,
    form: str = "condensed",
    tol: Optional[float] = None,
    settings: Optional[SolverSettings] = None,
    trace=None,
    grid: Optional[Grid] = None,
) -> PlanResult:
    """Transcribe, solve, extract and verify one scenario.

    A bad extraction tolerance raises ValueError before any work is done.
    """
    _extraction_tol(tol, scenario)
    grid_time = 0.0
    if grid is None:
        t0 = time.perf_counter()
        grid = build_grid(scenario, mesh_m if mesh_m is not None else scenario.mesh_m)
        grid_time = time.perf_counter() - t0
    t1 = time.perf_counter()
    problem = assemble_socp(scenario, grid, form=form)
    t2 = time.perf_counter()
    sol = solve(problem, settings, trace=trace)
    t3 = t4 = t5 = t6 = time.perf_counter()
    plan = None
    if sol.status == "optimal":
        expanded = expand_solution(problem, sol, scenario, grid)
        t4 = time.perf_counter()
        plan = extract_impulses(expanded, grid, scenario, tol=tol)
        t5 = time.perf_counter()
        plan.terminal_error = verify_plan(plan, scenario)
        t6 = time.perf_counter()
    times = StageTimes(grid=grid_time, assembly=t2 - t1, solve=t3 - t2, expansion=t4 - t3,
                       extraction=t5 - t4, verification=t6 - t5)
    return PlanResult(plan=plan, solution=sol, grid=grid, problem=problem, times=times)


@dataclass(frozen=True)
class MeshPoint:
    m: int
    total_dv: float
    n_impulses: int
    solve_time: float
    assembly_time: float
    iterations: int
    status: str


def mesh_sweep(scenario: Scenario, m_list, form: str = "condensed",
               tol: Optional[float] = None) -> list[MeshPoint]:
    """Independent solves over a list of mesh sizes, sorted by size.

    Failed meshes are reported with their status and NaN cost; the sweep
    continues.  A bad extraction tolerance raises ValueError at once.
    """
    _extraction_tol(tol, scenario)
    rows = []
    for m in sorted(int(m) for m in m_list):
        point = dict(total_dv=math.nan, n_impulses=0, solve_time=math.nan,
                     assembly_time=math.nan, iterations=0)
        try:
            res = plan_rendezvous(scenario, mesh_m=m, form=form, tol=tol)
        except (ValueError, np.linalg.LinAlgError) as exc:
            point["status"] = f"error: {exc}"
        else:
            sol = res.solution
            point.update(solve_time=sol.solve_time, assembly_time=res.times.assembly,
                         iterations=sol.iterations, status=sol.status)
            if res.plan is not None:
                point.update(total_dv=res.plan.total_dv, n_impulses=res.plan.n_impulses)
        rows.append(MeshPoint(m=m, **point))
    return rows


@dataclass(frozen=True)
class InnerNodeResult:
    """Best interior node; plan is None (total_dv inf) when its solve was not optimal."""

    theta2: float
    total_dv: float
    plan: Optional[ImpulsePlan]
    status: str
    scan_nodes: np.ndarray
    scan_costs: np.ndarray


def _total_dv(dv: np.ndarray, grid: Grid, scenario: Scenario) -> np.ndarray:
    """Physical total of each solution's impulses, the total_dv of its plan."""
    return np.linalg.norm(_physical_dv(dv, grid, scenario), axis=-1).sum(axis=-1)


def _three_node_grid(scenario: Scenario, theta2) -> Grid:
    """The grid through one interior anomaly, or the family through an array of them."""
    ends = np.broadcast_arrays(scenario.theta0, theta2, scenario.theta_f)
    return grid_from_nodes(scenario, np.stack(ends, axis=-1))


def _three_node_costs(scenario: Scenario, thetas: np.ndarray,
                      settings: Optional[SolverSettings]) -> np.ndarray:
    """Plan cost of each interior anomaly, inf where the solve was not optimal.

    The three-node family is gridded, assembled, solved and costed by one
    call each; the cost is read off each solution without building its plan.
    """
    grid = _three_node_grid(scenario, thetas)
    problem = assemble_socp(scenario, grid)
    sols = solve_batch(problem, settings)
    costs = _total_dv(np.stack([sol.x for sol in sols])[:, problem.var_map["dv"]], grid, scenario)
    costs[[sol.status != "optimal" for sol in sols]] = math.inf
    return costs


def inner_node_search(scenario: Scenario, resolution: int = 100,
                      settings: Optional[SolverSettings] = None) -> InnerNodeResult:
    """Best interior burn anomaly for a three-node grid.

    Scans the open horizon at the given resolution, then narrows the
    bracket around the best candidate to 1e-6 rad: each round solves
    evenly spaced interior points of the bracket as one batch and keeps
    the two neighbours of the best.  Only the chosen anomaly is planned.
    """
    if resolution < 10:
        raise ValueError(f"resolution must be at least 10, got {resolution}")
    th0, thf = scenario.theta0, scenario.theta_f
    span = thf - th0
    cands = th0 + span * (np.arange(1, resolution + 1) / (resolution + 1))
    costs = _three_node_costs(scenario, cands, settings)
    best = int(np.argmin(costs))

    pad = 1e-9 * span
    a = cands[best - 1] if best > 0 else th0 + pad
    b = cands[best + 1] if best < resolution - 1 else thf - pad
    while (b - a) > 1e-6:
        points = a + (b - a) * (np.arange(1, _BRACKET_POINTS + 1) / (_BRACKET_POINTS + 1))
        j = int(np.argmin(_three_node_costs(scenario, points, settings)))
        a, b = (points[j - 1] if j > 0 else a), (points[j + 1] if j < _BRACKET_POINTS - 1 else b)
    theta2 = 0.5 * (a + b)
    res = plan_rendezvous(scenario, grid=_three_node_grid(scenario, theta2), settings=settings)
    total = res.plan.total_dv if res.plan is not None else math.inf
    return InnerNodeResult(theta2=float(theta2), total_dv=float(total), plan=res.plan,
                           status=res.solution.status, scan_nodes=cands, scan_costs=costs)
