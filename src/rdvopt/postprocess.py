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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import relative_dynamics as rd
from .conic_solver import (
    ConicProblem,
    ConicSolution,
    SolverSettings,
    _check_integer,
    _check_real,
    solve,
    solve_batch,
)
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

# Interior points of the bracket solved together in each refinement round.
# Most searches end after two rounds whatever the count, so it mostly sets
# what a round costs; 8 to 64 points time within a few percent of 32.
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
    """Extracted burn sequence plus the raw per-node impulses.

    impulses holds only the nodes above the extraction tolerance, with the
    discarded mass reported in dropped_dv.
    """

    impulses: list[Impulse]
    dropped_dv: float
    extraction_tol: float
    raw_thetas: np.ndarray
    raw_dv: np.ndarray
    raw_magnitudes: np.ndarray
    terminal_error: Optional[TerminalError] = None

    @property
    def total_dv(self) -> float:
        """Sum over every grid node, dropped ones included: the optimizer's cost."""
        return float(self.raw_magnitudes.sum())

    @property
    def n_impulses(self) -> int:
        return len(self.impulses)

    @property
    def mesh_m(self) -> int:
        return len(self.raw_thetas)


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
    """The extraction tolerance to use: tol, or the scenario's if tol is None."""
    if tol is None:
        return scenario.extraction_tol
    _check_real("extraction tolerance tol", tol, "nonnegative")
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
    A tol that is not a finite nonnegative real raises ValueError.
    """
    tol = _extraction_tol(tol, scenario)
    dv = _physical_dv(expanded.dv, grid, scenario)
    mags = np.linalg.norm(dv, axis=-1)
    threshold = tol * scenario.units.velocity
    keep = mags > threshold
    impulses = [
        Impulse(theta=float(grid.nodes[j]), t=float(grid.times[j]), dv=dv[j], magnitude=float(mags[j]))
        for j in np.flatnonzero(keep)
    ]
    return ImpulsePlan(
        impulses=impulses,
        dropped_dv=float(mags[~keep].sum()),
        extraction_tol=float(tol),
        raw_thetas=grid.nodes.copy(),
        raw_dv=dv,
        raw_magnitudes=mags,
    )


def _propagate(plan: ImpulsePlan, scenario: Scenario,
               samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Anomalies and transformed states of reconstruct_trajectory's pass.

    The start, samples evenly spaced points of each coast (its end
    included) and each burn anomaly's outgoing state.  The transition
    matrices of every coast come fresh from one stm_full call.  A burn
    outside the horizon (by more than the 1e-12 that groups burns) raises
    ValueError.
    """
    _check_integer("samples_per_segment", samples, 1)
    orbit = scenario.orbit
    eps = 1e-12 * max(1.0, abs(scenario.theta_f))
    if not all(scenario.theta0 - eps <= imp.theta <= scenario.theta_f + eps
               for imp in plan.impulses):
        raise ValueError("every impulse must lie within the horizon [theta0, theta_f]")
    # the coasts' ends: the start, each burn anomaly and the final anomaly,
    # with the burns at each
    knots, groups = [scenario.theta0], [[]]
    for imp in sorted(plan.impulses, key=lambda imp: imp.theta):
        if imp.theta > knots[-1] + eps:
            knots.append(imp.theta)
            groups.append([])
        groups[-1].append(imp)
    if scenario.theta_f > knots[-1] + eps:
        knots.append(scenario.theta_f)
        groups.append([])
    ends = np.array(knots)
    # np.linspace(ends[k], ends[k + 1], samples + 1)[1:] for every coast k at once
    pts = ends[:-1, None] + np.arange(1, samples + 1) * ((ends[1:] - ends[:-1]) / samples)[:, None]
    pts[:, -1] = ends[1:]
    phis = rd.stm_full(pts, ends[:-1, None], orbit)

    state = transform_boundaries(scenario)[0].vector
    thetas, states = [ends[:1]], [state[None, :]]
    for k, group in enumerate(groups):
        if k:
            thetas.append(pts[k - 1])
            states.append(phis[k - 1] @ state)
            state = states[-1][-1]
        if group:
            state = state.copy()
            for imp in group:
                state[3:] += imp.dv / (orbit.k2 * rd.rho(imp.theta, orbit.e))
            thetas.append(ends[k:k + 1])
            states.append(state[None, :])
    return np.concatenate(thetas), np.concatenate(states)


def verify_plan(plan: ImpulsePlan, scenario: Scenario) -> TerminalError:
    """Propagate the boundary state through the plan and report the miss.

    Independent of the optimizer: only the plan's impulse list and fresh
    transition matrices are used.  The end state is that of the pass
    reconstruct_trajectory samples, taken with one sample per coast.
    """
    state = _propagate(plan, scenario, 1)[1][-1]
    end = rd.from_transformed(rd.TransformedState.from_vector(state), scenario.theta_f,
                              scenario.orbit)
    position = np.linalg.norm(end.r - scenario.xf.r)
    velocity = np.linalg.norm(end.v - scenario.xf.v)
    units = scenario.units
    return TerminalError(
        position=float(position),
        velocity=float(velocity),
        position_scaled=float(position / units.length),
        velocity_scaled=float(velocity / units.velocity),
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
    return replace(plan, impulses=merged, terminal_error=None)


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
    add up.  Each coast gets samples_per_segment points, an integer of at
    least 1 (else ValueError).  Each burn anomaly appears twice, once with
    the incoming velocity and once with the outgoing one; positions agree,
    velocities jump by the anomaly's summed dv.
    """
    theta, states = _propagate(plan, scenario, samples_per_segment)
    times = time_from_true(theta, scenario.orbit)
    rel = rd.from_transformed(rd.TransformedState.from_vector(states), theta, scenario.orbit)
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

    The grid is given by mesh_m (default: the scenario's) or as grid, not
    both.  A bad extraction tolerance raises ValueError before any work is
    done, and so do both grid arguments and a grid whose ends are not the
    scenario's horizon.
    """
    _extraction_tol(tol, scenario)
    if mesh_m is not None and grid is not None:
        raise ValueError("give the grid by mesh_m or by grid, not both")
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
    status: str


def mesh_sweep(scenario: Scenario, m_list, form: str = "condensed",
               tol: Optional[float] = None) -> list[MeshPoint]:
    """Independent solves over a list of mesh sizes, sorted by size.

    Failed meshes are reported with their status and NaN cost; the sweep
    continues.  A bad extraction tolerance or a mesh size that is not an
    integer of at least 2 raises ValueError before any solve.
    """
    _extraction_tol(tol, scenario)
    m_list = list(m_list)  # a generator is read once
    for m in m_list:
        _check_integer("mesh size", m, 2)
    rows = []
    for m in sorted(int(m) for m in m_list):
        point = dict(total_dv=math.nan, n_impulses=0, solve_time=math.nan)
        try:
            res = plan_rendezvous(scenario, mesh_m=m, form=form, tol=tol)
        except (ValueError, np.linalg.LinAlgError) as exc:
            point["status"] = f"error: {exc}"
        else:
            point.update(solve_time=res.solution.solve_time, status=res.solution.status)
            if res.plan is not None:
                point.update(total_dv=res.plan.total_dv, n_impulses=res.plan.n_impulses)
        rows.append(MeshPoint(m=m, **point))
    return rows


@dataclass(frozen=True)
class BracketRound:
    """One batched solve of the inner-node search.

    It sampled the window (lo, hi) and found its best at index best.  The
    five-point fit there put the minimum at estimate, with the spread and
    margin of _stencil_minimum (nan, inf and inf when the fit was
    unusable).  placed says whether an earlier estimate placed the window;
    wall_time is the round's seconds.
    """

    lo: float
    hi: float
    best: int
    estimate: float
    spread: float
    margin: float
    placed: bool
    wall_time: float


@dataclass(frozen=True)
class InnerNodeResult(PlanResult):
    """The PlanResult of the best three-node grid, with the scan that chose it.

    plan is None (total_dv inf) when the chosen grid's solve was not optimal.
    rounds holds one record per batched solve that refined the scan's best.
    """

    theta2: float
    scan_nodes: np.ndarray
    scan_costs: np.ndarray
    rounds: tuple[BracketRound, ...]

    @property
    def total_dv(self) -> float:
        return self.plan.total_dv if self.plan is not None else math.inf

    @property
    def status(self) -> str:
        return self.solution.status

    @property
    def bracket_rounds(self) -> int:
        return len(self.rounds)


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
    dv = _physical_dv(np.stack([sol.x for sol in sols])[:, problem.var_map["dv"]], grid, scenario)
    costs = np.linalg.norm(dv, axis=-1).sum(axis=-1)
    costs[[sol.status != "optimal" for sol in sols]] = math.inf
    return costs


# Rows give p'(s) = a0 + a1 s + a2 s^2 + a3 s^3 of the degree-4 polynomial
# through f(-2), ..., f(2), s in units of the sample spacing.
_QUARTIC_SLOPE = np.array([
    [1.0, -8.0, 0.0, 8.0, -1.0],
    [-1.0, 16.0, -30.0, 16.0, -1.0],
    [-1.0, 2.0, 0.0, -2.0, 1.0],
    [1.0, -4.0, 6.0, -4.0, 1.0],
]) / np.array([[12.0], [12.0], [4.0], [6.0]])


def _stencil_minimum(points: np.ndarray, costs: np.ndarray, j: int,
                     reach: int = 2) -> tuple[float, float, float]:
    """Minimum of the quartic through evenly spaced points j-2 .. j+2, its spread and margin.

    Newton steps on the quartic's cubic derivative, from point j, find the
    minimum of every five-point stencil through j that fits in the points
    and lies at most reach points off centre.  The spread, the centred
    minimum's largest distance from the minima of the stencils shifted by
    one point, estimates its error where the samples resolve the curve;
    the margin, its largest distance from all the shifted minima, is the
    wider estimate that also holds where they are coarse.  Both are inf,
    and the minimum unusable, when the centred stencil does not fit, a
    stencil holds an inf cost, has no positive curvature at its minimum or
    has not settled there, or the centred minimum leaves (points[j-1],
    points[j+1]).
    """
    if not 2 <= j < len(points) - 2:
        return math.nan, math.inf, math.inf
    start, stop = max(j - 2 - reach, 0), min(j + 3 + reach, len(points))
    stencils = costs[np.arange(start, stop - 4)[:, None] + np.arange(5)]
    shift = np.arange(start + 2, stop - 2) - j
    # s counts spacings from each stencil's own centre
    s = -shift.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a0, a1, a2, a3 = _QUARTIC_SLOPE @ stencils.T
        for _ in range(6):
            curvature = a1 + s * (2.0 * a2 + 3.0 * a3 * s)
            step = (a0 + s * (a1 + s * (a2 + s * a3))) / curvature
            s = s - step
    minima = points[start + 2:stop - 2] + (points[1] - points[0]) * s
    centre = float(minima[shift == 0][0])
    if not (np.all((curvature > 0.0) & (np.abs(step) <= 1e-9))
            and points[j - 1] < centre < points[j + 1]):
        return math.nan, math.inf, math.inf
    distance = np.abs(minima - centre)
    return centre, float(distance[np.abs(shift) <= 1].max()), float(distance.max())


def inner_node_search(scenario: Scenario, resolution: int = 100,
                      settings: Optional[SolverSettings] = None) -> InnerNodeResult:
    """Best interior burn anomaly for a three-node grid.

    Each pass of one loop solves evenly spaced interior points of a window
    as one batch: the first pass, the scan, covers the open horizon at the
    given resolution, and each later one, a round, refines the bracket
    around the best so far.  A pass keeps the two neighbours of its best
    as the bracket, or the horizon's end less 1e-9 of the span where the
    best lies on the horizon's edge.  The degree-4 polynomial through the
    five points around the best estimates the minimum; the stencils
    shifted off centre (by one point at the scan, by up to two in a round)
    give its spread and margin (_stencil_minimum).  A usable estimate
    places the next window at the estimate +/- max(2 margin, 1e-6), inside
    the bracket; an unusable one sends the next round to the whole
    bracket, and so does a window whose best lies on its edge.  An
    estimate with a spread of at most 0.5e-6 rad is the answer only from a
    round whose window an earlier estimate placed inside the bracket,
    never from one that sampled the whole bracket: samples that far apart
    can alias a ripple the fit cannot see.  At least one round runs, and a
    bracket 1e-6 rad wide ends the search at its midpoint.  Only the
    chosen anomaly is planned, and its PlanResult is returned with the
    scan and one BracketRound per round.
    """
    _check_integer("resolution", resolution, 10)
    th0, thf = scenario.theta0, scenario.theta_f
    pad = 1e-9 * (thf - th0)
    lo, hi, outer, placed = th0, thf, (th0 + pad, thf - pad), False
    scan, rounds = None, []
    while True:
        t0 = time.perf_counter()
        n = resolution if scan is None else _BRACKET_POINTS
        points = lo + (hi - lo) * (np.arange(1, n + 1) / (n + 1))
        costs = _three_node_costs(scenario, points, settings)
        j = int(np.argmin(costs))
        # the scan's stencils reach one point off centre: at its spacing, those
        # two off reach across the cost curve's kinks (atv's come once per
        # revolution) and overstate the error.  A round's reach two: they catch
        # a kink or a jump beside its best, and the margin they give holds
        # where the spread of a coarse round does not (atv's first round
        # misses by 4.8 times its spread)
        estimate, spread, margin = _stencil_minimum(points, costs, j, 1 if scan is None else 2)
        if scan is None:
            scan = points, costs
        else:
            rounds.append(BracketRound(lo=float(lo), hi=float(hi), best=j, estimate=estimate,
                                       spread=spread, margin=margin, placed=placed,
                                       wall_time=time.perf_counter() - t0))
        if (j == 0 and lo > outer[0]) or (j == n - 1 and hi < outer[1]):
            # the best lies on an edge of a window inside the bracket (the
            # scan's horizon never is): the minimum may lie outside the
            # window, so sample the bracket again
            (lo, hi), placed = outer, False
        else:
            lo = points[j - 1] if j > 0 else outer[0]
            hi = points[j + 1] if j < n - 1 else outer[1]
            outer = (lo, hi)
            if placed and spread <= 0.5e-6:
                theta2 = estimate
                break
            if spread < math.inf:
                half = max(2.0 * margin, 1e-6)
                lo, hi = max(lo, estimate - half), min(hi, estimate + half)
            placed = (lo, hi) != outer
        if rounds and hi - lo <= 1e-6:
            theta2 = 0.5 * (lo + hi)
            break
    res = plan_rendezvous(scenario, grid=_three_node_grid(scenario, theta2), settings=settings)
    return InnerNodeResult(**vars(res), theta2=float(theta2), scan_nodes=scan[0],
                           scan_costs=scan[1], rounds=tuple(rounds))
