"""Seeded scenarios, requests and the correctness gate of the benchmark.

A workload runs in blocks of request templates ("cases"): each block
holds the three built-ins plus fresh scenarios drawn from one seeded
generator, so a run of two blocks sees twice the draws of one and the
seed matters less.  Every case's scenario is written with
``save_scenario`` and each request reads it back with ``load_scenario``,
as the command line does.

Why these workloads (each one separates a different part of the pipeline):

* ``large-grid``: condensed form at M=513.  From M~257 upward the dense
  KKT fallback of the interior-point method does more than 90% of the
  work, so a KKT system linear in M shows here.  Two of the eight drawn
  scenarios are 3-D (6 states, cones of dimension 4), a path no built-in
  exercises.
* ``inner-node``: ``inner_node_search`` at resolution 100, about 130
  three-node solves per request.  KKT size is irrelevant and per-call
  overhead in every layer dominates: the control for a faster KKT path
  and the target of a primer-vector node exchange.
* ``full-form``: ``form="full"`` at M=65, and at M=33 on the built-ins.
  The same solver with free variables and a dense quasi-definite KKT on
  every iteration; it catches a condensed-path change that costs the
  free-variable path.  M=33 stays off the drawn scenarios so that the
  median request is a 65-node solve: with both sizes on every scenario
  the median sat in the gap between the sizes and moved with it.

Why these generator ranges.  Each one spans the built-ins, so that the
drawn scenarios lie around the three cases the paper plans:

* eccentricity 0 to 0.8: circular low orbits (circle2circle e=0, the
  station approach atv e=0.0052) up to the highly elliptic formation
  case simbolx (e=0.7988).
* horizon 1 to 10 revolutions: circle2circle (~1.6) to atv (~10).  The
  0.15 revolution of simbolx stays below it and is covered by simbolx
  itself.
* every other range is the interval between the values the two physical
  built-ins, atv and simbolx, give (circle2circle is in normalized
  units); see the constants below for each one.
* out-of-plane offset and drift: no built-in leaves the plane, so these
  take the size of the radial ones, the in-plane component whose free
  motion is also an oscillation at the orbital rate.
* one in four drawn scenarios is out of plane.  Neither the paper nor
  the built-ins give a mix of planar and 3-D cases, so this share is a
  choice, not a measured traffic mix: it keeps the 3-D path (6 states,
  cones of dimension 4) in every block while planar cases, which all
  three built-ins are, stay the majority.

Draws are stratified in eccentricity and horizon, and the 3-D count is
fixed per workload, so that seeds change the scenarios without changing
the mix of work a block holds.  Draws are never filtered by whether they
solve: a draw that fails is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from rdvopt import cli, postprocess, scenarios
from rdvopt.conic_solver import SolverSettings
from rdvopt.kepler import TargetOrbit
from rdvopt.relative_dynamics import RelativeState
from rdvopt.transcription import Scenario, expand_solution, grid_from_nodes

# simbolx first: it is the cheapest built-in and serves as the warm-up request
BUILTINS = ("simbolx", "circle2circle", "atv")

# Ranges of the drawn scenarios, each spanning the physical built-ins.
# Frame: x along-track, y opposite the orbit normal, z radial toward the
# central body; lengths in km, velocities in km/s.
_E_MAX = 0.8
_REVS = (1.0, 10.0)
_PERIGEE_KM = (6727.8, 21376.9)  # atv a(1-e) .. simbolx a(1-e)
_INCLINATION_DEG = (0.0, 52.0)  # circle2circle, simbolx 5.2 .. atv
# raan, argument of perigee and initial true anomaly: the whole circle
_X0_KM = (-30.0, 18.3095)  # atv behind .. simbolx ahead
_Z0_KM = (-23.7647, 0.5)  # simbolx above .. atv below
_VX0_KMS = (-0.0542e-3, 8.514e-3)  # simbolx .. atv
_VZ0_KMS = (-0.0418e-3, 0.0)  # simbolx .. atv
_XF_KM = (-0.1, 0.33512)  # atv hold point .. simbolx
_ZF_KM = (-0.3711, 0.0)  # simbolx .. atv
_VXF_KMS = (0.0, 0.00155e-3)  # atv at rest .. simbolx
_VZF_KMS = (0.0, 0.0014e-3)  # atv at rest .. simbolx
# out of plane: the size of the radial ranges, either sign
_Y0_KM = max(map(abs, _Z0_KM))
_VY0_KMS = max(map(abs, _VZ0_KMS))

# A plan is "optimal" once the solver's relative primal residual
# |Ax - b| / (1 + |b|) is at most SolverSettings().feas_tol (1e-9), in
# scaled transformed coordinates.  The raw per-node plan (extraction
# tolerance 0) must re-propagate within that promise: its miss may be
# RAW_CLOSURE_TOL * (1 + |b|), mapped into verify_plan's scaled units.
# A fixed 1e-9 does not scale with |b| as the solver's test does: a
# 9.8-revolution e=0.69 inner-node draw (seed 362010740, block 1, draw 6,
# |b| = 8.06) has residual 1.31e-9 within its tolerance and misses by the
# same 1.19e-9.  Over 232 requests of all three workloads the largest miss
# was 0.08 of this bound; a burn perturbed by 1e-4 misses it by orders.
RAW_CLOSURE_TOL = SolverSettings().feas_tol
# Tolerance of `rdvopt validate` (its default --tol, scaled units).
VALIDATE_TOL = 1e-6
# A duality gap of 1e-9 on the nondimensional objective (~1e-3 for the
# physical scenarios) allows relative cost differences of order 1e-6
# between two independent solves of one grid.
FORM_AGREEMENT_RTOL = 1e-6


def generate(seed: int, block: int, n: int, n_3d: int) -> list[Scenario]:
    """n scenarios of one block, n_3d of them out of plane.

    Eccentricity and horizon are stratified (a Latin hypercube): draw k
    lies in eccentricity bin k and in a permuted horizon bin of n equal
    bins, so every seed covers both ranges.
    """
    rng = np.random.default_rng([seed, block])
    rev_bins = rng.permutation(n)
    every = n // n_3d if n_3d else n + 1
    out = []
    for k in range(n):
        e = _E_MAX * (k + rng.uniform()) / n
        revs = _REVS[0] + (_REVS[1] - _REVS[0]) * (rev_bins[k] + rng.uniform()) / n
        # out-of-plane draws are spread evenly over the eccentricity strata
        planar = (k + 1) % every != 0 or k >= every * n_3d
        orbit = TargetOrbit(
            a=float(rng.uniform(*_PERIGEE_KM) / (1.0 - e)),
            e=float(e),
            i=math.radians(rng.uniform(*_INCLINATION_DEG)),
            raan=math.radians(rng.uniform(0.0, 360.0)),
            argp=math.radians(rng.uniform(0.0, 360.0)),
            theta0=math.radians(rng.uniform(0.0, 360.0)),
        )
        off_plane = 0.0 if planar else 1.0
        r0 = [rng.uniform(*_X0_KM), off_plane * rng.uniform(-_Y0_KM, _Y0_KM),
              rng.uniform(*_Z0_KM)]
        v0 = [rng.uniform(*_VX0_KMS), off_plane * rng.uniform(-_VY0_KMS, _VY0_KMS),
              rng.uniform(*_VZ0_KMS)]
        rf = [rng.uniform(*_XF_KM), 0.0, rng.uniform(*_ZF_KM)]
        vf = [rng.uniform(*_VXF_KMS), 0.0, rng.uniform(*_VZF_KMS)]
        out.append(Scenario(
            name=f"gen-{seed}-{block}-{k}",
            orbit=orbit,
            x0=RelativeState(r=r0, v=v0),
            xf=RelativeState(r=rf, v=vf),
            duration=float(revs * orbit.period),
            planar=planar,
        ))
    return out


@dataclass(frozen=True)
class Case:
    """One request template: a scenario file and how to plan it."""

    path: Path
    mesh_m: Optional[int]
    form: str


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "plan" or "inner-node"
    meshes: tuple[Optional[int], ...]
    form: str
    n_generated: int
    n_3d: int
    builtin_meshes: tuple[Optional[int], ...] = ()  # planned on the built-ins only

    @property
    def block_size(self) -> int:
        return (len(BUILTINS) * (len(self.meshes) + len(self.builtin_meshes))
                + self.n_generated * len(self.meshes))

    def write_cases(self, seed: int, block: int, directory: Path) -> list[Case]:
        """Write the scenarios of one block and return its requests."""
        cases = []
        for scen in [scenarios.builtin(name) for name in BUILTINS]:
            cases += self._write(scen, directory, self.builtin_meshes + self.meshes)
        for scen in generate(seed, block, self.n_generated, self.n_3d):
            cases += self._write(scen, directory, self.meshes)
        return cases

    def _write(self, scen: Scenario, directory: Path, meshes) -> list[Case]:
        path = directory / f"{scen.name}.json"
        scenarios.save_scenario(scen, path)
        return [Case(path=path, mesh_m=m, form=self.form) for m in meshes]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-grid", "plan", (513,), "condensed", n_generated=8, n_3d=2),
        Workload("inner-node", "inner-node", (None,), "condensed", n_generated=8, n_3d=2),
        Workload("full-form", "plan", (65,), "full", n_generated=12, n_3d=3,
                 builtin_meshes=(33,)),
    )
}

INNER_NODE_RESOLUTION = 100


@dataclass
class Outcome:
    """Everything one request produced, kept for the gate."""

    case: Case
    scenario: Scenario
    result: object  # PlanResult or InnerNodeResult
    trajectory: Optional[list] = None
    document: Optional[dict] = None

    @property
    def claimed_success(self) -> bool:
        """Whether the program itself reported an optimal plan."""
        if isinstance(self.result, postprocess.InnerNodeResult):
            return self.result.plan is not None
        return self.result.solution.status == "optimal"


def run_request(case: Case, kind: str) -> Outcome:
    """One request, calling each module through its attribute so that a
    traced run sees the calls."""
    scen = scenarios.load_scenario(case.path)
    if kind == "inner-node":
        res = postprocess.inner_node_search(scen, resolution=INNER_NODE_RESOLUTION)
        return Outcome(case, scen, res)
    # the work of `rdvopt solve --out --trajectory`
    res = postprocess.plan_rendezvous(scen, mesh_m=case.mesh_m, form=case.form,
                                      settings=SolverSettings())
    traj = postprocess.reconstruct_trajectory(res.plan, scen) if res.plan is not None else None
    doc = cli.solution_document(scen, res, None)
    return Outcome(case, scen, res, traj, doc)


def _worst(err) -> float:
    return max(err.position_scaled, err.velocity_scaled)


def closure_tol(problem, scen: Scenario) -> float:
    """Largest raw miss, in verify_plan's scaled units, within RAW_CLOSURE_TOL.

    verify_plan maps a miss d at the final anomaly, in scaled transformed
    coordinates, to position |d_r| / rho and velocity
    (k2 / n) |e sin(theta) d_r + rho d_v|; the larger factor bounds both.
    """
    orbit, theta = scen.orbit, scen.theta_f
    rho = 1.0 + orbit.e * math.cos(theta)
    gain = max(1.0 / rho, orbit.k2 / orbit.n * (orbit.e * abs(math.sin(theta)) + rho))
    return RAW_CLOSURE_TOL * (1.0 + float(np.linalg.norm(problem.b))) * gain


class Gate:
    """Correctness checks on every request, run outside the timed loop.

    check() returns the reasons a request failed (none when it passed)
    and whether its output is wrong.  A request fails when the program
    reports no optimal plan, when an optimal plan it reports does not
    pass, or when the condensed reference a full-form plan is checked
    against has no optimal plan; only the second is a wrong output.  validate_fail counts exported plans `rdvopt validate`
    would reject at its default tolerance, which is reported but is not a
    request failure.
    """

    def __init__(self):
        self.gap_tol = SolverSettings().gap_tol
        self.feas_tol = SolverSettings().feas_tol
        self.validate_fail = 0
        self._condensed: dict[tuple, tuple[float, str]] = {}

    def _plan_checks(self, res, scen) -> list[str]:
        sol = res.solution
        if sol.status != "optimal":
            return [f"status {sol.status}"]
        bad = []
        if not sol.gap <= self.gap_tol:
            bad.append(f"gap {sol.gap:.2e} > {self.gap_tol:.0e}")
        prob = res.problem
        # the solver's feasibility claim, recomputed rather than trusted
        primal = np.linalg.norm(prob.A @ sol.x - prob.b) / (1.0 + np.linalg.norm(prob.b))
        if not primal <= self.feas_tol:
            bad.append(f"primal residual {primal:.2e} > {self.feas_tol:.0e}")
        expanded = expand_solution(prob, sol, scen, res.grid)
        raw = postprocess.extract_impulses(expanded, res.grid, scen, tol=0.0)
        closure = _worst(postprocess.verify_plan(raw, scen))
        limit = closure_tol(prob, scen)
        if not closure <= limit:
            bad.append(f"raw plan misses by {closure:.2e} > {limit:.2e} scaled")
        return bad

    def _condensed_reference(self, out: Outcome) -> tuple[float, str]:
        """(total_dv, status) of the condensed form on the same grid."""
        key = (out.case.path, out.case.mesh_m)
        if key not in self._condensed:
            ref = postprocess.plan_rendezvous(out.scenario, mesh_m=out.case.mesh_m)
            ok = ref.solution.status == "optimal" and ref.plan is not None
            self._condensed[key] = (ref.plan.total_dv if ok else math.nan,
                                    ref.solution.status)
        return self._condensed[key]

    def check(self, out: Outcome) -> tuple[list[str], bool]:
        """(reasons the request failed, whether its output is wrong)."""
        res, scen = out.result, out.scenario
        harness_fault = False
        if isinstance(res, postprocess.InnerNodeResult):
            if res.plan is None or not math.isfinite(res.total_dv):
                return ["no plan at the best interior node"], False
            # re-solve the chosen three-node grid and gate it as a plan
            grid = grid_from_nodes(scen, [scen.theta0, res.theta2, scen.theta_f])
            final = postprocess.plan_rendezvous(scen, grid=grid)
            bad = self._plan_checks(final, scen)
            if not bad and final.plan.total_dv != res.total_dv:
                bad.append("search cost does not repeat on re-solve")
            plan = res.plan
        else:
            bad = self._plan_checks(res, scen)
            plan = res.plan
            if not bad:
                if out.document["total_dv"] != plan.total_dv:
                    bad.append("document total_dv differs from the plan")
                if not out.trajectory or not all(
                        np.all(np.isfinite(s.state.vector)) for s in out.trajectory):
                    bad.append("trajectory empty or not finite")
                if out.case.form == "full":
                    ref, status = self._condensed_reference(out)
                    if status != "optimal":
                        # the check itself could not run: a failed request,
                        # not a wrong output of the program
                        bad.append(f"condensed reference {status}")
                        harness_fault = True
                    elif not abs(plan.total_dv - ref) <= FORM_AGREEMENT_RTOL * abs(ref):
                        bad.append(f"full total_dv {plan.total_dv!r} vs condensed {ref!r}")
        if plan is not None and not _worst(plan.terminal_error) < VALIDATE_TOL:
            self.validate_fail += 1
        wrong = bool(bad) and out.claimed_success and not harness_fault
        return bad, wrong
