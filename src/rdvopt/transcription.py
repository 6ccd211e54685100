"""Discretize a rendezvous scenario into a second-order cone program.

The transfer window [theta0, thetaf] is sampled on an anomaly grid; an
impulse slot lives at every node and the dynamics between nodes are the
closed-form transition matrices.  Two equivalent formulations are built:

* condensed (default): intermediate states are eliminated through the
  transition-matrix chain, leaving only impulse and epigraph variables
  and one terminal equality block.
* full: one free state vector per node plus the node-to-node defect
  equalities of the discretized problem statement, each mapped to the
  final anomaly, so that the equality residuals sum to the plan's
  terminal miss.  Its A is a StageMatrix of the O(m) stage blocks
  (diag, cones): D_j = Phi(thetaf, theta_j) for every node, the last one
  included, and C_j = [0 | Phi(thetaf, theta_j) B], the condensed A's
  columns of node j: one array serves both forms, with no chained
  product and no identity block.  The solver's presolve of the full
  form is thus the condensed program itself, bit for bit; it iterates on
  that and restores the states after.

Internally everything is nondimensionalized by the semilatus rectum and
the inverse mean motion; for an already normalized scenario those scales
are unity and the scaling is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import relative_dynamics as rd
from .conic_solver import (
    BEST_EFFORT,
    ConeSpec,
    ConicProblem,
    ConicSolution,
    StageMatrix,
    _check_integer,
    _check_real,
)
from .kepler import TargetOrbit, time_from_true, true_from_time
from .relative_dynamics import RelativeState


@dataclass(frozen=True)
class UnitSystem:
    """Scales mapping internal nondimensional quantities to scenario units."""

    length: float
    time: float

    @property
    def velocity(self) -> float:
        return self.length / self.time


@dataclass(frozen=True)
class Scenario:
    """Boundary states, target orbit and horizon of one transfer problem.

    Exactly one of duration (time units of the orbit) or thetaf
    (unwrapped true anomaly) defines the horizon.  mesh_m, the default
    grid size, must be an integer of at least 2.
    """

    name: str
    orbit: TargetOrbit
    x0: RelativeState
    xf: RelativeState
    duration: Optional[float] = None
    thetaf: Optional[float] = None
    planar: bool = False
    unit_label: str = "km-s"
    mesh_m: int = 257
    extraction_tol: float = 1e-5

    def __post_init__(self):
        if (self.duration is None) == (self.thetaf is None):
            raise ValueError("exactly one of duration / thetaf must be given")
        if self.duration is not None:
            _check_real("duration", self.duration)
        else:
            _check_real("thetaf", self.thetaf, "finite")
            if not self.thetaf > self.orbit.theta0:
                raise ValueError("thetaf must exceed the orbit's initial anomaly")
        if not (np.all(np.isfinite(self.x0.vector)) and np.all(np.isfinite(self.xf.vector))):
            raise ValueError("boundary states must be finite")
        _check_integer("mesh_m", self.mesh_m, 2)
        _check_real("extraction_tol", self.extraction_tol, "nonnegative")

    @property
    def theta0(self) -> float:
        return self.orbit.theta0

    @cached_property
    def theta_f(self) -> float:
        """Final unwrapped anomaly; solved from the duration once per scenario."""
        if self.thetaf is not None:
            return self.thetaf
        return true_from_time(self.duration, self.orbit)

    @property
    def duration_seconds(self) -> float:
        if self.duration is not None:
            return self.duration
        return time_from_true(self.thetaf, self.orbit)

    @property
    def units(self) -> UnitSystem:
        return UnitSystem(length=self.orbit.p, time=1.0 / self.orbit.n)

    @property
    def state_dim(self) -> int:
        return 4 if self.planar else 6

    @property
    def input_dim(self) -> int:
        return 2 if self.planar else 3


@dataclass(frozen=True)
class Grid:
    """Anomaly mesh with matching epoch-relative times and rho; nodes (..., m) is a family."""

    nodes: np.ndarray
    times: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        if self.nodes.ndim == 0 or self.m < 2:
            raise ValueError("a grid needs at least two nodes")
        if not np.all(np.diff(self.nodes, axis=-1) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(self.rho <= 0.0):
            raise ValueError("rho must stay positive on the grid")

    @property
    def m(self) -> int:
        return self.nodes.shape[-1]


def grid_from_nodes(scenario: Scenario, nodes) -> Grid:
    """Grid over an explicit (m,) or (..., m) node array; endpoints must be the horizon."""
    nodes = np.asarray(nodes, dtype=float)
    orbit = scenario.orbit
    return Grid(nodes=nodes, times=time_from_true(nodes, orbit), rho=rd.rho(nodes, orbit.e))


def build_grid(scenario: Scenario, m: int) -> Grid:
    """Uniform anomaly grid with m nodes from theta0 to thetaf inclusive."""
    _check_integer("mesh size", m, 2)
    return grid_from_nodes(scenario, np.linspace(scenario.theta0, scenario.theta_f, m))


def transform_boundaries(scenario: Scenario):
    """Boundary states in transformed coordinates at the horizon anomalies."""
    x0t = rd.to_transformed(scenario.x0, scenario.theta0, scenario.orbit)
    xft = rd.to_transformed(scenario.xf, scenario.theta_f, scenario.orbit)
    return x0t, xft


def _reduce(vec6: np.ndarray, planar: bool) -> np.ndarray:
    return vec6[list(rd.IN_PLANE_IDX)] if planar else vec6


def _stm(scenario: Scenario, theta1, theta0) -> np.ndarray:
    """Transition matrices of the scenario's state, broadcast over anomalies."""
    if scenario.planar:
        return rd.stm_in_plane(theta1, theta0, scenario.orbit)
    return rd.stm_full(theta1, theta0, scenario.orbit)


def _actuation(state_dim: int, input_dim: int) -> np.ndarray:
    b = np.zeros((state_dim, input_dim))
    b[state_dim - input_dim:, :] = np.eye(input_dim)
    return b


def _node_weights(scenario: Scenario, grid: Grid) -> np.ndarray:
    # nondimensional cost coefficients: (k^2 / n) * rho_j
    orbit = scenario.orbit
    return (orbit.k2 / orbit.n) * grid.rho


def assemble_socp(scenario: Scenario, grid: Grid, form: str = "condensed") -> ConicProblem:
    """Build the cone program for the scenario on the given grid.

    Every grid must run over the scenario's horizon: its end nodes are
    exactly (theta0, thetaf), otherwise ValueError.  A (K, m) family of
    grids gives one condensed family of programs, c (K, n), A (K, d, n)
    and b (K, d), built by the same calls; the full form takes one grid.
    var_map holds the form, the indices in x of each node's cone head
    (sigma) and impulse (dv), and the node cost weights, (K, m) for a
    family.
    """
    if form not in ("condensed", "full"):
        raise ValueError(f"form must be 'condensed' or 'full', got {form!r}")
    family = grid.nodes.shape[:-1]
    if family and form == "full":
        raise ValueError("the full form takes a single grid, not a family of them")
    horizon = (scenario.theta0, scenario.theta_f)
    if np.any(grid.nodes[..., [0, -1]] != horizon):
        raise ValueError(f"grid end anomalies must be the scenario's horizon {horizon}")
    m = grid.m
    d = scenario.state_dim
    q = scenario.input_dim
    cone = q + 1
    bmat = _actuation(d, q)
    lscale = scenario.units.length
    x0t, xft = transform_boundaries(scenario)
    xv0 = _reduce(x0t.vector, scenario.planar) / lscale
    xvf = _reduce(xft.vector, scenario.planar) / lscale
    w = _node_weights(scenario, grid)
    # Phi(thetaf, theta_j) for every node, and cols[..., :, j, :] = C_j =
    # [0 | Phi(thetaf, theta_j) B] on node j's cone (sigma_j, dv_j) for both forms
    phif = _stm(scenario, scenario.theta_f, grid.nodes)
    cols = np.zeros(family + (d, m, cone))
    cols[..., 1:] = (phif @ bmat).swapaxes(-3, -2)

    n_free = 0 if form == "condensed" else m * d
    sigma_idx = n_free + np.arange(m) * cone
    dv_idx = sigma_idx[:, None] + 1 + np.arange(q)[None, :]
    cvec = np.zeros(family + (n_free + m * cone,))
    cvec[..., sigma_idx] = w
    cones = ConeSpec(n_free=n_free, soc_dims=(cone,) * m)
    if form == "condensed":
        amat = cols.reshape(family + (d, m * cone))
        bvec = xvf - phif[..., 0, :, :] @ xv0
    else:
        # Every row block stated at thetaf through D_j = Phi(thetaf, theta_j),
        # the computed Phi(thetaf, thetaf) (not I) for the last state:
        #   row block 0:   D_0 x_0 = D_0 x0
        #   row block j+1: D_{j+1} x_{j+1} - D_j x_j - C_j (sigma_j, dv_j) = 0
        #   row block m:   D_{m-1} x_{m-1} + C_{m-1} (sigma_{m-1}, dv_{m-1}) = xf
        # so the terminal block minus all others cancels every state and leaves
        # the condensed row bit for bit: the residual the solver bounds is
        # the plan's terminal miss, not one that grows through Phi(thetaf, theta_j).
        amat = StageMatrix(diag=phif, cones=cols.swapaxes(0, 1))
        bvec = np.concatenate([phif[0] @ xv0, np.zeros(d * (m - 1)), xvf])

    var_map = {
        "form": form,
        "sigma": sigma_idx,
        "dv": dv_idx,
        "weights": w,
    }
    return ConicProblem(c=cvec, A=amat, b=bvec, cones=cones, var_map=var_map)


@dataclass(frozen=True)
class ExpandedSolution:
    """Per-node states and impulses recovered from a solved program.

    States and impulses are in scaled transformed coordinates (length
    unit = semilatus rectum); x_minus/x_plus are the states just before
    and after each node's burn.  The condensed form has no state
    variables, so its states come from the transition chain on first
    read; a caller that needs only the impulses never pays for it.
    """

    dv: np.ndarray
    jumps: np.ndarray
    _states: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def x_minus(self) -> np.ndarray:
        return self._states()

    @cached_property
    def x_plus(self) -> np.ndarray:
        return self.x_minus + self.jumps


def expand_solution(
    problem: ConicProblem,
    sol: ConicSolution,
    scenario: Scenario,
    grid: Grid,
) -> ExpandedSolution:
    """Recover the state chain behind an optimal or best-effort solution of
    either formulation."""
    if sol.status not in ("optimal", *BEST_EFFORT):
        raise ValueError(f"cannot expand a solution with status {sol.status!r}")
    m = grid.m
    d = scenario.state_dim
    bmat = _actuation(d, scenario.input_dim)
    dv = sol.x[problem.var_map["dv"]]
    jumps = dv @ bmat.T

    if problem.var_map["form"] == "full":
        x_full = sol.x[:d * m].reshape(m, d).copy()

        def states():
            return x_full
    else:
        def states():
            x0t, _ = transform_boundaries(scenario)
            phis = _stm(scenario, grid.nodes[1:], grid.nodes[:-1])
            x_minus = np.empty((m, d))
            x_minus[0] = _reduce(x0t.vector, scenario.planar) / scenario.units.length
            for j in range(m - 1):
                x_minus[j + 1] = phis[j] @ (x_minus[j] + jumps[j])
            return x_minus

    return ExpandedSolution(dv=dv, jumps=jumps, _states=states)
