"""Propellant-minimal impulsive rendezvous planning on elliptic orbits.

The pipeline: a scenario (target orbit, boundary states, horizon) is
transcribed onto a true-anomaly grid as a second-order cone program,
solved by the embedded interior-point solver, and converted back into a
verified physical impulse plan.
"""

__version__ = "0.1.0"

from .conic_solver import (
    ConeSpec,
    ConicProblem,
    ConicSolution,
    Residuals,
    SolverSettings,
    residuals,
    solve,
)
from .kepler import (
    MU_EARTH_KM3_S2,
    KeplerConvergenceError,
    TargetOrbit,
    time_from_true,
    true_from_time,
)
from .postprocess import (
    Impulse,
    ImpulsePlan,
    InnerNodeResult,
    MeshPoint,
    PlanResult,
    TerminalError,
    extract_impulses,
    inner_node_search,
    merge_adjacent_impulses,
    mesh_sweep,
    plan_rendezvous,
    reconstruct_trajectory,
    to_inertial,
    verify_plan,
)
from .relative_dynamics import (
    RelativeState,
    TransformedState,
    from_transformed,
    stm_full,
    stm_in_plane,
    stm_out_of_plane,
    to_transformed,
)
from .scenarios import (
    ScenarioError,
    builtin,
    builtin_names,
    load_scenario,
    save_scenario,
)
from .transcription import (
    ExpandedSolution,
    Grid,
    Scenario,
    UnitSystem,
    assemble_socp,
    build_grid,
    expand_solution,
    grid_from_nodes,
    transform_boundaries,
)

__all__ = [name for name in dir() if not name.startswith("_")]
