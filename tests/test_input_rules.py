"""README's input rules, each broken at every entry point that takes it.

Every rule has one check (conic_solver._check_integer or _check_real):
a broken one raises ValueError naming the parameter or file field
(ScenarioError for a file), before any solve.  The command line's flags
are checked in tests/test_cli.py.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rdvopt import (
    ExpandedSolution,
    ImpulsePlan,
    ScenarioError,
    SolverSettings,
    build_grid,
    builtin,
    conic_solver,
    extract_impulses,
    inner_node_search,
    load_scenario,
    mesh_sweep,
    plan_rendezvous,
    postprocess,
    reconstruct_trajectory,
)
from rdvopt.scenarios import scenario_to_dict

ATV = builtin("atv")
C2C = builtin("circle2circle")  # its horizon is given by thetaf


def _load(tmp_path, key, value):
    doc = scenario_to_dict(ATV)
    doc["options"][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return load_scenario(path)


def _expanded(m):
    return ExpandedSolution(dv=np.zeros((m, ATV.input_dim)), jumps=np.zeros((m, ATV.state_dim)),
                            _states=lambda: None)


_EMPTY_PLAN = ImpulsePlan(impulses=[], dropped_dv=0.0, extraction_tol=0.0, raw_thetas=np.array([]),
                          raw_dv=np.zeros((0, 3)), raw_magnitudes=np.array([]))

# rule -> (kind, bound, entry points); an entry point maps to the name its
# message gives and a call of (value, tmp_path)
RULES = {
    "mesh size": ("integer", 2, {
        "Scenario": ("mesh_m", lambda v, tmp: replace(ATV, mesh_m=v)),
        "build_grid": ("mesh size", lambda v, tmp: build_grid(ATV, v)),
        "plan_rendezvous": ("mesh size", lambda v, tmp: plan_rendezvous(ATV, mesh_m=v)),
        "mesh_sweep": ("mesh size", lambda v, tmp: mesh_sweep(ATV, [9, v])),
        "file": ("options.mesh_M", lambda v, tmp: _load(tmp, "mesh_M", v)),
    }),
    "resolution": ("integer", 10, {
        "inner_node_search": ("resolution", lambda v, tmp: inner_node_search(ATV, resolution=v)),
    }),
    "samples": ("integer", 1, {
        "reconstruct_trajectory": ("samples_per_segment", lambda v, tmp: reconstruct_trajectory(
            _EMPTY_PLAN, ATV, samples_per_segment=v)),
    }),
    "extraction tolerance": ("nonnegative", 0, {
        "Scenario": ("extraction_tol", lambda v, tmp: replace(ATV, extraction_tol=v)),
        "plan_rendezvous": ("extraction tolerance tol",
                            lambda v, tmp: plan_rendezvous(ATV, mesh_m=65, tol=v)),
        "extract_impulses": ("extraction tolerance tol", lambda v, tmp: extract_impulses(
            _expanded(9), build_grid(ATV, 9), ATV, tol=v)),
        "mesh_sweep": ("extraction tolerance tol", lambda v, tmp: mesh_sweep(ATV, [9], tol=v)),
        "file": ("options.extraction_tol", lambda v, tmp: _load(tmp, "extraction_tol", v)),
    }),
    "solver tolerances": ("positive", 0, {
        "gap_tol": ("gap_tol", lambda v, tmp: SolverSettings(gap_tol=v)),
        "feas_tol": ("feas_tol", lambda v, tmp: SolverSettings(feas_tol=v)),
    }),
    "max_iters": ("integer", 1, {
        "SolverSettings": ("max_iters", lambda v, tmp: SolverSettings(max_iters=v)),
    }),
    "orbit size": ("positive", 0, {
        "a": ("a", lambda v, tmp: replace(ATV.orbit, a=v)),
        "mu": ("mu", lambda v, tmp: replace(ATV.orbit, mu=v)),
    }),
    "eccentricity": ("nonnegative", 0, {
        "e": ("e", lambda v, tmp: replace(ATV.orbit, e=v)),
    }),
    # a finite rule's bound lies below every value it holds: angles of any sign
    "orbit angles": ("finite", -7, {
        field: (field, lambda v, tmp, field=field: replace(ATV.orbit, **{field: v}))
        for field in ("i", "raan", "argp", "theta0")
    }),
    "duration": ("positive", 0, {
        "duration": ("duration", lambda v, tmp: replace(ATV, duration=v)),
    }),
    "horizon end": ("finite", C2C.theta0, {
        "thetaf": ("thetaf", lambda v, tmp: replace(C2C, thetaf=v)),
    }),
}

# a bool, a string, a float for an integer, nan, inf and a value just below the
# bound (a finite rule has no bound of its own: thetaf's theta0 has its own message)
BROKEN = {
    "integer": lambda least: [True, str(least), 10.0, math.nan, math.inf, least - 1],
    "positive": lambda _: [True, "1e-5", math.nan, math.inf, 0.0],
    "nonnegative": lambda _: [True, "1e-5", math.nan, math.inf, -5e-324],
    "finite": lambda _: [True, "0.5", math.nan, math.inf, -math.inf],
}
# ints, floats and numpy scalars at the bound, or just above a finite rule's
# (a file holds no numpy scalar)
HELD = {
    "integer": lambda least: [least, np.int64(least), np.int32(least)],
    "positive": lambda _: [1, 1e-9, np.float64(1e-9), np.float32(1e-9), np.int64(1)],
    "nonnegative": lambda _: [0, 0.0, np.float64(0.0), np.float32(1e-9), np.int64(0)],
    "finite": lambda least: [least + 1, least + 0.5, np.float64(least + 0.5),
                             np.float32(least + 0.5), np.int64(least + 1)],
}


def _cases(values, entries=None):
    return [pytest.param(name, call, value, id=f"{rule}-{entry}-{value!r}")
            for rule, (kind, bound, rule_entries) in RULES.items()
            for entry, (name, call) in rule_entries.items() if entries is None or entry in entries
            for value in values[kind](bound)
            if not (entry == "file" and isinstance(value, np.generic))]


@pytest.fixture
def no_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a broken input rule must raise before any solve")

    for module in (conic_solver, postprocess):
        monkeypatch.setattr(module, "solve", fail)
        monkeypatch.setattr(module, "solve_batch", fail)


@pytest.mark.parametrize("name, call, value", _cases(BROKEN))
def test_a_broken_rule_raises_before_any_solve(no_solve, tmp_path, name, call, value):
    error = ScenarioError if name.startswith("options.") else ValueError
    with pytest.raises(error, match=f"{name} must be .*, got ") as caught:
        call(value, tmp_path)
    assert type(caught.value) is error


# the entry points that solve nothing
@pytest.mark.parametrize("name, call, value", _cases(HELD, (
    "Scenario", "build_grid", "reconstruct_trajectory", "extract_impulses", "file",
    "gap_tol", "feas_tol", "SolverSettings", "a", "mu", "e", "i", "raan", "argp", "theta0",
    "duration", "thetaf")))
def test_a_value_at_the_bound_is_held(tmp_path, name, call, value):
    call(value, tmp_path)
