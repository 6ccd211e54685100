"""Scenario definition files and the built-in benchmark cases.

A scenario file is a single JSON document with a strict schema: unknown
keys are rejected and every boundary vector must carry an explicit unit
annotation, because published problem data routinely mixes km and m/s in
one table.  Angles are stored in degrees in files and converted to
radians on load; numbers are serialized at full precision so that a
save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .kepler import MU_EARTH_KM3_S2, TargetOrbit
from .relative_dynamics import RelativeState
from .transcription import Scenario

_LENGTH_UNITS = {"m": 1e-3, "km": 1.0, "normalized": 1.0}
_VELOCITY_UNITS = {"m/s": 1e-3, "km/s": 1.0, "normalized": 1.0}

_ORBIT_KEYS = {"a", "e", "i", "raan", "argp", "theta0_deg", "mu"}
_ORBIT_REQUIRED = _ORBIT_KEYS - {"mu"}
_BOUNDARY_KEYS = {"r0", "v0", "rf", "vf"}
_HORIZON_KEYS = {"dt_seconds", "thetaf_rad"}
_OPTION_KEYS = {"planar", "mesh_M", "extraction_tol"}
_TOP_KEYS = {"name", "orbit", "boundary", "horizon", "options"}


class ScenarioError(ValueError):
    """Malformed, inconsistent, or physically invalid scenario input."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _require_keys(obj: dict, allowed: set, required: set, path: str):
    _object(obj, path)
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(obj)
    if missing:
        _fail(path, f"missing required field(s) {sorted(missing)}")


def _number(obj, path: str) -> float:
    finite = isinstance(obj, (int, float)) and abs(obj) <= sys.float_info.max
    if isinstance(obj, bool) or not finite:
        _fail(path, f"expected a finite number, got {obj!r}")
    return float(obj)


def _triple(value, path: str) -> np.ndarray:
    if not (isinstance(value, list) and len(value) == 3):
        _fail(path, "expected a 3-element array")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _vector(obj: dict, kind: str, path: str) -> tuple[np.ndarray, str]:
    _require_keys(obj, {"value", "unit"}, {"value", "unit"}, path)
    units = _LENGTH_UNITS if kind == "length" else _VELOCITY_UNITS
    unit = obj["unit"]
    if unit not in units:
        _fail(f"{path}.unit", f"unknown unit {unit!r}; accepted: {sorted(units)}")
    return _triple(obj["value"], f"{path}.value") * units[unit], unit


def _scenario_from_dict(doc: dict, source: str) -> Scenario:
    _require_keys(doc, _TOP_KEYS, {"name", "orbit", "boundary", "horizon"}, source)
    if not isinstance(doc["name"], str) or not doc["name"]:
        _fail(f"{source}.name", "must be a non-empty string")

    ob = doc["orbit"]
    _require_keys(ob, _ORBIT_KEYS, _ORBIT_REQUIRED, f"{source}.orbit")

    bd = doc["boundary"]
    _require_keys(bd, _BOUNDARY_KEYS, _BOUNDARY_KEYS, f"{source}.boundary")
    r0, u_r0 = _vector(bd["r0"], "length", f"{source}.boundary.r0")
    v0, u_v0 = _vector(bd["v0"], "velocity", f"{source}.boundary.v0")
    rf, u_rf = _vector(bd["rf"], "length", f"{source}.boundary.rf")
    vf, u_vf = _vector(bd["vf"], "velocity", f"{source}.boundary.vf")
    normalized = [u == "normalized" for u in (u_r0, u_v0, u_rf, u_vf)]
    if any(normalized) and not all(normalized):
        _fail(f"{source}.boundary", "normalized and physical units cannot be mixed")
    is_normalized = all(normalized)
    if is_normalized and "mu" not in ob:
        _fail(f"{source}.orbit", "mu is required for normalized scenarios")
    mu = _number(ob["mu"], f"{source}.orbit.mu") if "mu" in ob else MU_EARTH_KM3_S2

    try:
        orbit = TargetOrbit(
            a=_number(ob["a"], f"{source}.orbit.a"),
            e=_number(ob["e"], f"{source}.orbit.e"),
            i=math.radians(_number(ob["i"], f"{source}.orbit.i")),
            raan=math.radians(_number(ob["raan"], f"{source}.orbit.raan")),
            argp=math.radians(_number(ob["argp"], f"{source}.orbit.argp")),
            theta0=math.radians(_number(ob["theta0_deg"], f"{source}.orbit.theta0_deg")),
            mu=mu,
        )
    except ValueError as exc:
        _fail(f"{source}.orbit", str(exc))

    hz = doc["horizon"]
    _require_keys(hz, _HORIZON_KEYS, set(), f"{source}.horizon")
    if len(set(hz) & _HORIZON_KEYS) != 1:
        _fail(f"{source}.horizon", "exactly one of dt_seconds / thetaf_rad is required")
    duration = _number(hz["dt_seconds"], f"{source}.horizon.dt_seconds") if "dt_seconds" in hz else None
    thetaf = _number(hz["thetaf_rad"], f"{source}.horizon.thetaf_rad") if "thetaf_rad" in hz else None

    opts = doc.get("options", {})
    _require_keys(opts, _OPTION_KEYS, set(), f"{source}.options")
    planar = opts.get("planar", False)
    if not isinstance(planar, bool):
        _fail(f"{source}.options.planar", "must be a boolean")
    mesh_m = opts.get("mesh_M", 257)
    if not isinstance(mesh_m, int) or mesh_m < 2:
        _fail(f"{source}.options.mesh_M", f"must be an integer >= 2, got {mesh_m!r}")
    tol = _number(opts.get("extraction_tol", 1e-5), f"{source}.options.extraction_tol")

    try:
        return Scenario(
            name=doc["name"],
            orbit=orbit,
            x0=RelativeState(r=r0, v=v0),
            xf=RelativeState(r=rf, v=vf),
            duration=duration,
            thetaf=thetaf,
            planar=planar,
            unit_label="normalized" if is_normalized else "km-s",
            mesh_m=mesh_m,
            extraction_tol=tol,
        )
    except ValueError as exc:
        _fail(source, str(exc))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serializable document for a scenario, full-precision floats."""
    normalized = scenario.unit_label == "normalized"
    lunit = "normalized" if normalized else "km"
    vunit = "normalized" if normalized else "km/s"
    ob = scenario.orbit
    doc = {
        "name": scenario.name,
        "orbit": {
            "a": ob.a,
            "e": ob.e,
            "i": math.degrees(ob.i),
            "raan": math.degrees(ob.raan),
            "argp": math.degrees(ob.argp),
            "theta0_deg": math.degrees(ob.theta0),
            "mu": ob.mu,
        },
        "boundary": {
            "r0": {"value": list(scenario.x0.r), "unit": lunit},
            "v0": {"value": list(scenario.x0.v), "unit": vunit},
            "rf": {"value": list(scenario.xf.r), "unit": lunit},
            "vf": {"value": list(scenario.xf.v), "unit": vunit},
        },
        "horizon": (
            {"dt_seconds": scenario.duration}
            if scenario.duration is not None
            else {"thetaf_rad": scenario.thetaf}
        ),
        "options": {
            "planar": scenario.planar,
            "mesh_M": scenario.mesh_m,
            "extraction_tol": scenario.extraction_tol,
        },
    }
    return doc


def load_scenario(path) -> Scenario:
    """Parse, unit-convert and validate a scenario file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _scenario_from_dict(doc, str(path))


def save_scenario(scenario: Scenario, path):
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def _builtin_circle2circle() -> Scenario:
    # chaser on an inner circular orbit, target radius and mean motion = 1
    return Scenario(
        name="circle2circle",
        orbit=TargetOrbit(a=1.0, e=0.0, mu=1.0),
        x0=RelativeState(r=[-math.pi, 0.0, 1.0 / 6.0], v=[0.25, 0.0, 0.0]),
        xf=RelativeState(r=[0.0, 0.0, 0.0], v=[0.0, 0.0, 0.0]),
        thetaf=10.0,
        planar=True,
        unit_label="normalized",
    )


def _builtin_atv() -> Scenario:
    # supply-vehicle approach to a station in low orbit, ~10 revolutions
    return Scenario(
        name="atv",
        orbit=TargetOrbit(a=6763.0, e=0.0052, i=math.radians(52.0)),
        x0=RelativeState(r=[-30.0, 0.0, 0.5], v=[8.514e-3, 0.0, 0.0]),
        xf=RelativeState(r=[-0.1, 0.0, 0.0], v=[0.0, 0.0, 0.0]),
        duration=55350.0,
        planar=True,
    )


def _builtin_simbolx() -> Scenario:
    # formation reconfiguration on a highly elliptic orbit
    return Scenario(
        name="simbolx",
        orbit=TargetOrbit(
            a=106246.98,
            e=0.7988,
            i=math.radians(5.2),
            raan=math.radians(90.0),
            argp=math.radians(180.0),
            theta0=math.radians(135.0),
        ),
        x0=RelativeState(r=[18.3095, 0.0, -23.7647], v=[-0.0542e-3, 0.0, -0.0418e-3]),
        xf=RelativeState(r=[0.33512, 0.0, -0.3711], v=[0.00155e-3, 0.0, 0.0014e-3]),
        duration=49995.0,
        planar=True,
    )


_BUILTINS = {
    "circle2circle": _builtin_circle2circle,
    "atv": _builtin_atv,
    "simbolx": _builtin_simbolx,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin(name: str) -> Scenario:
    """One of the built-in benchmark scenarios, constructed without file I/O."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ScenarioError(
            f"unknown built-in scenario {name!r}; available: {', '.join(builtin_names())}"
        ) from None
