"""Command-line front end: solve scenarios, run studies, validate plans.

Commands emit machine-readable documents (JSON) and plot-ready delimited
tables; numeric payloads are reproducible bit-for-bit across runs on one
platform, except for wall-clock timing fields.

Exit codes: 0 success, 1 input error, 2 solver did not reach optimality,
3 plan validation failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .conic_solver import SolverSettings
from .postprocess import (
    Impulse,
    ImpulsePlan,
    inner_node_search,
    mesh_sweep,
    plan_rendezvous,
    verify_plan,
)
from .scenarios import (
    ScenarioError,
    _fail,
    _number,
    _object,
    _triple,
    builtin,
    builtin_names,
    load_scenario,
    scenario_to_dict,
)
from .transcription import Scenario

_TRACE_ENV = "RDVOPT_TRACE"
_IMPULSE_KEYS = ("theta_rad", "t", "dv", "magnitude")


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _load_scenario_arg(arg: str) -> Scenario:
    if arg in builtin_names():
        return builtin(arg)
    if Path(arg).exists():
        return load_scenario(arg)
    raise ScenarioError(
        f"{arg!r} is neither a scenario file nor a built-in "
        f"(available built-ins: {', '.join(builtin_names())})"
    )


def scenario_hash(scenario: Scenario) -> str:
    doc = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return "sha256:" + hashlib.sha256(doc.encode()).hexdigest()


def _trace_sink():
    if os.environ.get(_TRACE_ENV, "").strip() in ("", "0"):
        return None

    def sink(rec: dict):
        print("trace: " + " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in rec.items()), file=sys.stderr)

    return sink


def _unit_labels(scenario: Scenario) -> dict:
    if scenario.unit_label == "normalized":
        return {"length": "nd", "velocity": "nd", "time": "nd"}
    return {"length": "km", "velocity": "km/s", "time": "s"}


def _impulse_record(imp: Impulse) -> dict:
    return {"theta_rad": imp.theta, "t": imp.t, "dv": list(imp.dv), "magnitude": imp.magnitude}


def solution_document(scenario: Scenario, result, tol: float) -> dict:
    plan = result.plan
    sol = result.solution
    doc = {
        "tool": {"name": "rdvopt", "version": __version__},
        "scenario": {"name": scenario.name, "hash": scenario_hash(scenario)},
        "mesh_M": result.grid.m,
        "form": result.problem.var_map["form"],
        "units": _unit_labels(scenario),
        "solver": {
            "status": sol.status,
            "iterations": sol.iterations,
            "gap": sol.gap,
            "primal_residual": sol.residuals.primal,
            "dual_residual": sol.residuals.dual,
            "solve_time_s": sol.solve_time,
        },
    }
    if plan is not None:
        doc.update({
            "extraction_tol": plan.extraction_tol,
            "total_dv": plan.total_dv,
            "dropped_dv": plan.dropped_dv,
            "n_impulses": plan.n_impulses,
            "impulses": [_impulse_record(imp) for imp in plan.impulses],
            "terminal_error": asdict(plan.terminal_error),
        })
    return doc


def _write_json(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _write_trajectory(path: str, plan: ImpulsePlan, scenario: Scenario, samples: int):
    from .postprocess import reconstruct_trajectory

    traj = reconstruct_trajectory(plan, scenario, samples_per_segment=samples)
    u = _unit_labels(scenario)
    lu, vu, tu = u["length"], u["velocity"].replace("/", "_"), u["time"]
    cols = [f"theta_rad", f"t_{tu}"] + [f"{ax}_{lu}" for ax in "xyz"] + [f"v{ax}_{vu}" for ax in "xyz"]
    lines = [",".join(cols)]
    for s in traj:
        vals = [s.theta, s.t, *s.state.r, *s.state.v]
        lines.append(",".join(f"{v:.17g}" for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    result = plan_rendezvous(
        scenario,
        mesh_m=args.mesh,
        form=args.form,
        tol=args.tol,
        settings=SolverSettings(),
        trace=_trace_sink(),
    )
    doc = solution_document(scenario, result, args.tol)
    _write_json(doc, args.out)
    if result.plan is None:
        print(f"solver status: {result.solution.status}", file=sys.stderr)
        return 2
    if args.trajectory:
        _write_trajectory(args.trajectory, result.plan, scenario, args.samples)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    try:
        m_list = [int(tok) for tok in args.mesh_list.split(",") if tok.strip()]
    except ValueError:
        raise ScenarioError(f"bad --mesh-list {args.mesh_list!r}; expected e.g. 9,17,33")
    if not m_list:
        raise ScenarioError("--mesh-list is empty")
    rows = mesh_sweep(scenario, m_list, form=args.form)
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")
    table.writerow(["M", "total_dv", "n_impulses", "solve_time_s", "status"])
    for r in rows:
        table.writerow([r.m, f"{r.total_dv:.17g}", r.n_impulses, f"{r.solve_time:.6g}", r.status])
    if args.out:
        Path(args.out).write_text(buf.getvalue())
    else:
        print(buf.getvalue(), end="")
    return 0 if all(r.status == "optimal" for r in rows) else 2


def _cmd_inner_node(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    res = inner_node_search(scenario, resolution=args.resolution)
    doc = {
        "tool": {"name": "rdvopt", "version": __version__},
        "scenario": {"name": scenario.name, "hash": scenario_hash(scenario)},
        "resolution": args.resolution,
        "theta2_rad": res.theta2,
        "total_dv": res.total_dv,
        "units": _unit_labels(scenario),
        "impulses": [_impulse_record(imp) for imp in res.plan.impulses],
    }
    _write_json(doc, args.out)
    return 0


def _document_impulses(doc: dict, source: str, scenario: Scenario) -> list[Impulse]:
    """The impulses of a solution document, each checked against the horizon."""
    entries = doc.get("impulses", [])
    if not isinstance(entries, list):
        _fail(f"{source}.impulses", f"expected an array, got {entries!r}")
    impulses = []
    for k, imp in enumerate(entries):
        missing = [key for key in _IMPULSE_KEYS if not isinstance(imp, dict) or key not in imp]
        if missing:
            raise ScenarioError(
                f"impulse {k} of solution document {source} lacks {', '.join(missing)}"
            )
        path = f"{source}.impulses[{k}]"
        theta = _number(imp["theta_rad"], f"{path}.theta_rad")
        if not scenario.theta0 <= theta <= scenario.theta_f:
            _fail(f"{path}.theta_rad", f"{theta!r} lies outside the horizon "
                                        f"[{scenario.theta0!r}, {scenario.theta_f!r}]")
        impulses.append(Impulse(theta=theta, t=_number(imp["t"], f"{path}.t"),
                                dv=_triple(imp["dv"], f"{path}.dv"),
                                magnitude=_number(imp["magnitude"], f"{path}.magnitude")))
    return impulses


def _cmd_validate(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    try:
        doc = json.loads(Path(args.document).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read solution document {args.document}: {exc}")
    _object(doc, args.document)
    want_hash = _object(doc.get("scenario", {}), f"{args.document}.scenario").get("hash")
    have_hash = scenario_hash(scenario)
    if want_hash != have_hash:
        return _err(f"scenario hash mismatch: document has {want_hash}, scenario is {have_hash}")
    impulses = _document_impulses(doc, args.document, scenario)
    plan = ImpulsePlan(
        impulses=impulses,
        total_dv=doc.get("total_dv", 0.0),
        dropped_dv=doc.get("dropped_dv", 0.0),
        n_impulses=len(impulses),
        mesh_m=doc.get("mesh_M", 0),
        extraction_tol=doc.get("extraction_tol", 0.0),
        raw_thetas=np.array([]), raw_times=np.array([]),
        raw_dv=np.zeros((0, 3)), raw_magnitudes=np.array([]),
    )
    err = verify_plan(plan, scenario)
    report = {
        "scenario": scenario.name,
        "terminal_error": asdict(err),
        "tolerance_scaled": args.tol,
        "ok": bool(max(err.position_scaled, err.velocity_scaled) < args.tol),
    }
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rdvopt",
        description="Propellant-minimal impulsive rendezvous planning on elliptic orbits.",
    )
    ap.add_argument("--version", action="version", version=f"rdvopt {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sc = "scenario file path or built-in name (%s)" % ", ".join(builtin_names())

    p = sub.add_parser("solve", help="solve one scenario and emit the impulse plan")
    p.add_argument("scenario", help=sc)
    p.add_argument("--mesh", type=int, default=None, help="number of grid nodes")
    p.add_argument("--form", choices=("condensed", "full"), default="condensed")
    p.add_argument("--tol", type=float, default=None,
                   help="impulse extraction tolerance, normalized velocity units")
    p.add_argument("--out", default=None, help="solution document path (default stdout)")
    p.add_argument("--trajectory", default=None, help="write a sampled trajectory table here")
    p.add_argument("--samples", type=int, default=32, help="trajectory samples per segment")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="solve over a list of mesh sizes")
    p.add_argument("scenario", help=sc)
    p.add_argument("--mesh-list", required=True, help="comma-separated mesh sizes")
    p.add_argument("--form", choices=("condensed", "full"), default="condensed")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("inner-node", help="three-node grid search over the interior burn")
    p.add_argument("scenario", help=sc)
    p.add_argument("--resolution", type=int, default=100, help="scan points over the horizon")
    p.add_argument("--out", default=None, help="result document path (default stdout)")
    p.set_defaults(func=_cmd_inner_node)

    p = sub.add_parser("validate", help="re-verify a saved solution document")
    p.add_argument("document", help="solution document written by solve")
    p.add_argument("scenario", help=sc)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="terminal error tolerance in scaled units")
    p.set_defaults(func=_cmd_validate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        return _err(str(exc))
    except ValueError as exc:
        return _err(str(exc))


if __name__ == "__main__":
    sys.exit(main())
