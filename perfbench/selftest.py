"""Self-tests of the benchmark harness (kept out of the repository's suite).

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from rdvopt import conic_solver, postprocess, scenarios  # noqa: E402

# Small stand-ins for the real workloads: same code paths, short solves.
TINY_PLAN = workloads.Workload("tiny-plan", "plan", (17,), "condensed", n_generated=2, n_3d=1)
TINY_FULL = workloads.Workload("tiny-full", "plan", (9,), "full", n_generated=2, n_3d=1)
TINY_INNER = workloads.Workload("tiny-inner", "inner-node", (None,), "condensed",
                                n_generated=0, n_3d=0)


def test_generator_is_deterministic_per_seed(tmp_path):
    def docs(seed, block):
        return [scenarios.scenario_to_dict(s) for s in workloads.generate(seed, block, 6, 2)]

    assert docs(7, 0) == docs(7, 0)
    assert docs(7, 0) != docs(8, 0)
    assert docs(7, 0) != docs(7, 1)
    assert sum(not s.planar for s in workloads.generate(7, 0, 6, 2)) == 2
    # the file round trip the requests rely on is exact
    for case in TINY_PLAN.write_cases(7, 0, tmp_path):
        loaded = scenarios.load_scenario(case.path)
        assert scenarios.scenario_to_dict(loaded) == json.loads(case.path.read_text())


def _perturbed(monkeypatch):
    real = workloads.run_request

    def perturb(case, kind):
        out = real(case, kind)
        sol = out.result.solution
        dv = out.result.problem.var_map["dv"].reshape(-1)
        sol.x[dv[np.argmax(np.abs(sol.x[dv]))]] *= 1.0 + 1e-4
        return out

    monkeypatch.setattr(workloads, "run_request", perturb)


def test_gate_counts_perturbed_impulse(tmp_path, monkeypatch):
    clean = run.Loop(TINY_PLAN, 3, tmp_path)
    clean.run(clean.cases(0))
    assert clean.verified == clean.attempted == TINY_PLAN.block_size

    _perturbed(monkeypatch)
    loop = run.Loop(TINY_PLAN, 3, tmp_path)
    loop.run(loop.cases(0))
    assert loop.attempted == loop.wrong == TINY_PLAN.block_size
    assert loop.verified == 0
    assert all("raw plan misses" in key for key in loop.failures)


def test_gate_counts_non_optimal_status_as_failed_not_wrong(tmp_path, monkeypatch):
    real = workloads.run_request

    def stalled(case, kind):
        out = real(case, kind)
        out.result.solution.status = "max_iters"
        return out

    monkeypatch.setattr(workloads, "run_request", stalled)
    loop = run.Loop(TINY_PLAN, 3, tmp_path)
    loop.run(loop.cases(0))
    assert loop.attempted == TINY_PLAN.block_size
    assert loop.verified == loop.wrong == 0


def test_gate_scales_raw_closure_with_the_solver_tolerance(tmp_path):
    # 9.8 revolutions at e=0.69: the solver stops within feas_tol at an
    # absolute residual above 1e-9, because |b| = 8.06, and the raw plan
    # misses by as much
    scen = workloads.generate(362010740, 1, 8, 2)[6]
    res = postprocess.inner_node_search(scen, resolution=workloads.INNER_NODE_RESOLUTION)
    assert workloads._worst(res.plan.terminal_error) > 1e-9
    case = workloads.Case(path=tmp_path / "unused.json", mesh_m=None, form="condensed")
    assert workloads.Gate().check(workloads.Outcome(case, scen, res)) == ([], False)


def test_gate_checks_full_form_against_condensed(tmp_path):
    case = TINY_FULL.write_cases(5, 0, tmp_path)[0]
    out = workloads.run_request(case, "plan")
    gate = workloads.Gate()
    assert gate.check(out) == ([], False)
    key = (case.path, case.mesh_m)
    dv, status = gate._condensed[key]
    gate._condensed[key] = (dv * (1.0 + 1e-4), status)
    bad, wrong = gate.check(out)
    assert wrong and any("vs condensed" in reason for reason in bad)


def test_gate_counts_failed_reference_as_failed_not_wrong(tmp_path, monkeypatch):
    real = postprocess.plan_rendezvous

    def stalled_condensed(scen, *args, **kwargs):
        res = real(scen, *args, **kwargs)
        if kwargs.get("form", "condensed") == "condensed":
            res.solution.status = "max_iters"
        return res

    monkeypatch.setattr(postprocess, "plan_rendezvous", stalled_condensed)
    loop = run.Loop(TINY_FULL, 5, tmp_path)
    loop.run(loop.cases(0))
    assert loop.attempted == TINY_FULL.block_size
    assert loop.verified == loop.wrong == 0
    assert all("condensed reference max_iters" in key for key in loop.failures)


def _same_plan(a, b):
    for field in ("x", "y", "z"):
        assert np.array_equal(getattr(a.solution, field), getattr(b.solution, field))
    assert a.solution.iterations == b.solution.iterations
    for field in ("raw_dv", "raw_magnitudes", "raw_thetas"):
        assert np.array_equal(getattr(a.plan, field), getattr(b.plan, field))
    assert a.plan.total_dv == b.plan.total_dv
    assert a.plan.terminal_error == b.plan.terminal_error


@pytest.mark.parametrize("wl", [TINY_PLAN, TINY_FULL, TINY_INNER])
def test_traced_results_equal_untraced_bit_for_bit(tmp_path, wl):
    case = wl.write_cases(11, 0, tmp_path)[-1]
    plain = workloads.run_request(case, wl.kind)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = tracer.run_request(0, workloads.run_request, case, wl.kind)
    finally:
        tracer.uninstall()
    assert postprocess.solve is conic_solver.solve
    assert tracer.solves and tracer.spans[0][1] == tr.REQUEST

    if wl.kind == "inner-node":
        a, b = plain.result, traced.result
        assert (a.theta2, a.total_dv) == (b.theta2, b.total_dv)
        assert np.array_equal(a.scan_costs, b.scan_costs)
        assert a.plan.terminal_error == b.plan.terminal_error
        return
    _same_plan(plain.result, traced.result)
    for sa, sb in zip(plain.trajectory, traced.trajectory, strict=True):
        assert sa.theta == sb.theta and np.array_equal(sa.state.vector, sb.state.vector)
    for doc in (plain.document, traced.document):
        doc["solver"].pop("solve_time_s")
    assert plain.document == traced.document


COUNTS = ("conic_solver.iters", "conic_solver.non_optimal", "relative_dynamics.stm_calls",
          "kepler.time_from_true_calls", "postprocess.solves_per_search")


@pytest.mark.parametrize("wl", [TINY_PLAN, TINY_INNER])
def test_counts_repeat_exactly(tmp_path, wl):
    counts = []
    for k in range(2):
        _, metrics, _ = run.measure_traced(wl, 2, tmp_path, 1e-3, tmp_path / f"spans{k}.json")
        counts.append({name: metrics[name][0] for name in COUNTS})
    assert counts[0] == counts[1]
    if wl.kind == "inner-node":
        assert counts[0]["postprocess.solves_per_search"] > 100
    else:
        assert counts[0]["postprocess.solves_per_search"] == 1


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    _, e2e, _ = run.measure(TINY_PLAN, 1, tmp_path, 1e-3, [1.0, 2.0, 3.0])
    _, layers, _ = run.measure_traced(TINY_PLAN, 1, tmp_path, 1e-3, tmp_path / "spans.json")
    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        assert [m["name"] for m in spec[section]] == list(metrics)
        assert [m["unit"] for m in spec[section]] == [u for _, u in metrics.values()]
    assert set(spec["paths"]) == {HERE.name}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_is_fixed_by_the_shortest_run():
    assert run._tail([float(i) for i in range(40)], 40) == (29.0, 75.0, 10)
    # a longer run reports the same percentile with more samples beyond it
    assert run._tail([float(i) for i in range(60)], 40) == (44.0, 75.0, 15)
    value, pct, beyond = run._tail([float(i) for i in range(22)], 22)
    assert (pct, beyond) == (100.0 * 12 / 22, 10) and value == 11.0


def test_longer_runs_repeat_the_same_request_set(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "_passes", lambda seconds, pass_wall: 3)
    loop, _, notes = run.measure(TINY_PLAN, 1, tmp_path, 1.0, [1.0])
    assert loop.attempted == loop.verified == 3 * 2 * TINY_PLAN.block_size
    assert any("3 pass(es)" in line for line in notes)
