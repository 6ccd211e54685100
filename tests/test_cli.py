import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdvopt
from rdvopt import SolverSettings, builtin, cli, postprocess, save_scenario

# the CLI subprocess imports the same rdvopt as the tests
SRC = str(Path(rdvopt.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def _set_impulse_field(key, value):
    def mutate(doc):
        doc["impulses"][1][key] = value
        return doc

    return mutate


MALFORMED_DOCUMENTS = {
    "top-level-list": lambda doc: [doc],
    "scenario-not-object": lambda doc: dict(doc, scenario="circle2circle"),
    "impulses-null": lambda doc: dict(doc, impulses=None),
    "theta-string": _set_impulse_field("theta_rad", "1.0"),
    "theta-null": _set_impulse_field("theta_rad", None),
    "t-nan": _set_impulse_field("t", float("nan")),
    "magnitude-infinite": _set_impulse_field("magnitude", float("inf")),
    "dv-string": _set_impulse_field("dv", "0.1"),
    "dv-two-numbers": _set_impulse_field("dv", [0.1, 0.2]),
    "theta-after-horizon": _set_impulse_field("theta_rad", 10.5),
    "theta-before-horizon": _set_impulse_field("theta_rad", -0.5),
    "zero-impulse-far-outside": lambda doc: dict(doc, impulses=doc["impulses"] + [
        {"theta_rad": 99.0, "t": 99.0, "dv": [0.0, 0.0, 0.0], "magnitude": 0.0}]),
}


def run_cli(*args, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "rdvopt.cli", *args],
        capture_output=True, text=True, env=env,
    )


def strip_timing(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc.get("solver", {}).pop("solve_time_s", None)
    for record in doc.get("rounds", []):
        record.pop("wall_s")
    return doc


@pytest.fixture(scope="module")
def c2c_doc_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("docs") / "c2c.json"
    proc = run_cli("solve", "circle2circle", "--mesh", "33", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


# a scenario path that cannot be read, or an output path in a missing
# directory, per command; {dir} is an existing directory
UNREADABLE_OR_UNWRITABLE = {
    "solve-scenario-is-directory": ["solve", "{dir}"],
    "solve-out": ["solve", "circle2circle", "--mesh", "9", "--out", "{dir}/missing/plan.json"],
    "solve-trajectory": ["solve", "circle2circle", "--mesh", "9",
                         "--trajectory", "{dir}/missing/traj.csv"],
    "sweep-out": ["sweep", "circle2circle", "--mesh-list", "9", "--out", "{dir}/missing/s.csv"],
    "inner-node-out": ["inner-node", "circle2circle", "--resolution", "10",
                       "--out", "{dir}/missing/inner.json"],
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_OR_UNWRITABLE))
def test_unreadable_or_unwritable_path_is_input_error(tmp_path, case):
    proc = run_cli(*(arg.format(dir=tmp_path) for arg in UNREADABLE_OR_UNWRITABLE[case]))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("out", [[], ["--out", "{dir}/plan.json"]], ids=["stdout", "out"])
def test_unwritable_trajectory_leaves_no_document(tmp_path, out):
    # the trajectory is written before the document, so its failure leaves none
    args = UNREADABLE_OR_UNWRITABLE["solve-trajectory"] + out
    proc = run_cli(*(arg.format(dir=tmp_path) for arg in args))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not (tmp_path / "plan.json").exists()


def test_unwritable_document_leaves_no_trajectory(tmp_path):
    # both output paths are checked before the solve, so neither is written
    proc = run_cli("solve", "circle2circle", "--mesh", "9", "--out",
                   f"{tmp_path}/missing/plan.json", "--trajectory", f"{tmp_path}/traj.csv")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --out ")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("args", [
    ["solve", "circle2circle", "--mesh", "9", "--out", "{dir}/missing/plan.json",
     "--trajectory", "{dir}/traj.csv"],
    ["solve", "circle2circle", "--mesh", "9", "--trajectory", "{dir}/missing/traj.csv"],
    ["sweep", "circle2circle", "--mesh-list", "9", "--out", "{dir}/missing/s.csv"],
    ["inner-node", "circle2circle", "--resolution", "10", "--out", "{dir}/missing/inner.json"],
], ids=["solve-out", "solve-trajectory", "sweep-out", "inner-node-out"])
def test_output_in_missing_directory_fails_before_any_solve(tmp_path, monkeypatch, capsys, args):
    # AssertionError, not ValueError: mesh_sweep reports a ValueError as a row
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output paths were checked")

    monkeypatch.setattr(postprocess, "solve", no_solve)
    monkeypatch.setattr(postprocess, "solve_batch", no_solve)
    assert cli.main([arg.format(dir=tmp_path) for arg in args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [["solve", "circle2circle", "--mesh", "3.5"], ["solve"]],
                         ids=["non-integer-mesh", "no-scenario"])
def test_malformed_command_line_is_input_error(capsys, args):
    # exit 2 would read as a solve that missed optimality
    with pytest.raises(SystemExit) as stop:
        cli.main(args)
    assert stop.value.code == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and lines[0].startswith("usage: rdvopt solve ")
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith("rdvopt solve: error: ")


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, args):
    with pytest.raises(SystemExit) as stop:
        cli.main(args)
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert out and not err


class TestSolveCommand:
    def test_builtin_solve_document(self, c2c_doc_path):
        doc = json.loads(c2c_doc_path.read_text())
        assert doc["scenario"]["name"] == "circle2circle"
        assert doc["solver"]["status"] == "optimal"
        assert doc["mesh_M"] == 33
        assert doc["n_impulses"] == 4
        assert abs(doc["total_dv"] - 0.17828) < 5e-4
        assert doc["units"]["velocity"] == "nd"

    def test_scenario_file_solve(self, tmp_path):
        path = tmp_path / "scen.json"
        save_scenario(builtin("circle2circle"), path)
        proc = run_cli("solve", str(path), "--mesh", "17")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["solver"]["status"] == "optimal"

    def test_unknown_scenario_is_input_error(self):
        proc = run_cli("solve", "no-such-scenario")
        assert proc.returncode == 1
        assert "built-in" in proc.stderr

    def test_numeric_payload_deterministic(self, tmp_path):
        docs = []
        for k in range(2):
            out = tmp_path / f"run{k}.json"
            proc = run_cli("solve", "circle2circle", "--mesh", "33", "--out", str(out))
            assert proc.returncode == 0
            docs.append(strip_timing(json.loads(out.read_text())))
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_trajectory_table(self, tmp_path):
        traj = tmp_path / "traj.csv"
        proc = run_cli("solve", "circle2circle", "--mesh", "17",
                       "--trajectory", str(traj), "--samples", "4")
        assert proc.returncode == 0
        lines = traj.read_text().strip().splitlines()
        assert lines[0] == "theta_rad,t_nd,x_nd,y_nd,z_nd,vx_nd,vy_nd,vz_nd"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert abs(first[2] + 3.14159265358979) < 1e-10

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_sample_count_rejected_before_solving(self, tmp_path, samples):
        traj = tmp_path / "traj.csv"
        proc = run_cli("solve", "circle2circle", "--mesh", "17",
                       "--trajectory", str(traj), "--samples", samples)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: --samples must be an integer of at least 1, got {samples}"]
        assert not traj.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_extraction_tol_rejected_before_solving(self, tmp_path, tol):
        out = tmp_path / "plan.json"
        proc = run_cli("solve", "circle2circle", "--mesh", "17", "--tol", tol, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: --tol must be finite and nonnegative, got {float(tol)}"]
        assert not out.exists()

    def test_zero_extraction_tol_keeps_every_burning_node(self):
        proc = run_cli("solve", "circle2circle", "--mesh", "17", "--tol", "0")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["extraction_tol"] == 0.0
        assert doc["dropped_dv"] == 0.0

    def test_trace_env_var(self, tmp_path, monkeypatch):
        env = dict(os.environ, RDVOPT_TRACE="1")
        proc = run_cli("solve", "circle2circle", "--mesh", "9", env=env)
        assert proc.returncode == 0
        assert "trace:" in proc.stderr
        assert "mu=" in proc.stderr


class TestSweepCommand:
    def test_nested_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "circle2circle", "--mesh-list", "9,17,33",
                       "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "M,total_dv,n_impulses,solve_time_s,status"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [9, 17, 33]
        totals = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
        assert all(r[4] == "optimal" for r in rows)

    def test_single_entry_matches_solve(self):
        sweep = run_cli("sweep", "circle2circle", "--mesh-list", "17")
        solve = run_cli("solve", "circle2circle", "--mesh", "17")
        assert sweep.returncode == 0 and solve.returncode == 0
        total_sweep = float(sweep.stdout.strip().splitlines()[1].split(",")[1])
        total_solve = json.loads(solve.stdout)["total_dv"]
        assert abs(total_sweep - total_solve) < 1e-12

    @staticmethod
    def _sweep_with_failed_mesh(monkeypatch, capsys):
        """A sweep over 9 and 17 nodes whose 9-node solve breaks down, run in process."""
        real_plan = postprocess.plan_rendezvous

        def plan(scenario, mesh_m=None, **kwargs):
            if mesh_m == 9:
                raise np.linalg.LinAlgError("KKT factorization failed, 3 retries")
            return real_plan(scenario, mesh_m=mesh_m, **kwargs)

        monkeypatch.setattr(postprocess, "plan_rendezvous", plan)
        code = cli.main(["sweep", "circle2circle", "--mesh-list", "9,17"])
        return code, capsys.readouterr().out

    def test_failed_mesh_marked_and_continues(self, monkeypatch, capsys):
        code, out = self._sweep_with_failed_mesh(monkeypatch, capsys)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "error" in lines[1]
        assert lines[2].endswith("optimal")

    def test_error_message_with_comma_stays_one_field(self, monkeypatch, capsys):
        code, out = self._sweep_with_failed_mesh(monkeypatch, capsys)
        assert code == 2
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(r) == 5 for r in rows)
        assert rows[1][0] == "9"
        assert rows[1][4] == "error: KKT factorization failed, 3 retries"
        assert rows[2][4] == "optimal"

    def test_bad_mesh_list_is_input_error(self):
        proc = run_cli("sweep", "circle2circle", "--mesh-list", "a,b")
        assert proc.returncode == 1

    def test_mesh_size_below_two_is_input_error(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "circle2circle", "--mesh-list", "1,9", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: --mesh-list entry must be an integer of at least 2, got 1"]
        assert not out.exists()


class TestInnerNodeCommand:
    def test_scan_resolutions_agree(self):
        docs = []
        for resolution in ("15", "60"):
            proc = run_cli("inner-node", "circle2circle", "--resolution", resolution)
            assert proc.returncode == 0
            docs.append(json.loads(proc.stdout))
        assert abs(docs[0]["theta2_rad"] - docs[1]["theta2_rad"]) < 1e-5
        assert abs(docs[0]["total_dv"] - docs[1]["total_dv"]) < 1e-9

    def test_document_is_the_solve_document_of_the_chosen_grid(self, tmp_path):
        out = tmp_path / "inner.json"
        proc = run_cli("inner-node", "circle2circle", "--resolution", "10", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        res = postprocess.inner_node_search(builtin("circle2circle"), resolution=10)
        want = strip_timing(cli.solution_document(builtin("circle2circle"), res, None))
        want.update(resolution=10, theta2_rad=res.theta2, bracket_rounds=res.bracket_rounds,
                    rounds=[{"lo_rad": r.lo, "hi_rad": r.hi, "best": r.best,
                             "estimate_rad": r.estimate if math.isfinite(r.spread) else None,
                             "spread_rad": r.spread if math.isfinite(r.spread) else None,
                             "margin_rad": r.margin if math.isfinite(r.spread) else None,
                             "placed": r.placed} for r in res.rounds])
        assert strip_timing(doc) == want
        assert doc["solver"]["status"] == "optimal" and doc["mesh_M"] == 3
        assert doc["bracket_rounds"] == len(doc["rounds"]) >= 1
        assert all(r["wall_s"] > 0.0 for r in doc["rounds"])
        proc = run_cli("validate", str(out), "circle2circle")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_no_plan_at_chosen_node_exits_2(self, monkeypatch, capsys):
        real_solve = postprocess.solve

        def one_iteration(problem, settings=None, trace=None):
            return real_solve(problem, SolverSettings(max_iters=1), trace=trace)

        monkeypatch.setattr(postprocess, "solve", one_iteration)
        assert cli.main(["inner-node", "circle2circle", "--resolution", "10"]) == 2
        out = capsys.readouterr()
        assert out.err == "solver status: max_iters\n"
        assert out.out == ""


class TestValidateCommand:
    def test_saved_plan_validates(self, c2c_doc_path):
        proc = run_cli("validate", str(c2c_doc_path), "circle2circle")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"] is True
        assert report["terminal_error"]["position_scaled"] < 1e-6

    def test_tampered_dv_fails_with_exit_3(self, c2c_doc_path, tmp_path):
        doc = json.loads(c2c_doc_path.read_text())
        doc["impulses"][1]["dv"][0] += 0.01
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("validate", str(bad), "circle2circle")
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["ok"] is False

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_is_input_error(self, c2c_doc_path, tol):
        proc = run_cli("validate", str(c2c_doc_path), "circle2circle", "--tol", tol)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: --tol must be finite and positive, got {float(tol)}"]

    def test_scenario_hash_mismatch_is_input_error(self, c2c_doc_path):
        proc = run_cli("validate", str(c2c_doc_path), "atv")
        assert proc.returncode == 1
        assert "hash mismatch" in proc.stderr

    @pytest.mark.parametrize("key", ["theta_rad", "t", "dv", "magnitude"])
    def test_impulse_without_field_is_input_error(self, c2c_doc_path, tmp_path, key):
        doc = json.loads(c2c_doc_path.read_text())
        del doc["impulses"][1][key]
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("validate", str(bad), "circle2circle")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "impulse 1 " in proc.stderr
        assert proc.stderr.rstrip().endswith(f"lacks {key}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_document_is_input_error(self, c2c_doc_path, tmp_path, case):
        doc = MALFORMED_DOCUMENTS[case](json.loads(c2c_doc_path.read_text()))
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("validate", str(bad), "circle2circle")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


def _keys(value) -> set:
    """Every key of a JSON value, those of nested objects and arrays included."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_readme_names_every_interface_fact(c2c_doc_path, monkeypatch, capsys):
    """Each subcommand, option, exit code, document key, sweep header and
    trace field appears in the README in backticks, outside code blocks."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    facts = set(commands.choices) | set("0123")
    for command in (parser, *commands.choices.values()):
        facts.update(option for action in command._actions for option in action.option_strings
                     if option not in ("-h", "--help"))
    facts |= _keys(json.loads(c2c_doc_path.read_text()))
    assert cli.main(["inner-node", "circle2circle", "--resolution", "10"]) == 0
    facts |= _keys(json.loads(capsys.readouterr().out))
    assert cli.main(["validate", str(c2c_doc_path), "circle2circle"]) == 0
    facts |= _keys(json.loads(capsys.readouterr().out))
    assert cli.main(["sweep", "circle2circle", "--mesh-list", "9"]) == 0
    facts.add(capsys.readouterr().out.splitlines()[0])
    monkeypatch.setenv("RDVOPT_TRACE", "1")
    assert cli.main(["solve", "circle2circle", "--mesh", "9"]) == 0
    traced = [line.split()[1:] for line in capsys.readouterr().err.splitlines()
              if line.startswith("trace: ")]
    assert traced
    facts |= {field.split("=")[0] for record in traced for field in record}

    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    assert sorted(facts - set(re.findall(r"`([^`\n]+)`", prose))) == []
