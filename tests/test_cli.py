import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdvopt
from rdvopt import builtin, save_scenario

# the CLI subprocess imports the same rdvopt as the tests
SRC = str(Path(rdvopt.__file__).resolve().parents[1])


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
    return doc


@pytest.fixture(scope="module")
def c2c_doc_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("docs") / "c2c.json"
    proc = run_cli("solve", "circle2circle", "--mesh", "33", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


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

    def test_failed_mesh_marked_and_continues(self):
        proc = run_cli("sweep", "circle2circle", "--mesh-list", "1,9")
        assert proc.returncode == 2
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        assert "error" in lines[1]
        assert lines[2].endswith("optimal")

    def test_error_message_with_comma_stays_one_field(self):
        # the mesh-size error reads "mesh size must be at least 2, got 1"
        proc = run_cli("sweep", "circle2circle", "--mesh-list", "1,9")
        assert proc.returncode == 2
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert all(len(r) == 5 for r in rows)
        assert rows[1][0] == "1"
        assert rows[1][4] == "error: mesh size must be at least 2, got 1"
        assert rows[2][4] == "optimal"

    def test_bad_mesh_list_is_input_error(self):
        proc = run_cli("sweep", "circle2circle", "--mesh-list", "a,b")
        assert proc.returncode == 1


class TestInnerNodeCommand:
    def test_scan_resolutions_agree(self):
        docs = []
        for resolution in ("15", "60"):
            proc = run_cli("inner-node", "circle2circle", "--resolution", resolution)
            assert proc.returncode == 0
            docs.append(json.loads(proc.stdout))
        assert abs(docs[0]["theta2_rad"] - docs[1]["theta2_rad"]) < 1e-5
        assert abs(docs[0]["total_dv"] - docs[1]["total_dv"]) < 1e-9


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
