"""The condensed pipeline runs on numpy alone; the band LU loads scipy's LAPACK only.

Other test modules import scipy, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rdvopt

SRC = str(Path(rdvopt.__file__).resolve().parents[1])

_PIPELINE = r"""
import contextlib, io, json, os, sys

from rdvopt import builtin, cli, inner_node_search, plan_rendezvous


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


scenario = builtin("circle2circle")
condensed = plan_rendezvous(scenario, mesh_m=33)
search = inner_node_search(scenario, resolution=10)
doc = os.path.join(sys.argv[1], "plan.json")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["solve", "circle2circle", "--mesh", "33", "--out", doc]),
             cli.main(["validate", doc, "circle2circle"])]
condensed_only = scipy_modules()
full = plan_rendezvous(scenario, mesh_m=33, form="full")
print(json.dumps({
    "statuses": [condensed.solution.status, search.status, full.solution.status],
    "cli_codes": codes,
    "condensed_only": condensed_only,
    "after_full": scipy_modules(),
    "totals": [condensed.plan.total_dv, full.plan.total_dv],
}))
"""


def test_condensed_pipeline_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _PIPELINE, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["statuses"] == ["optimal"] * 3
    assert run["cli_codes"] == [0, 0]
    assert run["condensed_only"] == []
    # the full form takes the band LU, which imports LAPACK where it is
    # first factored; its stage order and K's products need no scipy.sparse
    assert "scipy.linalg.lapack" in run["after_full"]
    assert not {"scipy.sparse", "scipy.sparse.csgraph"} & set(run["after_full"])
    condensed, full = run["totals"]
    assert abs(full - condensed) <= 1e-8 * condensed
