"""Both pipelines, the condensed and the full form, run on numpy alone.

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

scenario = builtin("circle2circle")
condensed = plan_rendezvous(scenario, mesh_m=33)
search = inner_node_search(scenario, resolution=10)
full = plan_rendezvous(scenario, mesh_m=33, form="full")
docs = [os.path.join(sys.argv[1], name) for name in ("plan.json", "full.json")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["solve", "circle2circle", "--mesh", "33", "--out", docs[0]]),
             cli.main(["solve", "atv", "--mesh", "33", "--form", "full", "--out", docs[1]]),
             cli.main(["validate", docs[0], "circle2circle"]),
             cli.main(["validate", docs[1], "atv"])]
print(json.dumps({
    "statuses": [condensed.solution.status, search.status, full.solution.status],
    "cli_codes": codes,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
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
    assert run["cli_codes"] == [0, 0, 0, 0]
    # the full form's Newton steps eliminate its states onto numpy's QR
    assert run["scipy"] == []
    condensed, full = run["totals"]
    assert abs(full - condensed) <= 1e-8 * condensed
