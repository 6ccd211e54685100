"""Property tests: hostile input ends in the documented error, never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvopt import ScenarioError, Scenario, builtin, builtin_names, cli, load_scenario, plan_rendezvous
from rdvopt.scenarios import scenario_to_dict

# deterministic example sequence, nothing written to disk between runs
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Key paths of every field below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _substituted(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


SCENARIO_DOCS = {name: scenario_to_dict(builtin(name)) for name in builtin_names()}
SCENARIO_FIELDS = [(name, path) for name, doc in SCENARIO_DOCS.items() for path in _paths(doc)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@PROPERTY_SETTINGS
@given(field=st.sampled_from(SCENARIO_FIELDS), value=JSON_VALUES)
def test_any_value_in_any_scenario_field_loads_or_is_scenario_error(workdir, field, value):
    name, path = field
    target = workdir / "scenario.json"
    target.write_text(json.dumps(_substituted(SCENARIO_DOCS[name], path, value)))
    try:
        assert isinstance(load_scenario(target), Scenario)
    except ScenarioError:
        pass


@pytest.fixture(scope="module")
def c2c_document():
    scen = builtin("circle2circle")
    doc = cli.solution_document(scen, plan_rendezvous(scen, mesh_m=17), None)
    assert len(doc["impulses"]) >= 2
    return doc


IMPULSE_FIELDS = [(k, key) for k in range(2) for key in ("theta_rad", "t", "dv", "magnitude")]
IMPULSE_FIELDS += [(k, ("dv", i)) for k in range(2) for i in range(3)]


@PROPERTY_SETTINGS
@given(field=st.sampled_from(IMPULSE_FIELDS), value=JSON_VALUES)
def test_any_value_in_an_impulse_field_validates_or_exits_cleanly(workdir, c2c_document, field,
                                                                   value):
    k, key = field
    path = ("impulses", k) + (key if isinstance(key, tuple) else (key,))
    target = workdir / "document.json"
    target.write_text(json.dumps(_substituted(c2c_document, path, value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(target), "circle2circle"])
    assert code in (0, 1, 3)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert json.loads(out.getvalue())["ok"] is (code == 0)
