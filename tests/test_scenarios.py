import json
import math

import numpy as np
import pytest

from rdvopt import builtin, builtin_names, load_scenario, save_scenario
from rdvopt.scenarios import ScenarioError, scenario_to_dict


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ("atv", "circle2circle", "simbolx")

    def test_unknown_name_lists_available(self):
        with pytest.raises(ScenarioError, match="circle2circle"):
            builtin("iss")

    def test_circle2circle_data(self):
        s = builtin("circle2circle")
        assert s.orbit.e == 0.0 and s.orbit.a == 1.0 and s.orbit.mu == 1.0
        assert s.thetaf == 10.0
        assert np.allclose(s.x0.r, [-math.pi, 0.0, 1.0 / 6.0])
        assert np.allclose(s.x0.v, [0.25, 0.0, 0.0])
        assert not np.any(s.xf.vector)
        assert s.unit_label == "normalized"
        assert s.planar

    def test_atv_data(self):
        s = builtin("atv")
        assert s.orbit.a == 6763.0 and s.orbit.e == 0.0052
        assert s.orbit.i == pytest.approx(math.radians(52.0))
        assert s.duration == 55350.0
        assert np.allclose(s.x0.r, [-30.0, 0.0, 0.5])          # km
        assert np.allclose(s.x0.v, [8.514e-3, 0.0, 0.0])       # km/s
        assert np.allclose(s.xf.r, [-0.1, 0.0, 0.0])

    def test_simbolx_data(self):
        s = builtin("simbolx")
        assert s.orbit.a == 106246.98 and s.orbit.e == 0.7988
        assert s.orbit.theta0 == pytest.approx(math.radians(135.0))
        assert s.duration == 49995.0
        assert np.allclose(s.xf.r, [0.33512, 0.0, -0.3711])    # given in m
        assert np.allclose(s.xf.v, [0.00155e-3, 0.0, 0.0014e-3])

    def test_builtin_horizon_anomalies(self):
        assert builtin("atv").theta_f == pytest.approx(62.83149, abs=1e-4)
        assert builtin("simbolx").theta_f == pytest.approx(2.7859, abs=1e-4)


class TestFileRoundTrip:
    @pytest.mark.parametrize("name", ["circle2circle", "atv", "simbolx"])
    def test_save_load_identity(self, name, tmp_path):
        s = builtin(name)
        path = tmp_path / f"{name}.json"
        save_scenario(s, path)
        back = load_scenario(path)
        assert back.orbit == s.orbit
        assert np.array_equal(back.x0.vector, s.x0.vector)
        assert np.array_equal(back.xf.vector, s.xf.vector)
        assert back.duration == s.duration and back.thetaf == s.thetaf
        assert back.planar == s.planar and back.unit_label == s.unit_label


def _write(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def valid_doc():
    return scenario_to_dict(builtin("atv"))


class TestStrictValidation:
    def test_unit_conversion_meters(self, tmp_path, valid_doc):
        valid_doc["boundary"]["rf"] = {"value": [-100.0, 0.0, 0.0], "unit": "m"}
        s = load_scenario(_write(tmp_path, valid_doc))
        assert np.allclose(s.xf.r, [-0.1, 0.0, 0.0])

    def test_unknown_field_rejected(self, tmp_path, valid_doc):
        valid_doc["orbit"]["apogee"] = 1.0
        with pytest.raises(ScenarioError, match="apogee"):
            load_scenario(_write(tmp_path, valid_doc))

    def test_unknown_unit_rejected(self, tmp_path, valid_doc):
        valid_doc["boundary"]["v0"]["unit"] = "furlong/fortnight"
        with pytest.raises(ScenarioError, match="unit"):
            load_scenario(_write(tmp_path, valid_doc))

    def test_missing_unit_rejected(self, tmp_path, valid_doc):
        valid_doc["boundary"]["r0"] = {"value": [1.0, 0.0, 0.0]}
        with pytest.raises(ScenarioError, match="unit"):
            load_scenario(_write(tmp_path, valid_doc))

    def test_both_horizon_entries_rejected(self, tmp_path, valid_doc):
        valid_doc["horizon"] = {"dt_seconds": 100.0, "thetaf_rad": 1.0}
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(_write(tmp_path, valid_doc))

    def test_nonpositive_duration_rejected(self, tmp_path, valid_doc):
        valid_doc["horizon"] = {"dt_seconds": -5.0}
        with pytest.raises(ScenarioError, match="positive"):
            load_scenario(_write(tmp_path, valid_doc))

    def test_hyperbolic_orbit_rejected(self, tmp_path, valid_doc):
        valid_doc["orbit"]["e"] = 1.3
        with pytest.raises(ScenarioError, match="eccentricity"):
            load_scenario(_write(tmp_path, valid_doc))

    def test_mixed_normalized_units_rejected(self, tmp_path, valid_doc):
        valid_doc["boundary"]["r0"]["unit"] = "normalized"
        with pytest.raises(ScenarioError, match="mixed"):
            load_scenario(_write(tmp_path, valid_doc))

    def test_normalized_requires_mu(self, tmp_path):
        doc = scenario_to_dict(builtin("circle2circle"))
        del doc["orbit"]["mu"]
        with pytest.raises(ScenarioError, match="mu"):
            load_scenario(_write(tmp_path, doc))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "orbit": }')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_default_mu_is_earth(self, tmp_path, valid_doc):
        del valid_doc["orbit"]["mu"]
        s = load_scenario(_write(tmp_path, valid_doc))
        assert s.orbit.mu == 398600.4418

    @pytest.mark.parametrize("section, key, value", [
        ("boundary", "r0", {"value": [math.nan, 0.0, 0.0], "unit": "km"}),
        ("horizon", "dt_seconds", math.inf),
        ("orbit", "raan", -math.inf),
    ])
    def test_non_finite_number_rejected(self, tmp_path, valid_doc, section, key, value):
        valid_doc[section][key] = value
        with pytest.raises(ScenarioError, match="finite"):
            load_scenario(_write(tmp_path, valid_doc))
