import math
import re

import numpy as np
import pytest

from magloc import scenario
from magloc.errors import ConfigurationError, check_number
from magloc.estimator import SolverConfig


class TestCheckNumber:
    @pytest.mark.parametrize("value", [
        True, False, "1.0", None, [1.0], math.nan, math.inf, -math.inf,
        np.float64(np.nan), np.bool_(True)])
    def test_rejected(self, value):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"s.k must be a finite number, got {value!r}")):
            check_number("s.k", value)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), 2, -2.5, 0])
    def test_accepted(self, value):
        check_number("s.k", value)

    @pytest.mark.parametrize("value", [2.5, True, 2.0, "2", np.float64(2.0)])
    def test_integer_rule_rejects(self, value):
        with pytest.raises(ConfigurationError, match="s.k must be an integer"):
            check_number("s.k", value, integer=True)

    @pytest.mark.parametrize("value", [2, np.int64(2), 10**400])
    def test_integer_rule_accepts(self, value):
        check_number("s.k", value, integer=True, at_least=2)

    def test_bounds(self):
        check_number("s.k", 0.0, at_least=0)
        with pytest.raises(ConfigurationError, match=r"s.k must be a finite number > 0, got 0.0"):
            check_number("s.k", 0.0, above=0)
        with pytest.raises(ConfigurationError, match="s.k must be an integer >= 2, got 1"):
            check_number("s.k", 1, integer=True, at_least=2)

    def test_inf_only_where_allowed(self):
        check_number("s.k", math.inf, at_least=0, allow_inf=True)
        with pytest.raises(ConfigurationError, match="s.k must be a number >= 0, got nan"):
            check_number("s.k", math.nan, at_least=0, allow_inf=True)
        # Of the scenario keys only divergence_residual allows inf.
        assert SolverConfig(divergence_residual=math.inf).divergence_residual == math.inf
        with pytest.raises(ConfigurationError, match="solver.window_m"):
            SolverConfig(window_m=math.inf)


def _positions(value, name=""):
    """(name, container, key) of every non-object value under `value`,
    named as the configuration messages name it."""
    if isinstance(value, dict):
        items = [(f"{name}.{k}" if name else k, k, v) for k, v in value.items()]
    else:
        items = [(f"{name}[{k}]", k, v) for k, v in enumerate(value)]
    for child_name, key, child in items:
        if not isinstance(child, dict):
            yield child_name, value, key
        if isinstance(child, (dict, list)):
            yield from _positions(child, child_name)


def _full_reference():
    """The reference scenario with its optional sections filled in, so that
    the solver keys and the rig and explicit-theta entries are walked too."""
    data = scenario.reference_config(7).to_dict()
    data["solver"] = {"max_alternations": 10,
                      "divergence_residual": None, "meas_sigma": 0.2,
                      "window_m": 0.5, "calibrate": True}
    data["rig"] = [{"rotvec": [0.0, 0.0, 0.1], "translation": [0.1, 0.0, 0.0]}]
    data["distortion"]["mode"] = "explicit"
    data["distortion"]["explicit"] = [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0,
                                       0.0, 0.0, 1.0, 5.0, -5.0, 0.0]]
    return data


class TestScenarioSchema:
    def test_full_reference_loads(self):
        scenario.ScenarioConfig.from_dict(_full_reference())

    def test_every_key_is_checked(self):
        # A key added later that skips the rule fails here: a string in
        # its place must be rejected, naming it.
        names = [name for name, _, _ in _positions(_full_reference())]
        for i, name in enumerate(names):
            data = _full_reference()
            _, container, key = list(_positions(data))[i]
            container[key] = "x"
            with pytest.raises(ConfigurationError) as info:
                scenario.ScenarioConfig.from_dict(data)
            assert str(info.value).startswith(f"{name} must"), str(info.value)
        assert {"seed", "world.nx", "solver.calibrate", "rig[0].rotvec[2]",
                "distortion.explicit[0][11]", "noise.meas_sigma"} <= set(names)

    def test_unknown_section_rejected(self):
        # A misspelt section would otherwise run with the defaults.
        data = _full_reference()
        data["solvr"] = {"window_m": 2.0}
        with pytest.raises(ConfigurationError, match=r"unknown scenario keys \['solvr'\]"):
            scenario.ScenarioConfig.from_dict(data)

    def test_singular_distortion_rejected_on_load(self):
        data = _full_reference()
        data["distortion"]["explicit"][0][:9] = [0.0] * 9
        with pytest.raises(ConfigurationError, match="calibration is singular"):
            scenario.ScenarioConfig.from_dict(data)
        # Random ranges that can only draw a singular C.
        data = scenario.reference_config(7).to_dict()
        data["distortion"].update(diag_range=[0.0, 0.0], offdiag_range=[0.0, 0.0])
        with pytest.raises(ConfigurationError, match="calibration is singular"):
            scenario.ScenarioConfig.from_dict(data)

    def test_sensors_on_the_map_plane(self):
        # The map is one plane and its lookup ignores z: every sensor
        # height, trajectory.height plus the rig translation's z, must
        # equal world.plane_height within gpr.PLANE_TOL_M.
        data = _full_reference()
        data["world"]["plane_height"] = 0.3
        data["trajectory"]["height"] = 0.5
        data["rig"][0]["translation"][2] = -0.2 + 0.5e-6
        scenario.ScenarioConfig.from_dict(data)
        data["rig"][0]["translation"][2] = -0.2 + 2e-6
        with pytest.raises(ConfigurationError, match=re.escape(
                "trajectory.height + rig[0].translation[2] must equal "
                "world.plane_height 0.3 within 1e-06 m")):
            scenario.ScenarioConfig.from_dict(data)
        data = scenario.reference_config(7).to_dict()
        data["trajectory"]["height"] = -2e-6
        with pytest.raises(ConfigurationError, match=re.escape(
                "trajectory.height must equal world.plane_height 0.0")):
            scenario.ScenarioConfig.from_dict(data)
