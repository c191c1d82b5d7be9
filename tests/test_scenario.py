import dataclasses
import json
import math

import pytest

from vib2move.planner import PlannerConfig
from vib2move.scenario import (
    ScenarioError,
    bundled_path,
    dump_scenario,
    load_eval_config,
    load_scenario,
    parse_scenario,
    scenario_to_doc,
)

BUNDLED = ["demo_plan", "demo_pulse", "object1", "object2", "object3",
           "object4", "object5", "object6"]


def assert_planner_close(got: PlannerConfig, want: PlannerConfig):
    # approx: the mm and degree fields pass through a unit scale and back
    for f in dataclasses.fields(PlannerConfig):
        assert getattr(got, f.name) == pytest.approx(getattr(want, f.name), rel=1e-12), f.name


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_load(name):
    s = load_scenario(bundled_path(name))
    assert s.obj.mass > 0
    assert s.patch.r0 == pytest.approx(0.015)


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip(tmp_path, name):
    s = load_scenario(bundled_path(name))
    out = tmp_path / "copy.json"
    dump_scenario(s, out)
    s2 = load_scenario(out)
    assert s2.obj == s.obj
    assert s2.patch == s.patch
    assert s2.initial_rel == s.initial_rel
    assert s2.goal_rel == s.goal_rel
    assert s2.noise == s.noise
    assert s2.perturbation == s.perturbation
    assert_planner_close(s2.planner, s.planner)


def test_round_trip_keeps_planner(tmp_path):
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc["planner"] = {"r_error_mm": 7.0, "r_theta_error_deg": 0.8, "kp": 0.3, "ki": 0.05,
                      "max_actions_per_stage": 50, "lever_angle_deg": 25.0,
                      "finger_limits_rad": [-1.0, 1.3], "step_ds": 5e-4}
    s = parse_scenario(doc)
    assert s.planner != PlannerConfig()
    out = tmp_path / "copy.json"
    dump_scenario(s, out)
    s2 = load_scenario(out)
    assert s2.planner.r_error == pytest.approx(0.007)
    assert s2.planner.max_actions_per_stage == 50
    assert_planner_close(s2.planner, s.planner)


def test_surface_units_are_mm_and_degrees():
    s = load_scenario(bundled_path("demo_plan"))
    doc = scenario_to_doc(s)
    # 90 mm x 150 mm plate, 90 g, goal angle in degrees
    assert doc["object"]["extents_mm"] == [90.0, 150.0]
    assert doc["object"]["mass_g"] == pytest.approx(90.0)
    assert doc["goal_rel_mm_deg"][2] == pytest.approx(22.9)
    # and internally SI
    assert s.obj.extents == (0.09, 0.15)
    assert s.goal_rel.theta == pytest.approx(math.radians(22.9))


def test_unknown_key_rejected():
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc["grasp_force_n"] = 5.0
    with pytest.raises(ScenarioError, match="grasp_force_n"):
        parse_scenario(doc)


def test_unknown_nested_key_rejected():
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc["object"]["density"] = 1.2
    with pytest.raises(ScenarioError, match="density"):
        parse_scenario(doc)


def test_missing_required_key():
    doc = json.loads(bundled_path("demo_plan").read_text())
    del doc["goal_rel_mm_deg"]
    with pytest.raises(ScenarioError, match="goal_rel_mm_deg"):
        parse_scenario(doc)


def test_bad_pose_shape():
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc["goal_rel_mm_deg"] = [1.0, 2.0]
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_invalid_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"object": \n !!}')
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(p)


def test_planner_overrides():
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc["planner"] = {"r_error_mm": 4.0, "kp": 0.3, "ki": 0.05,
                      "max_actions_per_stage": 50}
    s = parse_scenario(doc)
    assert s.planner.r_error == pytest.approx(0.004)
    assert s.planner.pi_gains == (0.3, 0.05)
    assert s.planner.max_actions_per_stage == 50


def test_eval_configs_load():
    cfg = load_eval_config(bundled_path("eval_noise_free"))
    assert cfg.mode == "reconfigure"
    assert cfg.noise.pos_sigma == 0.0
    noisy = load_eval_config(bundled_path("eval_noisy"))
    assert noisy.mode == "both"
    assert noisy.noise.pos_sigma == pytest.approx(0.001)
    assert noisy.perturbation.pressure_bias_fixed == pytest.approx(0.002)
    assert noisy.planner.max_actions_per_stage == 400


def test_eval_config_rejects_unknown_mode(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "warp"}))
    with pytest.raises(ScenarioError, match="mode"):
        load_eval_config(p)


@pytest.mark.parametrize("block, key, value, match", [
    ("perturbation", "pressure_bias_fixed_mm", "2", r"perturbation\.pressure_bias_fixed_mm"),
    ("planner", "kp", math.nan, r"planner\.kp"),
    ("planner", "finger_limits_rad", [-1.0, True], r"planner\.finger_limits_rad\[1\]"),
    ("planner", "max_actions_per_stage", 2.5, r"planner\.max_actions_per_stage"),
    ("noise", "seed", True, r"noise\.seed"),
    ("patch", "c", 1.5, r"patch: torque constant must be in \(0, 1\], got 1\.5"),
    ("patch", "r0_mm", 0, r"patch\.r0_mm must be a positive number, got 0"),
])
def test_bad_block_value_names_key(block, key, value, match):
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc.setdefault(block, {})[key] = value
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(doc)


@pytest.mark.parametrize("block, key", [
    ("noise", "pos_sigma_mm"),
    ("noise", "angle_sigma_deg"),
    ("perturbation", "pressure_bias_sigma_mm"),
    ("perturbation", "radius_jitter_sigma_mm"),
    ("perturbation", "pressure_bias_fixed_mm"),
])
def test_negative_magnitude_names_key(block, key):
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc.setdefault(block, {})[key] = -2
    with pytest.raises(ScenarioError, match=rf"^{block}\.{key} must be a nonnegative number, got -2$"):
        parse_scenario(doc)
    doc[block][key] = 0
    parse_scenario(doc)


def test_eval_config_object_missing_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"objects": [{"extents_mm": [90, 150]}]}))
    with pytest.raises(ScenarioError, match=r"'mass_g' in objects\[0\]"):
        load_eval_config(p)
