import dataclasses
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from vib2move.cli import main as cli_main
from vib2move.planner import PlannerConfig
from vib2move.scenario import (
    Scenario,
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


def assert_fields_close(got, want):
    # approx: the mm and degree fields pass through a unit scale and back
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == pytest.approx(getattr(want, f.name), rel=1e-12), f.name


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_load(name):
    s = load_scenario(bundled_path(name))
    assert s.obj.mass > 0
    assert s.patch.r0 == pytest.approx(0.015)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_plan(tmp_path, name):
    s = load_scenario(bundled_path(name))
    assert cli_main(["plan", "--scenario", name, "--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["final_error_pos_mm"] < s.planner.r_error * 1000.0
    assert math.radians(metrics["final_error_angle_deg"]) < s.planner.r_theta_error


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
    assert_fields_close(s2.planner, s.planner)


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
    assert_fields_close(s2.planner, s.planner)


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


def test_scenario_perturbation_block_rejected():
    # only eval configs perturb the plant; a scenario's block would be ignored
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc["perturbation"] = {"pressure_bias_fixed_mm": 5.0}
    with pytest.raises(ScenarioError, match=r"^unknown key\(s\) \['perturbation'\] in scenario$"):
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


@pytest.mark.parametrize("block, key", [("patch", "r0_mm"), ("object", "mass_g"),
                                        ("object", "extents_mm")])
def test_missing_nested_key_names_its_block(block, key):
    doc = json.loads(bundled_path("demo_plan").read_text())
    del doc[block][key]
    with pytest.raises(ScenarioError, match=rf"^missing required key '{key}' in {block}$"):
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


@pytest.mark.parametrize("load", [load_scenario, load_eval_config])
def test_unreadable_path_named(tmp_path, load):
    # a directory stands in for any path the loader cannot read
    with pytest.raises(ScenarioError) as exc:
        load(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path}: cannot read")


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


def parse_with(tmp_path, block, key, value):
    """Parse a bundled document with block[key] = value: the eval config
    for a perturbation key, which only eval configs carry, else a scenario."""
    if block == "perturbation":
        doc = json.loads(bundled_path("eval_noisy").read_text())
        doc[block][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return load_eval_config(path)
    doc = json.loads(bundled_path("demo_plan").read_text())
    doc.setdefault(block, {})[key] = value
    return parse_scenario(doc)


@pytest.mark.parametrize("block, key, value, match", [
    ("perturbation", "pressure_bias_fixed_mm", "2", r"perturbation\.pressure_bias_fixed_mm"),
    ("planner", "kp", math.nan, r"planner\.kp"),
    ("planner", "finger_limits_rad", [-1.0, True], r"planner\.finger_limits_rad\[1\]"),
    ("planner", "max_actions_per_stage", 2.5, r"planner\.max_actions_per_stage"),
    # PlannerConfig owns the signs, so the error names its field and quotes SI
    ("planner", "r_theta_error_deg", -180, r"planner: r_theta_error must be nonnegative, got -3\.14159"),
    ("planner", "r_theta_error_deg", 0, r"planner: r_theta_error must be positive, got 0\.0$"),
    ("planner", "r_error_mm", -4.0, r"planner: r_error must be nonnegative, got -0\.004$"),
    ("planner", "lever_angle_deg", -20, r"planner: lever_angle_stage3 must be nonnegative, got -0\.349"),
    ("planner", "ki", -0.1, r"planner: pi_gains must be nonnegative, got \(0\.5, -0\.1\)$"),
    ("noise", "seed", True, r"noise\.seed"),
    ("patch", "c", 1.5, r"patch: torque constant must be in \(0, 1\], got 1\.5"),
    ("patch", "r0_mm", 0, r"patch\.r0_mm must be a positive number, got 0"),
])
def test_bad_block_value_names_key(tmp_path, block, key, value, match):
    with pytest.raises(ScenarioError, match=match):
        parse_with(tmp_path, block, key, value)


@pytest.mark.parametrize("block, key", [
    ("noise", "pos_sigma_mm"),
    ("noise", "angle_sigma_deg"),
    ("perturbation", "pressure_bias_sigma_mm"),
    ("perturbation", "radius_jitter_sigma_mm"),
    ("perturbation", "pressure_bias_fixed_mm"),
])
def test_negative_magnitude_names_key(tmp_path, block, key):
    with pytest.raises(ScenarioError, match=rf"^{block}\.{key} must be a nonnegative number, got -2$"):
        parse_with(tmp_path, block, key, -2)
    parse_with(tmp_path, block, key, 0)


def test_eval_config_object_missing_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"objects": [{"extents_mm": [90, 150]}]}))
    with pytest.raises(ScenarioError, match=r"'mass_g' in objects\[0\]"):
        load_eval_config(p)


def _pair(elements):
    return st.lists(elements, min_size=2, max_size=2)


_NUMBER = st.floats(-500.0, 500.0) | st.integers(-500, 500)
_POSITIVE = st.floats(0.01, 500.0) | st.integers(1, 500)
_SIZE = st.floats(0.0, 50.0) | st.integers(0, 50)
# angles stay off +-180 degrees, where the degree round trip may wrap to the other end
_POSE = st.tuples(_NUMBER, _NUMBER, st.floats(-179.0, 179.0)).map(list)

SCENARIO_DOCS = st.fixed_dictionaries(
    {
        "object": st.fixed_dictionaries(
            {"mass_g": _POSITIVE, "extents_mm": _pair(_POSITIVE)},
            optional={"com_offset_mm": _pair(_NUMBER)}),
        "patch": st.fixed_dictionaries(
            {"r0_mm": st.floats(1.0, 50.0)},
            optional={"c": st.floats(0.01, 1.0),
                      "pressure_center_offset_mm": _pair(st.floats(-10.0, 10.0))}),
        "initial_rel_mm_deg": _POSE,
        "goal_rel_mm_deg": _POSE,
    },
    optional={
        "name": st.text(max_size=12),
        "gravity_mps2": _POSITIVE,
        "finger_world_mm_deg": _POSE,
        "noise": st.fixed_dictionaries({}, optional={
            "pos_sigma_mm": _SIZE, "angle_sigma_deg": _SIZE, "seed": st.integers(0, 2**31)}),
        "planner": st.fixed_dictionaries({}, optional={
            "r_error_mm": st.floats(0.02, 50.0),
            "r_theta_error_deg": st.floats(0.01, 30.0),
            "kp": _SIZE, "ki": _SIZE,
            "max_actions_per_stage": st.integers(1, 1000),
            "lever_angle_deg": st.floats(0.1, 89.9),
            "step_ds": st.floats(1e-6, 1e-2),
            "finger_limits_rad": _pair(st.floats(-3.0, 3.0)).map(sorted)}),
    })


@settings(max_examples=200, deadline=None)
@given(doc=SCENARIO_DOCS)
def test_accepted_scenario_round_trips(doc):
    """Any document the parser accepts gives an equal Scenario after dump
    and load. The mm and degree values pass through a unit scale and back,
    which may move the last bit, so every field compares as
    assert_fields_close does."""
    try:
        s = parse_scenario(doc)
    except ScenarioError:
        assume(False)
    s2 = parse_scenario(json.loads(json.dumps(scenario_to_doc(s), indent=2)))
    assert s2.name == s.name
    for f in dataclasses.fields(Scenario):
        if f.name != "name":
            assert_fields_close(getattr(s2, f.name), getattr(s, f.name))
