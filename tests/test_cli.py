import csv
import filecmp
import json
import logging
import math
from pathlib import Path
from xml.dom import minidom

import pytest

from vib2move.cli import main
from vib2move.scenario import bundled_path


GOLDEN_TRIALS = Path(__file__).parent / "data" / "golden_eval_noisy_seed7_trials.csv"


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPredict:
    def test_writes_trajectory_and_plot(self, tmp_path):
        assert run(["predict", "--scenario", "demo_pulse", "--out", tmp_path / "o"]) == 0
        rows = read_rows(tmp_path / "o" / "trajectory.csv")
        assert rows[0][0] == "step"
        assert rows[0][1:3] == ["finger_x_mm", "finger_y_mm"]
        assert len(rows) == 2301
        assert (tmp_path / "o" / "path.svg").read_text().startswith("<svg")

    def test_zero_steps_gives_header_only(self, tmp_path):
        assert run(["predict", "--scenario", "demo_pulse", "--n-steps", 0,
                    "--out", tmp_path / "o"]) == 0
        rows = read_rows(tmp_path / "o" / "trajectory.csv")
        assert len(rows) == 1

    def test_two_phase_classes_present(self, tmp_path):
        run(["predict", "--scenario", "demo_pulse", "--out", tmp_path / "o"])
        rows = read_rows(tmp_path / "o" / "trajectory.csv")[1:]
        classes = [r[7] for r in rows]
        assert classes[0] == "near_rotational"
        assert classes[-1] == "translational"

    def test_identical_invocations_byte_identical(self, tmp_path):
        run(["predict", "--scenario", "demo_pulse", "--out", tmp_path / "a"])
        run(["predict", "--scenario", "demo_pulse", "--out", tmp_path / "b"])
        for name in ("trajectory.csv", "path.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_scenario_fails(self, tmp_path):
        assert run(["predict", "--scenario", "nope", "--out", tmp_path / "o"]) == 1


class TestPlan:
    def test_outputs(self, tmp_path):
        assert run(["plan", "--scenario", "demo_plan", "--out", tmp_path / "o"]) == 0
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert metrics["final_error_pos_mm"] < 5.0
        assert metrics["final_error_angle_deg"] < 1.01
        actions = json.loads((tmp_path / "o" / "actions.json").read_text())
        assert {a["stage"] for a in actions} == {0, 1, 2, 3}
        assert (tmp_path / "o" / "path.svg").exists()

    def test_seeded_runs_byte_identical(self, tmp_path):
        run(["plan", "--scenario", "demo_plan", "--seed", 3, "--out", tmp_path / "a"])
        run(["plan", "--scenario", "demo_plan", "--seed", 3, "--out", tmp_path / "b"])
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b",
            ["trajectory.csv", "actions.json", "metrics.json", "path.svg"], shallow=False)
        assert not mismatch and not errors

    def test_records_one_csv_row_per_pulse_step(self, tmp_path, kernel_spy):
        assert run(["plan", "--scenario", "demo_plan", "--out", tmp_path / "o"]) == 0
        actions = json.loads((tmp_path / "o" / "actions.json").read_text())
        pulse_steps = [a["n_steps"] for a in actions if a["kind"] == "pulse"]
        rows = read_rows(tmp_path / "o" / "trajectory.csv")[1:]
        recorded = [n for rec, n in kernel_spy if rec]
        # only the plant pulses record; sizing, prediction and estimator
        # replays do not
        assert recorded == pulse_steps
        assert len(rows) == sum(pulse_steps)

    def test_unreachable_goal_exit_code(self, tmp_path):
        doc = json.loads(Path("src/vib2move/data/demo_plan.json").read_text())
        doc["goal_rel_mm_deg"] = [22.5, -40.0, 0.0]  # straight below the com
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["plan", "--scenario", bad, "--out", tmp_path / "o"]) == 1


class TestEvaluate:
    def test_noise_free_batch(self, tmp_path):
        assert run(["evaluate", "--config", "eval_noise_free", "--seed", 7,
                    "--out", tmp_path / "o"]) == 0
        table = read_rows(tmp_path / "o" / "table.csv")
        assert table[0] == ["object", "surface", "size_mm", "weight_g", "rmse_pos_mm",
                            "rel_error_pct", "rmse_orient_deg", "success_rate"]
        assert len(table) == 8  # six objects + average + header
        assert table[-1][0] == "average"
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert metrics["reconfigure"]["success_rate"] == 1.0
        trials = read_rows(tmp_path / "o" / "trials.csv")
        assert len(trials) == 61
        assert (tmp_path / "o" / "error_distribution.svg").exists()

    def test_noisy_trials_match_golden(self, tmp_path):
        # pins the goal sampler, the reachability screen's rejections and
        # every trial's outcome under noise and pressure bias
        assert run(["evaluate", "--config", "eval_noisy", "--seed", 7,
                    "--out", tmp_path / "o"]) == 0
        got = (tmp_path / "o" / "trials.csv").read_text().splitlines()
        assert got == GOLDEN_TRIALS.read_text().splitlines()

    def test_two_seeds_differ_structurally_same(self, tmp_path):
        run(["evaluate", "--config", "eval_noise_free", "--seed", 1, "--out", tmp_path / "a"])
        run(["evaluate", "--config", "eval_noise_free", "--seed", 2, "--out", tmp_path / "b"])
        ma = json.loads((tmp_path / "a" / "metrics.json").read_text())
        mb = json.loads((tmp_path / "b" / "metrics.json").read_text())
        assert ma.keys() == mb.keys()
        assert ma != mb

    def test_seeded_runs_byte_identical(self, tmp_path):
        run(["evaluate", "--config", "eval_noise_free", "--seed", 5, "--out", tmp_path / "a"])
        run(["evaluate", "--config", "eval_noise_free", "--seed", 5, "--out", tmp_path / "b"])
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b",
            ["trials.csv", "table.csv", "metrics.json", "error_distribution.svg"],
            shallow=False)
        assert not mismatch and not errors


def _error_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


class TestBadStepInputs:
    @pytest.mark.parametrize("ds", ["0", "-1", "nan", "inf"])
    def test_predict_ds_must_be_finite_and_positive(self, tmp_path, caplog, ds):
        assert run(["predict", "--scenario", "demo_pulse", "--ds", ds,
                    "--out", tmp_path / "o"]) == 1
        assert _error_lines(caplog) == [f"--ds must be a finite positive number, got {float(ds)}"]
        assert not (tmp_path / "o").exists()

    def test_predict_n_steps_must_not_be_negative(self, tmp_path, caplog):
        assert run(["predict", "--scenario", "demo_pulse", "--n-steps", -5,
                    "--out", tmp_path / "o"]) == 1
        assert _error_lines(caplog) == ["--n-steps must be zero or more, got -5"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("step_ds", -0.001), ("max_actions_per_stage", 0)])
    def test_planner_value_rejected_before_planning(self, tmp_path, caplog, key, value):
        doc = json.loads(bundled_path("demo_plan").read_text())
        doc.setdefault("planner", {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["plan", "--scenario", bad, "--out", tmp_path / "o"]) == 1
        [msg] = _error_lines(caplog)
        assert key in msg and repr(value) in msg and "\n" not in msg
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, value, key", [
        (("object", "mass_g"), "90", "object.mass_g"),
        (("goal_rel_mm_deg", 2), "22.9", "goal_rel_mm_deg[2]"),
        (("object", "mass_g"), -5, "object.mass_g"),
        (("object", "mass_g"), math.nan, "object.mass_g"),
        (("goal_rel_mm_deg", 1), math.inf, "goal_rel_mm_deg[1]"),
        (("noise", "pos_sigma_mm"), math.nan, "noise.pos_sigma_mm"),
    ])
    def test_bad_scenario_number_rejected(self, tmp_path, caplog, path, value, key):
        doc = json.loads(bundled_path("demo_plan").read_text())
        doc[path[0]][path[1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["plan", "--scenario", bad, "--out", tmp_path / "o"]) == 1
        [msg] = _error_lines(caplog)
        # quoted as written in the file (grams, not the SI -0.005 kg)
        assert key in msg and repr(value) in msg and "\n" not in msg
        assert not (tmp_path / "o").exists()

    def test_bad_eval_object_rejected(self, tmp_path, caplog):
        doc = json.loads(bundled_path("eval_noisy").read_text())
        doc["objects"] = [{"mass_g": math.nan, "extents_mm": [90.0, 150.0]}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["evaluate", "--config", bad, "--out", tmp_path / "o"]) == 1
        [msg] = _error_lines(caplog)
        assert "objects[0].mass_g" in msg and "nan" in msg and "\n" not in msg
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("step_ds", 0), ("pulse_steps", -5), ("n_trials", 0)])
    def test_eval_config_value_rejected(self, tmp_path, caplog, key, value):
        doc = json.loads(bundled_path("eval_noisy").read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["evaluate", "--config", bad, "--out", tmp_path / "o"]) == 1
        [msg] = _error_lines(caplog)
        assert key in msg and repr(value) in msg and "\n" not in msg
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, scenario, title", [
    ("predict", "demo_pulse", "single pulse"), ("plan", "demo_plan", "three-stage plan")])
def test_svg_text_is_escaped(tmp_path, command, scenario, title):
    """A scenario name with XML markup characters still gives a
    well-formed path.svg whose title reads the name as written."""
    name = "plate <A> & B"
    doc = json.loads(bundled_path(scenario).read_text())
    doc["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--scenario", path, "--out", tmp_path / "o"]) == 0
    svg = minidom.parse(str(tmp_path / "o" / "path.svg"))
    texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert f"{name}: {title}" in texts
