import csv
import filecmp
import hashlib
import json
import logging
import math
from pathlib import Path
from xml.dom import minidom

import pytest

from vib2move import cli
from vib2move.cli import main
from vib2move.scenario import bundled_path

from conftest import KERNELS, select_kernel


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

    @pytest.mark.parametrize("objects, key", [
        ([{"name": 1}, {"name": "b"}], "objects[0].name"),
        ([{"name": "b"}, {"name": "b"}], "objects[1].name"),
        ([{"name": "object2"}, {}], "objects[1].name"),
        ([], "objects"),
    ], ids=["non_string_name", "repeated_name", "repeated_default_name", "no_objects"])
    def test_bad_eval_object_names_rejected(self, tmp_path, caplog, objects, key):
        """Per-object results are keyed and sorted by name, so a name that
        is not a string, or one that two objects share, is refused before
        any trial runs, as is an object list with nothing to evaluate."""
        doc = json.loads(bundled_path("eval_noisy").read_text())
        doc["n_trials"] = 1
        doc["objects"] = [{"mass_g": 90.0, "extents_mm": [90.0, 150.0], **ob} for ob in objects]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["evaluate", "--config", bad, "--out", tmp_path / "o"]) == 1
        [msg] = _error_lines(caplog)
        assert msg.startswith(f"{key} ") and "\n" not in msg
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("path, value, words", [
        (("object", "mass_g"), 1e-300, "mass*gravity"),
        (("patch", "c"), 1e-300, "r0*c"),
        (("object", "com_offset_mm"), [1e308, 0.0], "non-finite object pose"),
    ], ids=["weight_underflow", "torque_arm_underflow", "huge_lever"])
    def test_degenerate_physics_fails_in_one_line(self, tmp_path, caplog, monkeypatch,
                                                  kernel, path, value, words):
        """Values the kernels cannot square or that take the pose out of
        floating point end the run with one error line on every kernel,
        not a traceback or NaN rows."""
        select_kernel(monkeypatch, kernel)
        doc = json.loads(bundled_path("demo_pulse").read_text())
        doc[path[0]][path[1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["predict", "--scenario", bad, "--out", tmp_path / "o"]) == 1
        [msg] = _error_lines(caplog)
        assert words in msg and "\n" not in msg
        assert not (tmp_path / "o" / "trajectory.csv").exists()

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


class TestRerunIntoUsedDirectory:
    """Every successful run writes its plot, even with nothing to draw, and
    a run removes the files it does not write, so no file of an earlier run
    into the same directory is left beside the new ones."""

    def test_predict_without_steps(self, tmp_path):
        out = tmp_path / "o"
        assert run(["predict", "--scenario", "demo_pulse", "--out", out]) == 0
        assert run(["predict", "--scenario", "demo_pulse", "--n-steps", 0, "--out", out]) == 0
        svg = (out / "path.svg").read_text()
        assert "demo_pulse: single pulse" in svg
        assert "<polyline" not in svg and "<circle" not in svg

    def test_plan_with_goal_already_met(self, tmp_path):
        out = tmp_path / "o"
        assert run(["plan", "--scenario", "demo_plan", "--out", out]) == 0
        doc = json.loads(bundled_path("demo_plan").read_text())
        doc["goal_rel_mm_deg"] = doc["initial_rel_mm_deg"]
        met = tmp_path / "met.json"
        met.write_text(json.dumps(doc))
        assert run(["plan", "--scenario", met, "--out", out]) == 0
        assert len(read_rows(out / "trajectory.csv")) == 1
        svg = (out / "path.svg").read_text()
        # the goal marker alone: its circle and heading line
        assert "<polyline" not in svg
        assert svg.count('stroke="#cc0000"') == 2

    def test_evaluate_without_success(self, tmp_path):
        out = tmp_path / "o"
        doc = {"n_trials": 2, "objects": [{"name": "plate", "mass_g": 90.0,
                                           "extents_mm": [90.0, 150.0]}]}
        config = tmp_path / "eval.json"
        config.write_text(json.dumps(doc))
        assert run(["evaluate", "--config", config, "--out", out]) == 0
        assert "<circle" in (out / "error_distribution.svg").read_text()
        # a plate narrower than the goal sampler's patch margin has no goal
        doc["objects"][0]["extents_mm"] = [30.0, 30.0]
        config.write_text(json.dumps(doc))
        assert run(["evaluate", "--config", config, "--out", out]) == 0
        assert json.loads((out / "metrics.json").read_text())["reconfigure"]["success_rate"] == 0
        svg = (out / "error_distribution.svg").read_text()
        assert "<circle" not in svg and "final pose error per object" in svg

    def test_failed_predict(self, tmp_path, caplog):
        out = tmp_path / "o"
        assert run(["predict", "--scenario", "demo_pulse", "--out", out]) == 0
        # long enough arc steps slide the contact off the footprint
        assert run(["predict", "--scenario", "demo_pulse", "--ds", 0.01, "--n-steps", 1000,
                    "--out", out]) == 1
        [msg] = _error_lines(caplog)
        assert msg.startswith("pulse failed: object dropped")
        assert list(out.iterdir()) == []

    def test_failed_plan(self, tmp_path, caplog):
        out = tmp_path / "o"
        assert run(["plan", "--scenario", "demo_plan", "--out", out]) == 0
        doc = json.loads(bundled_path("demo_plan").read_text())
        # a goal straight below the center of mass needs an upside-down finger
        doc["goal_rel_mm_deg"] = [0.0, -35.0, 0.0]
        unreachable = tmp_path / "unreachable.json"
        unreachable.write_text(json.dumps(doc))
        assert run(["plan", "--scenario", unreachable, "--out", out]) == 1
        [msg] = _error_lines(caplog)
        assert msg.startswith("planning failed: ")
        assert list(out.iterdir()) == []

    def test_single_pulse_evaluate(self, tmp_path):
        out = tmp_path / "o"
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"n_trials": 1, "objects": [
            {"name": "plate", "mass_g": 90.0, "extents_mm": [90.0, 150.0]}]}))
        assert run(["evaluate", "--config", config, "--out", out]) == 0
        config.write_text(json.dumps({"mode": "single_pulse", "n_trials": 1}))
        assert run(["evaluate", "--config", config, "--out", out]) == 0
        assert [p.name for p in out.iterdir()] == ["metrics.json"]
        assert list(json.loads((out / "metrics.json").read_text())) == ["single_pulse"]


class TestUnusablePaths:
    """A path that cannot be read as input, made into the output directory
    or cleared of an earlier output ends the run with one error line, not a
    traceback, and before any planning."""

    def test_rerun_into_directory_named_like_the_scenario(self, tmp_path, monkeypatch):
        # the first run's output directory takes the bundled plate's name,
        # which the rerun must still read as that plate
        monkeypatch.chdir(tmp_path)
        written = []
        for _ in range(2):
            assert run(["plan", "--scenario", "object1", "--out", "object1"]) == 0
            written.append((tmp_path / "object1" / "metrics.json").read_bytes())
        assert written[0] == written[1]

    def test_directory_as_scenario(self, tmp_path, caplog):
        runs = tmp_path / "runs"
        runs.mkdir()
        assert run(["plan", "--scenario", runs, "--out", tmp_path / "o"]) == 1
        assert _error_lines(caplog) == [
            f"scenario {str(runs)!r} not found (no such file or bundled name)"]
        assert not (tmp_path / "o").exists()

    def test_out_is_a_file(self, tmp_path, caplog):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert run(["predict", "--scenario", "demo_pulse", "--out", taken]) == 1
        assert _error_lines(caplog) == [
            f"cannot create output directory {str(taken)!r}: File exists"]
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("argv", [("predict", "--scenario", "demo_pulse"),
                                      ("plan", "--scenario", "demo_plan")],
                             ids=["predict", "plan"])
    def test_directory_at_an_output_name(self, tmp_path, caplog, argv):
        taken = tmp_path / "o" / "trajectory.csv"
        taken.mkdir(parents=True)
        assert run([*argv, "--out", tmp_path / "o"]) == 1
        assert _error_lines(caplog) == [
            f"cannot replace output file {str(taken)!r}: Is a directory"]
        assert taken.is_dir()

    def test_directory_at_an_output_name_runs_no_trial(self, tmp_path, caplog, monkeypatch):
        def no_trials(**kwargs):
            pytest.fail("a trial ran before the outputs were cleared")

        monkeypatch.setattr(cli, "run_reconfiguration_eval", no_trials)
        taken = tmp_path / "o" / "trials.csv"
        taken.mkdir(parents=True)
        assert run(["evaluate", "--config", "eval_noise_free", "--out", tmp_path / "o"]) == 1
        assert _error_lines(caplog) == [
            f"cannot replace output file {str(taken)!r}: Is a directory"]

    def test_scenario_not_utf8(self, tmp_path, caplog):
        doc = json.loads(bundled_path("demo_plan").read_text())
        doc["name"] = "plaque \u00e0 bord"
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        assert run(["plan", "--scenario", latin1, "--out", tmp_path / "o"]) == 1
        [msg] = _error_lines(caplog)
        assert msg.startswith(f"{latin1}: not UTF-8 text") and "\n" not in msg
        assert not (tmp_path / "o").exists()


def test_object_without_success_reports_no_error(tmp_path):
    """A plate too small for any goal has no error to report: empty table
    cells and nulls per object, and an empty but labelled plot column,
    while the averages over all trials stay numbers."""
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({"n_trials": 2, "objects": [
        {"name": "tiny", "mass_g": 20.0, "extents_mm": [30.0, 30.0]},
        {"name": "plate", "mass_g": 90.0, "extents_mm": [90.0, 150.0]}]}))
    assert run(["evaluate", "--config", config, "--out", tmp_path]) == 0
    table = {row[0]: row for row in read_rows(tmp_path / "table.csv")}
    assert table["tiny"][4:] == ["", "", "", "0.00"]
    assert all(table["plate"][4:]) and all(table["average"][4:])
    doc = json.loads((tmp_path / "metrics.json").read_text())["reconfigure"]
    assert doc["per_object"]["tiny"] == {"rmse_pos_mm": None, "rmse_angle_deg": None,
                                         "rel_error_pct": None, "success_rate": 0.0}
    assert doc["per_object"]["plate"]["rmse_pos_mm"] > 0.0
    assert isinstance(doc["rmse_pos_mm"], float) and doc["success_rate"] == 0.5
    svg = minidom.parse(str(tmp_path / "error_distribution.svg"))
    labels = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert "tiny" in labels and "plate" in labels
    assert len(svg.getElementsByTagName("circle")) == 2


# SHA-256 of the files these runs wrote before the planner stopped carrying
# the trajectory and the final error; both kernels write the same bytes, on
# every supported Python (the reports sum floats left to right, as sum()
# did before 3.12). The kernels call the C library's sin and cos, so a libm
# that rounds one of them differently would move these.
PINNED = {
    ("predict", "--scenario", "demo_pulse"): {
        "trajectory.csv": "6daa9bd9ae400560838611b7c1a70b209ac3eb8db3ee4b790e4ad8374c9ab594",
        "path.svg": "6528244921357a32a56c34120add91d40996c22563a44d4cbbd2a7f8fb7d6b30",
    },
    ("plan", "--scenario", "demo_plan", "--seed", "5"): {
        "trajectory.csv": "84a3603b180a89493df73d5e5d9c06ec98e7fc99e415bba321244e6d2dfbd380",
        "actions.json": "f6bd6290d5d8f9f684534f38ab17d79285a02c941564e0ca1c5794467dc73902",
        "metrics.json": "0bcde50da013860da8b8b31934d1020d7eee5c53d384ad4179f5fb2b6f7e5203",
        "path.svg": "fc4d1aa1f18967f19a6ceac08068b3f4100f745c89f5d1618b28d98bece14110",
    },
    ("evaluate", "--config", "eval_noisy", "--seed", "7"): {
        "metrics.json": "16f121acc273f459664300e45ea79f780665fe8be629365766d11dff670329b4",
        "table.csv": "eb975d69479ffab0b84a45d7938321db93b3b06833d44cd9f2c8c3f6b6a1dd10",
        "error_distribution.svg": "90e047569cb83ad34ebdbc7e6082b4c6da03e03f568b87d32c055e6864f03274",
    },
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("argv", PINNED, ids=["predict", "plan_seed5", "evaluate_noisy_seed7"])
def test_outputs_match_pinned_hashes(tmp_path, monkeypatch, kernel, argv):
    select_kernel(monkeypatch, kernel)
    assert run([*argv, "--out", tmp_path]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED[argv]}
    assert got == PINNED[argv]
