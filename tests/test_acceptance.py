"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import filecmp
import json
import math
import random
import time
from pathlib import Path

import pytest

from vib2move.cli import main as cli_main
from vib2move.contact import (
    ContactPatch,
    ObjectModel,
    balance_wrench,
    build_limit_surface,
    ls_scale,
    max_dissipation_oracle,
    motion_direction,
)
from vib2move.harness import (
    NoiseModel,
    PerturbationModel,
    default_objects,
    run_reconfiguration_eval,
)
from vib2move.integrator import (
    ContactState,
    PulseSpec,
    com_world,
    lever_x,
    rollout_to_rest,
    slide_step,
    vibration_pulse,
)
from vib2move.planner import PlannerConfig
from vib2move.se2 import PoseSE2

from conftest import state_with_contact_at

GOLDEN = Path(__file__).parent / "data" / "golden_demo_plan_actions.json"

PATCH = ContactPatch(r0=0.015, c=0.6)
LS = build_limit_surface(PATCH)


def _random_object(rng):
    return ObjectModel(mass=rng.uniform(0.03, 0.15), extents=(0.09, 0.15))


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_limit_surface_membership():
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        obj = _random_object(rng)
        w = balance_wrench(obj, rng.uniform(-0.075, 0.075))
        k = ls_scale(LS, w)
        worst = max(worst, abs(k * LS.quad(w) - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    _report(1, f"scaled-surface membership within {worst:.2e} on 1e4 wrenches "
               f"({elapsed:.2f} s)")


def test_criterion_2_duality_oracle():
    n_samples = 10_000
    tol = 2.0 * math.sqrt(4.0 * math.pi / n_samples)
    rng = random.Random(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        obj = _random_object(rng)
        x_c = rng.uniform(-0.075, 0.075)
        w0 = balance_wrench(obj, x_c)
        t = motion_direction(LS, w0)
        w = max_dissipation_oracle(LS, t, n_samples)
        a = (w.fx / LS.a1, w.fy / LS.a2, w.tau / LS.a3)
        b = (w0.fx / LS.a1, w0.fy / LS.a2, w0.tau / LS.a3)
        na = math.sqrt(sum(v * v for v in a))
        nb = math.sqrt(sum(v * v for v in b))
        cos = sum(x * y for x, y in zip(a, b)) / (na * nb)
        worst = max(worst, math.acos(max(-1.0, min(1.0, cos))))
    elapsed = time.perf_counter() - t0
    assert worst < tol
    assert elapsed < 30.0
    _report(2, f"dual argmax within {worst:.4f} rad (tol {tol:.4f}) on 1e3 wrenches "
               f"({elapsed:.1f} s)")


def test_criterion_3_gravity_axis_symmetry():
    obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
    t = motion_direction(LS, balance_wrench(obj, 0.0))
    assert (t.vx, t.vy, t.omega) == (0.0, -1.0, 0.0)
    rng = random.Random(303)
    for _ in range(1000):
        x_c = rng.uniform(1e-6, 0.075)
        tp = motion_direction(LS, balance_wrench(obj, x_c))
        tm = motion_direction(LS, balance_wrench(obj, -x_c))
        assert tp.omega < 0.0 < tm.omega
        assert tp.omega == pytest.approx(-tm.omega, rel=1e-12)
        assert tp.vy == pytest.approx(tm.vy, rel=1e-12)
    _report(3, "aligned state gives twist (0,-1,0); omega mirrors the lever sign "
               "on 1e3 states")


def test_criterion_4_energy_descent():
    rng = random.Random(404)
    for _ in range(10_000):
        obj = _random_object(rng)
        st = state_with_contact_at(
            PATCH,
            (rng.uniform(-0.033, 0.033), rng.uniform(-0.06, 0.06)),
            theta_o=rng.uniform(-math.pi, math.pi))
        y0 = com_world(st.object_pose_w, obj)[1]
        out = slide_step(st, obj, ds=1e-3)
        assert com_world(out.object_pose_w, obj)[1] < y0
    _report(4, "world com height strictly decreased on all 1e4 sliding steps")


def test_criterion_5_equilibrium_convergence_and_instability():
    obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
    rng = random.Random(505)
    agree = 0
    for _ in range(100):
        # com hanging below the contact at a random offset: must converge
        bearing = -math.pi / 2 + rng.uniform(-0.9, 0.9)
        d = rng.uniform(0.01, 0.045)
        st = state_with_contact_at(PATCH, (-d * math.cos(bearing), -d * math.sin(bearing)))
        res = rollout_to_rest(st, obj, ds=1e-4, max_steps=300_000, record=False)
        assert res.converged
        assert abs(lever_x(res.state, obj)) < 1e-5
        agree += 1
    for _ in range(100):
        # com above the contact, nudged 1e-6 m: the alignment error must
        # grow. The com must start high enough that the exponential
        # divergence outruns the straight descent (growth e-folds scale
        # with d^2 / a3^2), and the horizon must end before the object has
        # descended past the contact
        d = rng.uniform(0.025, 0.045)
        st = state_with_contact_at(PATCH, (0.0, -d))
        nudged = ContactState(st.finger_pose_w,
                              PoseSE2(st.object_pose_w.x + 1e-6, st.object_pose_w.y,
                                      st.object_pose_w.theta),
                              PATCH)
        res = rollout_to_rest(nudged, obj, ds=1e-4, max_steps=150, record=False)
        assert not res.converged
        assert abs(lever_x(res.state, obj)) > 1e-5
        agree += 1
    assert agree == 200
    _report(5, "100/100 hanging starts reached |x_c| < 1e-5 m; 100/100 inverted "
               "starts diverged")


def test_criterion_6_integrator_first_order():
    obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
    rng = random.Random(606)
    orders = []
    for _ in range(20):
        # generic lever so the trajectory is curved
        p = (rng.uniform(0.01, 0.03) * rng.choice([-1, 1]), rng.uniform(-0.05, -0.02))
        st = state_with_contact_at(PATCH, p, theta_o=rng.uniform(-0.4, 0.4))
        total = 0.02
        ends = []
        for level in range(5):
            ds = 1e-3 / 2 ** level
            out, _ = vibration_pulse(st, obj, PulseSpec(ds, int(round(total / ds))))
            ends.append(out.object_pose_w)
        gaps = [math.hypot(a.x - b.x, a.y - b.y) + PATCH.r0 * abs(a.theta - b.theta)
                for a, b in zip(ends, ends[1:])]
        for g0, g1 in zip(gaps, gaps[1:]):
            orders.append(math.log2(g0 / g1))
    observed = min(orders)
    assert observed >= 0.9
    _report(6, f"refinement order >= {observed:.3f} across 20 scenarios x 4 levels")


def test_criterion_7_noise_free_closed_loop():
    t0 = time.perf_counter()
    config = PlannerConfig()
    report = run_reconfiguration_eval(
        objects=[default_objects()[0]], n_paths_per_object=100,
        noise=NoiseModel(0.0, 0.0), perturb=PerturbationModel(),
        config=config, seed=11)
    elapsed = time.perf_counter() - t0
    assert report.n_trials == 100
    assert report.success_rate == 1.0
    for t in report.trials:
        assert t.err_pos < config.r_error
        assert t.err_angle < config.r_theta_error
    assert elapsed < 300.0
    _report(7, f"100/100 noise-free goals converged, rmse "
               f"{report.rmse_pos * 1000:.2f} mm / "
               f"{math.degrees(report.rmse_angle):.2f} deg ({elapsed:.1f} s)")


def test_criterion_8_noisy_closed_loop():
    report = run_reconfiguration_eval(
        objects=[default_objects()[0]], n_paths_per_object=100,
        noise=NoiseModel(pos_sigma=0.001, angle_sigma=0.0087),
        perturb=PerturbationModel(pressure_bias_fixed=0.002),
        config=PlannerConfig(max_actions_per_stage=400), seed=21)
    assert report.n_trials == 100
    assert report.success_rate >= 0.95
    rmse_mm = report.rmse_pos * 1000.0
    # qualitative check only: single-digit millimeters, same order as a
    # hardware benchmark of this protocol; no numeric hardware tolerance
    assert 0.5 < rmse_mm < 10.0
    _report(8, f"{report.success_rate:.0%} success under 1 mm noise + "
               f"2 mm pressure bias; rmse {rmse_mm:.2f} mm / "
               f"{math.degrees(report.rmse_angle):.2f} deg (single-digit mm)")


def test_criterion_9_structural_demo_regression(tmp_path):
    assert cli_main(["plan", "--scenario", "demo_plan", "--out", str(tmp_path)]) == 0
    actions = json.loads((tmp_path / "actions.json").read_text())

    # three stages present and ordered
    stages = [a["stage"] for a in actions if a["stage"] > 0]
    assert sorted(set(stages)) == [1, 2, 3]
    assert stages == sorted(stages)

    # stage 1 alternates reorient / pulse / observe
    s1 = [a["kind"] for a in actions if a["stage"] == 1]
    assert len(s1) >= 6
    for i in range(0, len(s1) - 2, 3):
        assert s1[i:i + 3] == ["reorient", "pulse", "observe"]

    # stage 2 approaches the goal monotonically
    s2_res = [a["residual"] for a in actions
              if a["stage"] == 2 and a["kind"] == "observe"]
    assert len(s2_res) >= 3
    for earlier, later in zip(s2_res, s2_res[1:]):
        assert later <= earlier + 2.5e-4

    # stage 3 shrinks the orientation error
    s3_res = [a["residual"] for a in actions
              if a["stage"] == 3 and a["kind"] == "observe"]
    assert len(s3_res) >= 2
    assert s3_res[-1] < s3_res[0]
    assert s3_res[-1] < PlannerConfig().r_theta_error

    assert (tmp_path / "actions.json").read_text() == GOLDEN.read_text()
    _report(9, f"demo action log matches the golden file "
               f"({len(actions)} actions, 3 stages)")


def test_criterion_10_byte_identical_outputs(tmp_path):
    for sub in ("a", "b"):
        assert cli_main(["plan", "--scenario", "demo_plan", "--seed", "5",
                         "--out", str(tmp_path / "plan" / sub)]) == 0
        assert cli_main(["evaluate", "--config", "eval_noisy", "--seed", "5",
                         "--out", str(tmp_path / "eval" / sub)]) == 0
    plan_files = ["trajectory.csv", "actions.json", "metrics.json", "path.svg"]
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "plan" / "a", tmp_path / "plan" / "b", plan_files, shallow=False)
    assert not mismatch and not errors and len(match) == len(plan_files)
    eval_files = ["trials.csv", "table.csv", "metrics.json", "error_distribution.svg"]
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "eval" / "a", tmp_path / "eval" / "b", eval_files, shallow=False)
    assert not mismatch and not errors and len(match) == len(eval_files)
    _report(10, "plan and evaluate outputs byte-identical across repeated seeded runs")
