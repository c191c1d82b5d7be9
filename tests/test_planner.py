import math
import random
from dataclasses import replace

import pytest

from vib2move.contact import ContactPatch, ObjectModel
from vib2move.harness import PlantEnv, default_patch, state_from_relative
from vib2move.planner import (
    _ERROR_GRID,
    OrientationLimitError,
    PiState,
    PlannerConfig,
    PlanningProblem,
    SingularityError,
    _predict_pulse,
    _pressure_error_from_pulse,
    _stage3_candidates,
    _stage3_target,
    check_reachability,
    pi_update,
    plan_and_execute,
    primitive_reorient,
    subgoal_centering,
    subgoal_positioning,
)
from vib2move.se2 import PoseSE2, relative_pose, transform_point, wrap_angle

from conftest import state_with_contact_at


@pytest.fixture
def config():
    return PlannerConfig()


class TestReorientPrimitive:
    def test_noop_at_current_theta(self, paper_patch):
        st = state_with_contact_at(paper_patch, (0.01, 0.02), theta_o=0.2)
        out = primitive_reorient(st, st.finger_pose_w.theta)
        assert out.finger_pose_w == st.finger_pose_w
        assert out.object_pose_w == st.object_pose_w

    def test_relative_pose_preserved_bit_identical(self, paper_patch):
        st = state_with_contact_at(paper_patch, (0.01, 0.02), theta_o=0.2)
        rel0 = relative_pose(st.finger_pose_w, st.object_pose_w)
        out = primitive_reorient(st, st.finger_pose_w.theta + 0.3)
        rel1 = relative_pose(out.finger_pose_w, out.object_pose_w)
        assert rel1.x == pytest.approx(rel0.x, abs=1e-15)
        assert rel1.y == pytest.approx(rel0.y, abs=1e-15)
        assert rel1.theta == pytest.approx(rel0.theta, abs=1e-15)

    def test_com_moves_on_circle_about_fingertip(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.015, 0.025), theta_o=0.1)
        tcp = st.finger_pose_w.position
        com0 = transform_point(st.object_pose_w, plate.com_offset)
        d0 = math.hypot(com0[0] - tcp[0], com0[1] - tcp[1])
        out = primitive_reorient(st, 0.9)
        com1 = transform_point(out.object_pose_w, plate.com_offset)
        d1 = math.hypot(com1[0] - tcp[0], com1[1] - tcp[1])
        assert d1 == pytest.approx(d0, abs=1e-12)
        assert out.finger_pose_w.position == tcp

    def test_limit_violation_raises(self, paper_patch):
        st = state_with_contact_at(paper_patch, (0.01, 0.02))
        with pytest.raises(OrientationLimitError):
            primitive_reorient(st, 1.6, limits=(-1.2, 1.5))


class TestSubgoals:
    def test_centering_noop_when_com_above(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.0, -0.03))  # com straight above
        assert subgoal_centering(st, plate) == pytest.approx(st.finger_pose_w.theta, abs=1e-12)

    def test_centering_rotates_bearing_to_vertical(self, paper_patch, plate):
        # com at bearing 45 deg from the contact: rotate by +45 deg
        st = state_with_contact_at(paper_patch, (-0.02 / math.sqrt(2) * 1, -0.02 / math.sqrt(2)))
        target = subgoal_centering(st, plate)
        assert target == pytest.approx(st.finger_pose_w.theta + math.pi / 4, abs=1e-12)

    def test_centering_antipodal_flips_half_turn(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.0, 0.03))  # com straight below
        target = subgoal_centering(st, plate)
        assert abs(wrap_angle(target - st.finger_pose_w.theta)) == pytest.approx(math.pi, abs=1e-12)

    def test_centering_singularity(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.0, 1e-9))
        with pytest.raises(SingularityError):
            subgoal_centering(st, plate)

    def test_positioning_aligns_goal_over_contact(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.0, 0.0))
        goal = PoseSE2(0.01, 0.005, 0.4)
        target = subgoal_positioning(st, plate, goal)
        out = primitive_reorient(st, target)
        from vib2move.se2 import compose

        goal_w = compose(out.object_pose_w, goal)
        f = out.finger_pose_w
        bearing = math.atan2(goal_w.y - f.y, goal_w.x - f.x)
        assert bearing == pytest.approx(math.pi / 2, abs=1e-9)

    def test_orientation_lever_sign_follows_error(self, paper_patch, plate, config):
        # positive orientation error needs the com left of vertical so the
        # induced rotation lowers the relative angle, and mirrored for
        # negative error; this holds for every feasible lever side and for
        # the placement stage 3 picks
        st = state_with_contact_at(paper_patch, (0.01, 0.03), theta_o=0.0)
        rel_theta = relative_pose(st.finger_pose_w, st.object_pose_w).theta
        for err_sign in (+1.0, -1.0):
            e_theta = err_sign * math.radians(10)
            goal = PoseSE2(0.01, 0.03, rel_theta - e_theta)
            candidates = _stage3_candidates(st, plate, e_theta, config)
            assert "below" in candidates
            target, gamma, side = _stage3_target(st, plate, goal, config, e_theta)
            assert candidates[side] == (target, gamma)
            for cand_target, _ in candidates.values():
                out = primitive_reorient(st, cand_target)
                pc = transform_point(out.finger_pose_w, paper_patch.pressure_center_offset)
                com = transform_point(out.object_pose_w, plate.com_offset)
                assert math.copysign(1.0, com[0] - pc[0]) == -err_sign

    def test_orientation_needs_a_lever(self, paper_patch, plate, config):
        st = state_with_contact_at(paper_patch, (0.0, 1e-9))
        with pytest.raises(SingularityError):
            _stage3_candidates(st, plate, 0.3, config)
        with pytest.raises(SingularityError):
            _stage3_target(st, plate, PoseSE2(0.0, 0.0, 0.0), config, 0.3)


class TestPiUpdate:
    def test_zero_error_is_stable(self):
        pi = PiState()
        for _ in range(10):
            pi = pi_update(pi, (0.0, 0.0), (0.5, 0.1), r0=0.015)
        assert pi.pressure_center_estimate == (0.0, 0.0)

    def test_integral_action_on_constant_bias(self):
        # hand-computed discrete PI response to e = (1 mm, 0):
        # estimates 0.6, 1.3, 2.1 mm after 1..3 updates
        pi = PiState()
        expected = [0.0006, 0.0013, 0.0021]
        for want in expected:
            pi = pi_update(pi, (0.001, 0.0), (0.5, 0.1), r0=0.015)
            assert pi.pressure_center_estimate[0] == pytest.approx(want, rel=1e-12)
        assert pi.pressure_center_estimate[1] == 0.0

    def test_estimate_clamped_inside_patch(self):
        pi = PiState()
        for _ in range(100):
            pi = pi_update(pi, (0.01, 0.0), (0.5, 0.1), r0=0.015)
        assert math.hypot(*pi.pressure_center_estimate) <= 0.95 * 0.015 + 1e-12


class TestPlanExecution:
    def _problem(self, goal=PoseSE2(0.010, 0.005, math.radians(22.9))):
        obj = ObjectModel(mass=0.09, extents=(0.09, 0.15), com_offset=(0.0225, -0.0167))
        patch = default_patch()
        rel0 = PoseSE2(0.024, -0.045, 0.0)
        return PlanningProblem(goal, obj, patch), rel0

    def test_goal_equal_initial_is_immediate(self, config):
        obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
        patch = default_patch()
        rel0 = PoseSE2(0.004, -0.028, 0.1)
        env = PlantEnv(state_from_relative(rel0, patch), obj)
        result = plan_and_execute(PlanningProblem(rel0, obj, patch), env, config)
        assert [a.kind for a in result.actions] == ["observe"]
        assert result.final_error[0] < 1e-9

    def test_three_stage_plan_converges(self, config):
        problem, rel0 = self._problem()
        env = PlantEnv(state_from_relative(rel0, problem.patch), problem.obj)
        result = plan_and_execute(problem, env, config)
        assert result.final_error[0] < config.r_error
        assert result.final_error[1] < config.r_theta_error
        stages = {a.stage for a in result.actions if a.kind == "pulse"}
        assert stages == {1, 2, 3}

    def test_primitive_contracts_on_every_action(self, config):
        problem, rel0 = self._problem()
        env = PlantEnv(state_from_relative(rel0, problem.patch), problem.obj)
        plan_and_execute(problem, env, config)
        assert len(env.trace) > 6
        for rec in env.trace:
            if rec["kind"] == "reorient":
                b, a = rec["rel_before"], rec["rel_after"]
                assert a.x == pytest.approx(b.x, abs=1e-12)
                assert a.y == pytest.approx(b.y, abs=1e-12)
                assert wrap_angle(a.theta - b.theta) == pytest.approx(0.0, abs=1e-12)
            else:
                assert rec["finger_after"] == rec["finger_before"]

    def test_stage1_distance_non_increasing(self, config):
        problem, rel0 = self._problem()
        env = PlantEnv(state_from_relative(rel0, problem.patch), problem.obj)
        result = plan_and_execute(problem, env, config)
        run = [a.residual for a in result.actions if a.kind == "observe" and a.stage == 1]
        for earlier, later in zip(run, run[1:]):
            assert later <= earlier + 1e-9

    def test_stage3_position_drift_bounded(self, config):
        problem, rel0 = self._problem()
        env = PlantEnv(state_from_relative(rel0, problem.patch), problem.obj)
        result = plan_and_execute(problem, env, config)
        # position error after stage 2 vs final: rotation costs at most the
        # configured drift allowance, well under 2 * r_error
        assert result.final_error[0] < 2.0 * config.r_error

    def test_unreachable_goal_rejected_up_front(self, config):
        obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
        patch = default_patch()
        rel0 = PoseSE2(0.0, -0.025, 0.0)
        # goal straight below the center: positioning would need an
        # upside-down finger
        problem = PlanningProblem(PoseSE2(0.0, -0.035, 0.0), obj, patch)
        state = state_from_relative(rel0, patch)
        with pytest.raises(OrientationLimitError):
            check_reachability(state.finger_pose_w, state.object_pose_w, problem, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(r_error=1e-6)
        with pytest.raises(ValueError):
            PlannerConfig(finger_orientation_limits=(1.0, -1.0))
        with pytest.raises(ValueError):
            PlannerConfig(lever_angle_stage3=2.0)
        for bad in ({"step_ds": 0.0}, {"step_ds": -1e-3}, {"step_ds": math.nan},
                    {"max_pulse_steps": 0}, {"max_actions_per_stage": 0},
                    {"max_actions_per_stage": -3}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                PlannerConfig(**bad)


def _replace_based_pressure_error(belief, obj, ds, n_steps, predicted, observed,
                                  sigma_pos=0.0015, sigma_theta=0.013):
    """The estimator as first written, with one replace()-built state and a
    full model rollout per grid candidate; kept as the reference."""
    th = belief.finger_pose_w.theta
    ex_f, ey_f = math.cos(th), -math.sin(th)
    pdx, pdy = belief.patch.pressure_center_offset
    costs = {}
    for err in _ERROR_GRID:
        if err == 0.0:
            pose = predicted
        else:
            off = (pdx + ex_f * err, pdy + ey_f * err)
            if math.hypot(*off) >= belief.patch.r0:
                continue
            nudged = replace(belief, patch=replace(
                belief.patch, pressure_center_offset=off))
            pose = _predict_pulse(nudged, obj, ds, n_steps)
        costs[err] = ((pose.x - observed.x) ** 2 + (pose.y - observed.y) ** 2) / sigma_pos ** 2 \
            + wrap_angle(pose.theta - observed.theta) ** 2 / sigma_theta ** 2
    if not costs:
        return None
    best_err = min(costs, key=costs.get)
    best_cost = costs[best_err]
    step = _ERROR_GRID[1] - _ERROR_GRID[0]
    rivals = [c for e, c in costs.items() if abs(abs(e - best_err) - 2 * step) < 1e-12]
    if not rivals:
        return None
    localization = min(rivals) - best_cost
    weight = min(1.0, localization / 4.0)
    if weight < 0.1:
        return None
    lo, hi = costs.get(best_err - step), costs.get(best_err + step)
    if lo is not None and hi is not None:
        denom = lo - 2.0 * best_cost + hi
        if denom > 1e-9:
            best_err += 0.5 * step * (lo - hi) / denom
    return weight * best_err


def test_pressure_error_matches_replace_based_estimator():
    rng = random.Random(2024)
    seen = {"none": 0, "informative": 0, "outside_patch": 0}
    r0 = 0.015
    for _ in range(240):
        obj = ObjectModel(mass=rng.uniform(0.05, 0.1), extents=(0.09, 0.15),
                          com_offset=(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)))
        # pressure estimates up to near the patch rim, so that part of the
        # +-5 mm candidate grid falls outside the patch and is skipped
        rho, ang = rng.uniform(0.0, 0.0145), rng.uniform(-math.pi, math.pi)
        patch = ContactPatch(r0=r0, c=0.6,
                             pressure_center_offset=(rho * math.cos(ang), rho * math.sin(ang)))
        finger = PoseSE2(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
                         rng.uniform(-1.2, 1.5))
        belief = state_with_contact_at(
            patch, (rng.uniform(-0.03, 0.03), rng.uniform(-0.055, 0.055)),
            theta_o=finger.theta + rng.uniform(-0.5, 0.5), vibration_on=False, finger=finger)
        ds = rng.choice((2.5e-4, 1e-3))
        n_steps = rng.randint(1, 60)
        predicted = _predict_pulse(belief, obj, ds, n_steps)
        observed = PoseSE2(predicted.x + rng.gauss(0.0, 0.002),
                           predicted.y + rng.gauss(0.0, 0.002),
                           predicted.theta + rng.gauss(0.0, 0.02))
        got = _pressure_error_from_pulse(belief, obj, ds, n_steps, predicted, observed)
        want = _replace_based_pressure_error(belief, obj, ds, n_steps, predicted, observed)
        assert repr(got) == repr(want)
        seen["none" if got is None else "informative"] += 1
        th = finger.theta
        seen["outside_patch"] += any(
            math.hypot(patch.pressure_center_offset[0] + math.cos(th) * e,
                       patch.pressure_center_offset[1] - math.sin(th) * e) >= r0
            for e in _ERROR_GRID)
    assert min(seen.values()) >= 10, seen
