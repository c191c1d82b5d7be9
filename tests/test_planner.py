import collections
import hashlib
import math
import random
import re
from dataclasses import replace

import pytest

from vib2move import _backend, harness
from vib2move.contact import ContactPatch, ObjectModel
from vib2move.harness import (
    PlantEnv,
    _trial_rng,
    default_initial_rel,
    default_objects,
    default_patch,
    sample_goal,
    state_from_relative,
)
from vib2move.planner import (
    _ERROR_GRID,
    OrientationLimitError,
    PlannerConfig,
    PlanningProblem,
    SingularityError,
    _lever_windows,
    _predict_pulse,
    _pressure_error_from_pulse,
    _size_pulse,
    _stage3_target,
    check_reachability,
    pi_update,
    plan_and_execute,
    pose_error,
    primitive_reorient,
    subgoal_centering,
    subgoal_positioning,
)
from vib2move.integrator import _kernel_args, lever
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
        # negative error; this holds for every feasible lever of either
        # side and for the placement stage 3 picks
        st = state_with_contact_at(paper_patch, (0.01, 0.03), theta_o=0.0)
        rel_theta = relative_pose(st.finger_pose_w, st.object_pose_w).theta
        dx, dy = lever(st, plate)
        for err_sign in (+1.0, -1.0):
            e_theta = err_sign * math.radians(10)
            goal = PoseSE2(0.01, 0.03, rel_theta - e_theta)
            sides = {side: (t0, slope, windows) for side, t0, slope, windows in _lever_windows(
                st.finger_pose_w.theta, math.atan2(dy, dx), e_theta, config)}
            assert sides["below"][2]
            target, gamma, side = _stage3_target(st, plate, goal, config, e_theta, e_theta)
            t0, slope, windows = sides[side]
            assert target == wrap_angle(t0 + slope * gamma)
            assert any(g0 <= gamma <= g1 for g0, g1 in windows)
            targets = [wrap_angle(t0 + slope * g) for t0, slope, windows in sides.values()
                       for window in windows for g in window]
            for cand_target in targets + [target]:
                out = primitive_reorient(st, cand_target)
                pc = transform_point(out.finger_pose_w, paper_patch.pressure_center_offset)
                com = transform_point(out.object_pose_w, plate.com_offset)
                assert math.copysign(1.0, com[0] - pc[0]) == -err_sign

    def test_orientation_needs_a_lever(self, paper_patch, plate, config):
        st = state_with_contact_at(paper_patch, (0.0, 1e-9))
        with pytest.raises(SingularityError):
            _stage3_target(st, plate, PoseSE2(0.0, 0.0, 0.0), config, 0.3, 0.3)


class TestPiUpdate:
    def test_zero_error_is_stable(self):
        estimate, integral = (0.0, 0.0), (0.0, 0.0)
        for _ in range(10):
            estimate, integral = pi_update(estimate, integral, (0.0, 0.0), (0.5, 0.1), r0=0.015)
        assert estimate == (0.0, 0.0)

    def test_integral_action_on_constant_bias(self):
        # hand-computed discrete PI response to e = (1 mm, 0):
        # estimates 0.6, 1.3, 2.1 mm after 1..3 updates
        estimate, integral = (0.0, 0.0), (0.0, 0.0)
        expected = [0.0006, 0.0013, 0.0021]
        for n, want in enumerate(expected, start=1):
            estimate, integral = pi_update(estimate, integral, (0.001, 0.0), (0.5, 0.1), r0=0.015)
            assert estimate[0] == pytest.approx(want, rel=1e-12)
            assert integral == (pytest.approx(0.001 * n, rel=1e-12), 0.0)
        assert estimate[1] == 0.0

    def test_estimate_clamped_inside_patch(self):
        estimate, integral = (0.0, 0.0), (0.0, 0.0)
        for _ in range(100):
            estimate, integral = pi_update(estimate, integral, (0.01, 0.0), (0.5, 0.1), r0=0.015)
        assert math.hypot(*estimate) <= 0.95 * 0.015 + 1e-12


class ContractCheckingEnv(PlantEnv):
    """A plant that asserts the primitive contracts on every action: a
    reorient keeps the true finger-in-object pose, and a pulse keeps the
    finger pose."""

    checked = 0

    def reorient(self, target_theta):
        before = self.true_relative_pose()
        super().reorient(target_theta)
        after = self.true_relative_pose()
        assert after.x == pytest.approx(before.x, abs=1e-12)
        assert after.y == pytest.approx(before.y, abs=1e-12)
        assert wrap_angle(after.theta - before.theta) == pytest.approx(0.0, abs=1e-12)
        self.checked += 1

    def pulse(self, n_steps, step_ds):
        before = self.finger_pose()
        super().pulse(n_steps, step_ds)
        assert self.finger_pose() == before
        self.checked += 1


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
        assert pose_error(env.true_relative_pose(), rel0)[0] < 1e-9

    def test_three_stage_plan_converges(self, config):
        problem, rel0 = self._problem()
        env = PlantEnv(state_from_relative(rel0, problem.patch), problem.obj)
        result = plan_and_execute(problem, env, config)
        err_pos, err_angle = pose_error(env.true_relative_pose(), problem.goal_rel)
        assert err_pos < config.r_error
        assert err_angle < config.r_theta_error
        stages = {a.stage for a in result.actions if a.kind == "pulse"}
        assert stages == {1, 2, 3}

    def test_primitive_contracts_on_every_action(self, config):
        problem, rel0 = self._problem()
        env = ContractCheckingEnv(state_from_relative(rel0, problem.patch), problem.obj)
        result = plan_and_execute(problem, env, config)
        assert env.checked > 6
        assert env.n_actions == len(result.actions)

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
        plan_and_execute(problem, env, config)
        # position error after stage 2 vs final: rotation costs at most the
        # configured drift allowance, well under 2 * r_error
        assert pose_error(env.true_relative_pose(), problem.goal_rel)[0] < 2.0 * config.r_error

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

    def test_reachability_credits_the_widest_lever(self):
        # a goal near the stage-3 drift-capability bound
        # goal_ray * sin(g) >= a3^2 |e| / 0.002: at the entry residual both
        # lever sides are feasible, and only the wider lever passes
        config = PlannerConfig(finger_orientation_limits=(-2.6, 2.5))
        obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
        patch = default_patch()
        goal = PoseSE2(0.01, 0.0, 0.0)
        state = state_from_relative(PoseSE2(-0.006, -0.028, -0.2), patch)
        check_reachability(state.finger_pose_w, state.object_pose_w,
                           PlanningProblem(goal, obj, patch), config)
        e = wrap_angle(relative_pose(state.finger_pose_w, state.object_pose_w).theta - goal.theta)
        levers = [g1 for *_, windows in _lever_windows(wrap_angle(goal.theta + e),
                                                       math.atan2(-goal.y, -goal.x), e, config)
                  for _, g1 in windows]
        reach = [math.hypot(goal.x, goal.y) * math.sin(g) for g in (max(levers), min(levers))]
        bound = patch.torque_arm ** 2 * abs(e) / 0.002
        assert reach[0] >= bound > reach[1]

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

    @pytest.mark.parametrize("bad, message", [
        ({"r_theta_error": -1.0}, "r_theta_error must be nonnegative, got -1.0"),
        ({"max_pulse_travel": math.nan}, "max_pulse_travel must be a finite number, got nan"),
        ({"approach_guard": math.inf}, "approach_guard must be a finite number, got inf"),
        ({"r_error": "5"}, "r_error must be a finite number, got '5'"),
        ({"max_pulse_steps": True}, "max_pulse_steps must be an integer, got True"),
        ({"max_actions_per_stage": 20.0}, "max_actions_per_stage must be an integer, got 20.0"),
        ({"pi_gains": (0.5, -0.1)}, "pi_gains must be nonnegative, got (0.5, -0.1)"),
        ({"pi_gains": (0.5,)}, "pi_gains must be a pair of numbers, got (0.5,)"),
        ({"finger_orientation_limits": (-1.0, math.nan)}, "finger_orientation_limits must be a finite"),
        ({"stage3_drift_budget": 0.0}, "stage3_drift_budget must be positive, got 0.0"),
        ({"pressure_uncertainty_floor": 0}, "pressure_uncertainty_floor must be positive, got 0"),
        ({"r_theta_error": 0.0}, "r_theta_error must be positive, got 0.0"),
    ])
    def test_config_rejects_values_it_cannot_run(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PlannerConfig(**bad)


def test_screen_verdicts_pinned(monkeypatch, config):
    # every draw the evaluation's goal sampler screens, over the six plates
    # and a few trial seeds, with its verdict in the sampler's mode (widened
    # margin, capability on) and at plan time (plain config, capability
    # off); the digest pins each verdict and each rejection message
    patch = default_patch()
    plates = [entry["model"] for entry in default_objects()]
    verdicts = []

    def verdict(*args, **kwargs):
        try:
            check_reachability(*args, **kwargs)
            return "ok"
        except OrientationLimitError as exc:
            return str(exc)

    def recording_screen(*args):
        verdicts.append(f"{verdict(*args)} | {verdict(*args[:3], config, capability=False)}")
        check_reachability(*args)

    monkeypatch.setattr(harness, "check_reachability", recording_screen)
    for seed in (0, 3, 11, 21, 100001):
        for index in range(60):
            obj = plates[index // 10]
            rng = _trial_rng(seed, index)
            for _ in range(8):  # the evaluation's grasp redraws
                try:
                    sample_goal(rng, default_initial_rel(obj, rng), obj, patch, config)
                    break
                except RuntimeError:
                    pass
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert (len(verdicts), digest) == (
        4333, "9e58f094446e20df54f546b67b485c1d4f14cc959759b0e137fbed46881942cc")


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
    seen = {"none": 0, "informative": 0, "outside_patch": 0, "dropping_lane": 0}
    r0 = 0.015
    for i in range(300):
        obj = ObjectModel(mass=rng.uniform(0.05, 0.1), extents=(0.09, 0.15),
                          com_offset=(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)))
        # pressure estimates up to near the patch rim, so that part of the
        # +-5 mm candidate grid falls outside the patch and is skipped
        rho, ang = rng.uniform(0.0, 0.0145), rng.uniform(-math.pi, math.pi)
        patch = ContactPatch(r0=r0, c=0.6,
                             pressure_center_offset=(rho * math.cos(ang), rho * math.sin(ang)))
        finger = PoseSE2(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
                         rng.uniform(-1.2, 1.5))
        # the last 60 beliefs hold the contact near a side edge of the
        # footprint, so that some replays drop the object mid-pulse
        cx = rng.uniform(-0.03, 0.03) if i < 240 else rng.choice((-1, 1)) * rng.uniform(0.036, 0.044)
        belief = state_with_contact_at(
            patch, (cx, rng.uniform(-0.055, 0.055)),
            theta_o=finger.theta + rng.uniform(-0.5, 0.5), finger=finger)
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
        offsets = [(patch.pressure_center_offset[0] + math.cos(th) * e,
                    patch.pressure_center_offset[1] - math.sin(th) * e) for e in _ERROR_GRID]
        seen["outside_patch"] += any(math.hypot(*off) >= r0 for off in offsets)
        args = _kernel_args(belief, obj, ds, n_steps)
        for e, (args[6], args[7]) in zip(_ERROR_GRID, offsets):
            if (e != 0.0 and math.hypot(args[6], args[7]) < r0
                    and _backend.rollout_core(*args)[0] == _backend.STATUS_DROPPED):
                seen["dropping_lane"] += 1
                break
    assert min(seen.values()) >= 10, seen


def test_estimator_replays_in_one_grid_call(kernel_spy, monkeypatch):
    real = _backend.rollout_grid
    lanes = []

    def grid_spy(*args):
        lanes.append(len(args[6]))
        return real(*args)

    monkeypatch.setattr(_backend, "rollout_grid", grid_spy)
    obj = ObjectModel(mass=0.09, extents=(0.09, 0.15), com_offset=(0.004, -0.002))
    belief = state_with_contact_at(default_patch(), (0.01, -0.02), theta_o=0.3,
                                   finger=PoseSE2(0.0, 0.0, 0.2))
    predicted = _predict_pulse(belief, obj, 1e-3, 40)
    kernel_spy.clear()
    _pressure_error_from_pulse(belief, obj, 1e-3, 40, predicted,
                               PoseSE2(predicted.x + 0.001, predicted.y, predicted.theta))
    # a centered pressure estimate keeps all 20 nonzero candidates in the patch
    assert lanes == [20]
    assert kernel_spy == []


def _uncapped_size_pulse(state, obj, config, stop_travel=-1.0, stop_rot=-1.0, ds=None):
    """Pulse sizing as first written, rolling out the full max_pulse_steps
    before any governor clips it; kept as the reference."""
    status, n_done, *_ = _backend.rollout_core(*_kernel_args(
        state, obj, ds if ds is not None else config.step_ds, config.max_pulse_steps,
        stop_travel=stop_travel, stop_rot=stop_rot))
    if status == _backend.STATUS_DROPPED:
        n_done = (3 * n_done) // 4
    return max(1, n_done)


def test_size_pulse_cap_matches_clipped_uncapped_sizing():
    rng = random.Random(77)
    seen = collections.Counter()
    for i in range(600):
        obj = ObjectModel(mass=rng.uniform(0.05, 0.1), extents=(0.09, 0.15),
                          com_offset=(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)))
        patch = ContactPatch(r0=0.015, c=0.6, pressure_center_offset=(
            rng.uniform(-0.004, 0.004), rng.uniform(-0.004, 0.004)))
        finger = PoseSE2(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
                         rng.uniform(-1.2, 1.5))
        belief = state_with_contact_at(
            patch, (rng.uniform(-0.04, 0.04), rng.uniform(-0.07, 0.07)),
            theta_o=rng.uniform(-3.1, 3.1), finger=finger)
        config = PlannerConfig(max_pulse_steps=rng.choice((300, 1200)))
        target = ("travel", "rotation", "both")[i % 3]
        stops = {
            "stop_travel": rng.uniform(0.001, 0.03) if target != "rotation" else -1.0,
            "stop_rot": rng.uniform(0.01, 0.5) if target != "travel" else -1.0,
            "ds": rng.choice((None, 2.5e-4)),
        }
        uncapped = _uncapped_size_pulse(belief, obj, config, **stops)
        status, drop_step, *_ = _backend.rollout_core(*_kernel_args(
            belief, obj, stops["ds"] or config.step_ds, config.max_pulse_steps,
            stop_travel=stops["stop_travel"], stop_rot=stops["stop_rot"]))
        bounds = [rng.randint(1, 2 * uncapped + 4), rng.randint(1, 8)]
        if status == _backend.STATUS_DROPPED and drop_step >= 2:
            # a drop at step D with m < D <= 4m/3 sizes to 3D//4 < m, so
            # the capped rollout must still reach D
            bounds += [rng.randint(-(-3 * drop_step // 4), drop_step - 1) for _ in range(2)]
        for m in bounds:
            got = _size_pulse(belief, obj, config, m, **stops)
            assert got == min(max(1, uncapped), m), (i, m, stops)
            seen[target] += 1
            if status == _backend.STATUS_DROPPED and m < drop_step <= 4 * m / 3:
                seen["drop_in_window"] += got < m
            seen["clipped" if got == m < uncapped else "unclipped"] += 1
    assert min(seen.values()) >= 20, seen
