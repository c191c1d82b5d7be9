"""Three-stage closed-loop reconfiguration planner.

The gripper has two primitives: reorient (rotate finger and object
rigidly about the fingertip, no slip) and pulse (hold the gripper still
and vibrate, letting the object slide). Sliding can only carry the
contact along the ray through the object's center of mass, or rotate the
object about the contact when the center of mass hangs off vertical, so
the plan decomposes into three stages:

  1. centering   - put the center of mass straight above the contact and
                   slide the contact onto it
  2. positioning - put the goal point straight above the contact and
                   slide the contact out to it
  3. orientation - give the center of mass a small lever off vertical and
                   use the induced near-rotation to null the angle error

Every iteration is reorient -> pulse -> observe; each pulse's observed
displacement is matched against model replays to estimate the pressure
center error, which a PI loop folds into the planner's contact model --
the dominant unmodeled error source.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

from . import _backend
from ._reference import match_cost
from .contact import ContactPatch, ObjectModel
from .integrator import (
    REST_EPS,
    ContactState,
    TrajectoryPoint,
    _kernel_args,
    _run_kernel,
    com_world,
    pressure_center_world,
)
from .se2 import PoseSE2, compose, invert_point, relative_pose, rotate_pose_about, wrap_angle


def _blend_pose(pred: PoseSE2, obs: PoseSE2, alpha: float) -> PoseSE2:
    """Innovation-adaptive complementary filter on the object pose.

    Smoothing the noisy observations against the model prediction keeps
    single noisy frames from steering whole legs, but the model is only
    trustworthy while its pressure estimate is: when the observation
    disagrees beyond the noise scale, believe the observation.
    """
    inn = math.hypot(obs.x - pred.x, obs.y - pred.y)
    a = min(1.0, alpha + (1.0 - alpha) * inn / 0.004)
    return PoseSE2(
        pred.x + a * (obs.x - pred.x),
        pred.y + a * (obs.y - pred.y),
        pred.theta + a * wrap_angle(obs.theta - pred.theta),
    )


STAGE_NAMES = {1: "centering", 2: "positioning", 3: "orientation"}


class PlanningError(RuntimeError):
    pass


class SingularityError(PlanningError):
    """Finger and aim point (nearly) coincide; the bearing is undefined."""


class OrientationLimitError(PlanningError):
    """A required finger orientation falls outside the allowed range."""


class StageTimeoutError(PlanningError):
    def __init__(self, stage: int, residual: float):
        super().__init__(
            f"stage {stage} ({STAGE_NAMES[stage]}) exceeded its action budget, residual {residual:.4g}")
        self.stage = stage
        self.residual = residual


def is_real(value, integer: bool = False) -> bool:
    """A finite, non-bool real number (an int when integer)."""
    return (not isinstance(value, bool) and isinstance(value, int if integer else (int, float))
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class PlannerConfig:
    r_error: float = 0.005
    r_theta_error: float = 0.0175
    pi_gains: tuple[float, float] = (0.5, 0.1)
    max_actions_per_stage: int = 200
    lever_angle_stage3: float = math.radians(20.0)
    finger_orientation_limits: tuple[float, float] = (-1.2, 1.5)
    step_ds: float = 1e-3
    max_pulse_travel: float = 0.007
    max_pulse_rotation: float = 0.20
    max_pulse_steps: int = 20_000
    stage2_settle: float = 0.4
    stage3_drift_budget: float = 0.0015
    lever_angle_min: float = 0.03
    lever_angle_max: float = 1.2
    stage1_overshoot: float = 0.1
    rotation_guard: float = 0.35
    stage3_travel_guard: float = 0.012
    stage2_swing_budget: float = 0.06
    target_slack: float = 0.25
    reach_margin: float = 0.08
    pressure_uncertainty_prior: float = 0.0025
    pressure_uncertainty_floor: float = 0.0004
    approach_guard: float = 0.0012
    observation_blend: float = 0.4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            pair = f.name in ("pi_gains", "finger_orientation_limits")
            if pair and not (isinstance(value, tuple) and len(value) == 2):
                raise ValueError(f"{f.name} must be a pair of numbers, got {value!r}")
            count = f.name in ("max_actions_per_stage", "max_pulse_steps")
            for v in value if pair else (value,):
                if not is_real(v, count):
                    kind = "an integer" if count else "a finite number"
                    raise ValueError(f"{f.name} must be {kind}, got {value!r}")
                if v < 0 and f.name != "finger_orientation_limits":
                    raise ValueError(f"{f.name} must be nonnegative, got {value!r}")
        # the loop counts these down, steps by them, compares against or divides by them
        for name in ("max_actions_per_stage", "max_pulse_steps", "step_ds", "r_theta_error",
                     "stage3_drift_budget", "pressure_uncertainty_floor"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.r_error <= REST_EPS:
            raise ValueError("r_error must exceed the rest alignment tolerance")
        lo, hi = self.finger_orientation_limits
        if lo >= hi:
            raise ValueError("finger orientation limits must satisfy lo < hi")
        if not 0.0 < self.lever_angle_stage3 < math.pi / 2:
            raise ValueError("stage-3 lever angle must be in (0, pi/2)")


@dataclass(frozen=True)
class PiState:
    """Discrete PI state for the pressure-center estimate (finger frame)."""

    integral: tuple[float, float] = (0.0, 0.0)
    pressure_center_estimate: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class ActionRecord:
    stage: int
    kind: str  # reorient | pulse | observe
    target_theta: float | None = None
    n_steps: int | None = None
    observed_object_pose: PoseSE2 | None = None
    residual: float | None = None


@dataclass
class StageLog:
    iterations: int = 0
    entry_residual: float = 0.0
    exit_residual: float = 0.0


@dataclass
class PlanResult:
    actions: list[ActionRecord]
    trajectory: list[TrajectoryPoint]
    final_error: tuple[float, float]
    stage_logs: dict[int, StageLog]
    final_relative_pose: PoseSE2


@dataclass(frozen=True)
class PlanningProblem:
    """Goal specification handed to plan_and_execute.

    goal_rel is the desired finger pose in the object frame; obj and patch
    are the planner's nominal models of the plant.
    """

    goal_rel: PoseSE2
    obj: ObjectModel
    patch: ContactPatch


def primitive_reorient(state: ContactState, target_theta: float,
                       limits: tuple[float, float] | None = None) -> ContactState:
    """Rotate finger and object together about the fingertip (sticking).

    The relative pose is untouched; only the pair's world orientation
    changes. With limits given, a target outside them raises.
    """
    if limits is not None and not limits[0] <= target_theta <= limits[1]:
        raise OrientationLimitError(
            f"finger orientation {target_theta:.3f} outside limits {limits}")
    dphi = wrap_angle(target_theta - state.finger_pose_w.theta)
    center = state.finger_pose_w.position
    return ContactState(rotate_pose_about(state.finger_pose_w, center, dphi),
                        rotate_pose_about(state.object_pose_w, center, dphi),
                        state.patch)


def _bearing_target(state: ContactState, world_point: tuple[float, float]) -> float:
    """Finger orientation that puts world_point straight above the contact.

    Reorienting rotates every contact-to-point vector by the same angle,
    so the required change is exactly pi/2 minus the current bearing.
    """
    pc = pressure_center_world(state)
    dx, dy = world_point[0] - pc[0], world_point[1] - pc[1]
    if math.hypot(dx, dy) < REST_EPS:
        raise SingularityError("aim point coincides with the contact center")
    bearing = math.atan2(dy, dx)
    return wrap_angle(state.finger_pose_w.theta + (math.pi / 2 - bearing))


def subgoal_centering(state: ContactState, obj: ObjectModel) -> float:
    """Stage-1 subgoal: center of mass straight above the pressure center."""
    return _bearing_target(state, com_world(state.object_pose_w, obj))


def subgoal_positioning(state: ContactState, obj: ObjectModel, goal: PoseSE2) -> float:
    """Stage-2 subgoal: goal point straight above the contact.

    With the contact sitting on the center of mass after stage 1, this is
    the orientation that hangs the center of mass below the goal point;
    the downward slide then carries the contact straight out to the goal.
    Anchoring the bearing at the contact rather than the center of mass
    also recovers from overshoot.
    """
    goal_w = compose(state.object_pose_w, goal)
    f = state.finger_pose_w
    pc = pressure_center_world(state)
    # aim the pressure center at the goal shifted by the finger-to-pressure
    # offset, so the finger (not the contact) lands on the goal
    aim = (goal_w.x + (pc[0] - f.x), goal_w.y + (pc[1] - f.y))
    return _bearing_target(state, aim)


def pi_update(pi: PiState, observed_error: tuple[float, float],
              gains: tuple[float, float], r0: float) -> PiState:
    """One discrete PI step on the pressure-center estimate.

    The integral accumulates first, then the estimate moves by
    kp*e + ki*integral, clamped to stay inside the patch.
    """
    kp, ki = gains
    ix = pi.integral[0] + observed_error[0]
    iy = pi.integral[1] + observed_error[1]
    ex = pi.pressure_center_estimate[0] + kp * observed_error[0] + ki * ix
    ey = pi.pressure_center_estimate[1] + kp * observed_error[1] + ki * iy
    cap = 0.95 * r0
    n = math.hypot(ex, ey)
    if n > cap:
        ex, ey = ex * cap / n, ey * cap / n
    return PiState(integral=(ix, iy), pressure_center_estimate=(ex, ey))


# ---------------------------------------------------------------------------
# plan execution


def _predict_pulse(state: ContactState, obj: ObjectModel, ds: float, n_steps: int) -> PoseSE2:
    """Model rollout used as the PI reference for a commanded pulse."""
    _, _, ox, oy, oth, _ = _run_kernel(state, obj, ds, n_steps)
    return PoseSE2(ox, oy, oth)


_ERROR_GRID = [0.0005 * i for i in range(-10, 11)]
# observation scales that weight position against angle in the fit
_SIGMA_POS = 0.0015
_SIGMA_THETA = 0.013


def _pressure_error_from_pulse(belief: ContactState, obj: ObjectModel, ds: float,
                               n_steps: int, predicted: PoseSE2,
                               observed: PoseSE2) -> float | None:
    """World-x pressure-center error that best explains one pulse.

    Replays the pulse through the model over a grid of candidate errors
    and picks the one whose predicted object displacement matches the
    observation. Matching the displacement rather than inverting the
    rotation matters: the twist saturates near pure rotation, where the
    telltale signature of a wrong pressure center is the object barely
    moving at all. Returns None for uninformative pulses.

    The zero-error candidate is the caller's own prediction. Every other
    candidate whose pressure center stays inside the patch is one lane of
    a single _backend.rollout_grid call, which scores each replay with
    the same match_cost. There is no sub-grid refinement: the float grid
    keys are not evenly spaced, so no best candidate ever has both
    neighbors at exactly one grid step. Candidates are keyed by their
    grid index, so the rivals two grid steps either side are looked up.
    """
    th = belief.finger_pose_w.theta
    ex_f, ey_f = math.cos(th), -math.sin(th)
    pdx, pdy = belief.patch.pressure_center_offset
    r0 = belief.patch.r0
    costs = {}
    offsets = []
    for i, err in enumerate(_ERROR_GRID):
        if err == 0.0:
            costs[i] = match_cost(predicted.x, predicted.y, predicted.theta, observed.x,
                                  observed.y, observed.theta, _SIGMA_POS, _SIGMA_THETA)
            continue
        off = (pdx + ex_f * err, pdy + ey_f * err)
        if math.hypot(*off) < r0:
            costs[i] = None  # filled in grid order from the replays below
            offsets.append(off)
    # the replays differ from the belief's rollout only in the
    # pressure-center offset, kernel arguments 6 and 7
    args = _kernel_args(belief, obj, ds, n_steps)
    replays = iter(_backend.rollout_grid(*args[:6], offsets, *args[8:17], observed.x,
                                         observed.y, observed.theta, _SIGMA_POS, _SIGMA_THETA))
    for i in costs:
        if costs[i] is None:
            costs[i] = next(replays)
    best = min(costs, key=costs.get)
    best_cost = costs[best]
    # confidence from how sharply the fit localizes the error: compare the
    # best candidate against its 1 mm neighborhood; a flat valley means the
    # pulse was noise-dominated and should barely move the estimate
    rivals = [costs[i] for i in (best - 2, best + 2) if i in costs]
    if not rivals:
        return None
    localization = min(rivals) - best_cost
    weight = min(1.0, localization / 4.0)
    if weight < 0.1:
        return None
    return weight * _ERROR_GRID[best]


def _size_pulse(state: ContactState, obj: ObjectModel, config: PlannerConfig,
                max_steps: int, stop_travel: float = -1.0, stop_rot: float = -1.0,
                ds: float | None = None) -> int:
    """Pulse duration (step count) from a model rollout with stop targets.

    Sizing by rollout rather than by the instantaneous twist matters: a
    slide can switch between near-rotational and translational character
    mid-pulse, changing its per-step advance by orders of magnitude. If
    the model predicts a drop, back off to three quarters of the
    predicted drop step.

    The result never exceeds max_steps (at least 1), the caller's
    travel/rotation governor, so the rollout stops at 4*max_steps//3 + 2
    steps. That loses nothing: a shorter rollout is a prefix of the
    longer one, so any stop inside the bound is unchanged; a rollout
    that runs past the bound sizes to more than max_steps either way,
    since a drop at step D > 4*max_steps//3 + 2 backs off to
    3*D//4 > max_steps.
    """
    max_steps = max(1, max_steps)
    status, n_done, *_ = _run_kernel(state, obj, ds if ds is not None else config.step_ds,
                                     min(config.max_pulse_steps, 4 * max_steps // 3 + 2),
                                     stop_travel=stop_travel, stop_rot=stop_rot)
    if status == _backend.STATUS_DROPPED:
        n_done = (3 * n_done) // 4
    return min(max(1, n_done), max_steps)


def _in_limits(theta: float, limits: tuple[float, float]) -> bool:
    return limits[0] <= theta <= limits[1]


def _clamp_target(target: float, limits: tuple[float, float], slack: float,
                  what: str) -> float:
    """Clamp a slightly out-of-window subgoal onto the window edge.

    The settling swings of stage 2 can transiently push the ideal aim a
    little past a joint limit; aiming from the edge still makes progress
    and the feedback loop re-aims every pulse. Beyond `slack` the plan is
    genuinely infeasible.
    """
    if _in_limits(target, limits):
        return target
    edge = limits[0] if target < limits[0] else limits[1]
    if abs(wrap_angle(target - edge)) <= slack:
        return edge
    raise OrientationLimitError(
        f"{what} needs finger orientation {target:.3f} outside limits {limits}")


def _lever(state: ContactState, obj: ObjectModel) -> tuple[float, float]:
    """World vector from the pressure center to the center of mass."""
    pc = pressure_center_world(state)
    com = com_world(state.object_pose_w, obj)
    return com[0] - pc[0], com[1] - pc[1]


def _goal_met(rel: PoseSE2, goal: PoseSE2, config: PlannerConfig) -> bool:
    """The relative pose rel lies within both contract radii of goal."""
    return (math.hypot(rel.x - goal.x, rel.y - goal.y) < config.r_error
            and abs(wrap_angle(rel.theta - goal.theta)) < config.r_theta_error)


def _lever_windows(theta: float, bearing: float, e_theta: float, config: PlannerConfig):
    """Yield (side, t0, slope, windows) for the below and above levers.

    Stage 3 hangs the center of mass a lever angle gamma off vertical,
    below or above the contact, on the side whose induced rotation
    shrinks the orientation error e_theta. With the finger at theta and
    the center of mass at world bearing `bearing` from the contact, that
    needs the finger orientation wrap(t0 + slope*gamma). The target is
    linear in gamma, so the orientation window maps to gamma intervals:
    windows lists each (g0, g1) within [lever_angle_min, lever_angle_max]
    whose targets stay inside the finger orientation limits.
    """
    lo, hi = config.finger_orientation_limits
    s = 1.0 if e_theta >= 0.0 else -1.0
    for side, base, slope in (("below", -math.pi / 2, -s), ("above", math.pi / 2, s)):
        t0 = wrap_angle(theta + (base - bearing))
        windows = []
        for k in (-1, 0, 1):
            a = (lo - t0 + 2.0 * math.pi * k) / slope
            b = (hi - t0 + 2.0 * math.pi * k) / slope
            g0, g1 = (a, b) if a <= b else (b, a)
            g0, g1 = max(g0, config.lever_angle_min), min(g1, config.lever_angle_max)
            if g0 <= g1:
                windows.append((g0, g1))
        yield side, t0, slope, windows


def _stage3_candidates(state: ContactState, obj: ObjectModel, e_theta: float,
                       config: PlannerConfig, e_ref: float) -> dict[str, tuple[float, float]]:
    """Feasible lever placements per side: side -> (target_theta, gamma).

    Below decays toward alignment and above runs away from it, but their
    translation drifts point opposite ways. Within a feasible interval of
    _lever_windows the lever angle is pushed toward the value that keeps
    the remaining rotation's translation drift inside the budget (drift
    per radian is a3^2/|x_c|, so bigger levers drift less), but never
    below the configured default when that fits.
    """
    dx, dy = _lever(state, obj)
    d = math.hypot(dx, dy)
    if d < REST_EPS:
        raise SingularityError("no gravity lever: center of mass sits on the contact")
    a3 = state.patch.torque_arm
    # amortize the drift budget over the whole stage: the lever that keeps
    # the total stage rotation within budget is sized from the entry
    # residual, not the remaining one
    want = a3 * a3 * abs(e_ref) / (d * config.stage3_drift_budget)
    gamma_want = max(config.lever_angle_stage3,
                     math.asin(min(1.0, want)))
    out = {}
    for side, t0, slope, windows in _lever_windows(state.finger_pose_w.theta,
                                                   math.atan2(dy, dx), e_theta, config):
        best = None
        for g0, g1 in windows:
            g = min(max(gamma_want, g0), g1)
            if best is None or abs(g - gamma_want) < abs(best - gamma_want):
                best = g
        if best is not None:
            out[side] = (wrap_angle(t0 + slope * best), best)
    return out


def _stage3_target(belief: ContactState, obj: ObjectModel, goal: PoseSE2,
                   config: PlannerConfig, e_theta: float,
                   e_ref: float) -> tuple[float, float, str]:
    """Pick the stage-3 lever placement.

    Among the feasible below/above placements, prefer one that meets the
    drift budget; break ties by aiming the slide drift (world-up at the
    contact, seen in the object frame) back toward the goal point.
    """
    candidates = _stage3_candidates(belief, obj, e_theta, config, e_ref)
    if not candidates:
        raise OrientationLimitError(
            "stage 3 lever placements all violate the finger orientation limits")
    d = math.hypot(*_lever(belief, obj))
    a3 = belief.patch.torque_arm
    want_xc = a3 * a3 * abs(e_ref) / config.stage3_drift_budget

    rel_f = invert_point(belief.object_pose_w, belief.finger_pose_w.position)
    to_goal = (goal.x - rel_f[0], goal.y - rel_f[1])

    def score(side: str) -> tuple:
        t, gamma = candidates[side]
        meets_budget = d * math.sin(gamma) >= want_xc
        th_obj = belief.object_pose_w.theta + (t - belief.finger_pose_w.theta)
        aim = math.sin(th_obj) * to_goal[0] + math.cos(th_obj) * to_goal[1]
        return (meets_budget, aim, math.sin(gamma) * d)

    side = max(candidates, key=score)
    t, gamma = candidates[side]
    return t, gamma, side


def check_reachability(finger_pose: PoseSE2, object_pose: PoseSE2,
                       problem: PlanningProblem, config: PlannerConfig,
                       capability: bool = True) -> None:
    """Up-front finger-orientation screen for all three stages.

    Mirrors the goal filtering used when sampling evaluation goals:
    any subgoal that needs an orientation outside the limits rejects the
    goal before execution. The screen is geometric and approximate (it
    assumes the relative orientation only changes in stage 3).
    """
    limits = config.finger_orientation_limits
    window = (limits[0] + config.reach_margin, limits[1] - config.reach_margin)
    obj = problem.obj
    goal = problem.goal_rel
    rel = relative_pose(finger_pose, object_pose)
    belief = ContactState(finger_pose, object_pose, problem.patch)

    # a goal that is already met needs no motion at all
    if _goal_met(rel, goal, config):
        return

    if math.hypot(*_lever(belief, obj)) >= config.r_error:
        t1 = subgoal_centering(belief, obj)
        if not _in_limits(t1, window):
            raise OrientationLimitError(
                f"centering needs finger orientation {t1:.3f} outside limits {limits}")

    # stage 1 arrives at the center of mass along the grasp ray and exits a
    # small overshoot past it; stage 2 climbs out along the goal ray. The
    # overshoot leaves the center of mass a lateral p = ovs*sin(psi) off
    # the climb line (psi = dog-leg angle between the rays), and hanging
    # settle converts every meter of climb into p/a3^2 of relative
    # rotation. That drift marches the required finger orientation over
    # stage 2 and shifts the stage-3 entry orientation.
    contact0 = invert_point(object_pose, finger_pose.position)
    u1 = math.atan2(obj.com_offset[1] - contact0[1], obj.com_offset[0] - contact0[0])
    goal_ray = math.hypot(goal.x - obj.com_offset[0], goal.y - obj.com_offset[1])
    a3 = problem.patch.torque_arm
    drift = 0.0
    if goal_ray > max(REST_EPS, 1e-4):
        u2 = math.atan2(goal.y - obj.com_offset[1], goal.x - obj.com_offset[0])
        psi = wrap_angle(u2 - u1)
        ovs = (config.stage1_overshoot * config.r_error
               + 0.25 * config.step_ds / (obj.mass * obj.gravity) ** 2)
        climb = goal_ray + 4.0 * ovs
        drift = -1.5 * ovs * math.sin(psi) * climb / (a3 * a3)
        t2 = wrap_angle(math.pi / 2 - u2 + rel.theta)
        for t in (t2, wrap_angle(t2 + drift), wrap_angle(t2 + 0.5 * drift)):
            if not _in_limits(t, window):
                raise OrientationLimitError(
                    f"positioning needs finger orientation {t:.3f} outside limits {limits}")

    # stage 3 estimate: contact on the goal point; sweep the relative theta
    # from its settle-shifted entry value to the goal and require one
    # feasible lever (world bearing of com from contact is b3 + theta_o,
    # theta_e = theta_o + rel_th)
    b3 = math.atan2(obj.com_offset[1] - goal.y, obj.com_offset[0] - goal.x)
    e0 = wrap_angle(rel.theta + drift - goal.theta)

    # sweep entry residuals across the drift uncertainty (from no settle
    # drift at all up to the padded estimate), shrinking toward zero
    e0_raw = wrap_angle(rel.theta - goal.theta)
    e0_mid = wrap_angle(rel.theta + drift / 1.5 - goal.theta)
    residuals = []
    capability_residuals = {abs(e0_mid), abs(e0_raw)}
    for e_entry in (e0, e0_mid, e0_raw):
        residuals += [e_entry * (1.0 - f) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    if min(abs(e) for e in (e0, e0_mid, e0_raw)) < 0.12:
        # small entry rotations can flip sign under the settling swings of
        # stage 2, so require a workable lever from either direction
        residuals += [0.1, -0.1]
    for e in residuals:
        if abs(e) < config.r_theta_error:
            continue
        # the widest feasible lever on either side
        g = max((g1 for *_, windows in _lever_windows(wrap_angle(goal.theta + e), b3, e, config)
                 for _, g1 in windows), default=None)
        if g is None:
            raise OrientationLimitError(
                f"orientation stage has no feasible lever at residual {e:.3f} rad")
        # capability: the best reachable lever must keep the total stage-3
        # translation drift (a3^2/x_c per radian) inside a loose allowance;
        # judged only at the realistic entry residuals, not the padded sweep
        if (capability and abs(e) in capability_residuals and goal_ray > REST_EPS
                and goal_ray * math.sin(g) < a3 * a3 * abs(e) / 0.002):
            raise OrientationLimitError(
                f"orientation stage drift would exceed budget (residual {e:.3f} rad, "
                f"lever {goal_ray * 1000:.1f} mm)")


def plan_and_execute(scenario: PlanningProblem, env, config: PlannerConfig | None = None) -> PlanResult:
    """Run the three-stage loop against an environment.

    The environment owns the true plant; the planner only sees the exact
    finger pose, noisy object observations, and its own nominal models.
    Environment contract: finger_pose() -> PoseSE2, observe() -> PoseSE2,
    true_object_pose() -> PoseSE2 (read only to report the final error),
    reorient(target_theta), and pulse(n_steps, step_ds) -> trajectory
    points (an empty list when the env does not record; the plan's
    trajectory is then empty too).
    """
    config = config or PlannerConfig()
    obj, goal, nominal = scenario.obj, scenario.goal_rel, scenario.patch
    actions: list[ActionRecord] = []
    trajectory: list[TrajectoryPoint] = []
    stage_logs: dict[int, StageLog] = {}
    pi = PiState(pressure_center_estimate=nominal.pressure_center_offset)

    obs = env.observe()
    actions.append(ActionRecord(stage=0, kind="observe", observed_object_pose=obs))
    check_reachability(env.finger_pose(), obs, scenario, config, capability=False)

    def _final_result() -> PlanResult:
        rel = relative_pose(env.finger_pose(), env.true_object_pose())
        return PlanResult(
            actions=actions,
            trajectory=trajectory,
            final_error=(math.hypot(rel.x - goal.x, rel.y - goal.y),
                         abs(wrap_angle(rel.theta - goal.theta))),
            stage_logs=stage_logs,
            final_relative_pose=rel,
        )

    # a goal already satisfied within both radii needs no actions at all
    if _goal_met(relative_pose(env.finger_pose(), obs), goal, config):
        return _final_result()

    # distrust of the pressure-center estimate, shrunk by consistent pulse
    # observations; it caps slide lengths so an unlearned bias cannot
    # convert a long climb into a large unintended rotation
    bias_unc = config.pressure_uncertainty_prior
    # travel/rotation governor: if the pressure estimate is off, the plant
    # can advance at the full translational rate (step scale k_max) even
    # when the model expects a slow near-rotational crawl; never command
    # more steps than the intended travel, or 1.5x the intended rotation,
    # at top speed
    k_max = 1.0 / obj.weight ** 2

    # the planner's patch: the nominal one at the current pressure estimate
    belief_patch = replace(nominal, pressure_center_offset=pi.pressure_center_estimate)

    def belief_state() -> ContactState:
        return ContactState(env.finger_pose(), obs, belief_patch)

    def residual(stage: int, belief: ContactState) -> float:
        if stage == 1:
            return math.hypot(*_lever(belief, obj))
        if stage == 2:
            goal_w = compose(belief.object_pose_w, goal)
            f = belief.finger_pose_w
            return math.hypot(goal_w.x - f.x, goal_w.y - f.y)
        rel = relative_pose(belief.finger_pose_w, belief.object_pose_w)
        return abs(wrap_angle(rel.theta - goal.theta))

    def stage_done(stage: int, belief: ContactState) -> bool:
        if stage == 1:
            if residual(2, belief) < config.stage2_settle * config.r_error:
                # nothing to center when the finger already sits at the goal
                return True
            if residual(1, belief) >= config.r_error:
                return False
            # require the pass through the center of mass: exiting on the
            # stable side (center of mass below the contact) keeps the
            # stage-2 lateral bias at the overshoot scale. A hair above
            # also counts, or the re-aim would sit on the singularity.
            com = com_world(belief.object_pose_w, obj)
            return com[1] < pressure_center_world(belief)[1] + 0.05 * config.r_error
        if stage == 2:
            return residual(2, belief) < config.stage2_settle * config.r_error
        return residual(3, belief) < config.r_theta_error

    for stage in (1, 2, 3):
        pi = replace(pi, integral=(0.0, 0.0))
        log = StageLog(entry_residual=residual(stage, belief_state()))
        stage_logs[stage] = log
        best_res, best_iter = math.inf, 0
        while True:
            belief = belief_state()
            res_now = residual(stage, belief)
            if res_now < best_res - 1e-5:
                best_res, best_iter = res_now, log.iterations
            if stage_done(stage, belief):
                break
            if (stage in (1, 2) and res_now < config.r_error
                    and log.iterations - best_iter > 10):
                # progress has stalled inside the contract radius; the
                # tightened settle target is opportunistic, not required
                break
            if log.iterations >= config.max_actions_per_stage:
                raise StageTimeoutError(stage, res_now)

            # choose the subgoal orientation and pulse size from the belief
            if stage in (1, 2):
                try:
                    aim = (subgoal_centering(belief, obj) if stage == 1
                           else subgoal_positioning(belief, obj, goal))
                    target = _clamp_target(aim, config.finger_orientation_limits,
                                           config.target_slack, STAGE_NAMES[stage])
                except OrientationLimitError:
                    # an unclampable flip of the aim means the contact ended
                    # up past the stage's anchor point; settle for the
                    # contract radius instead of the tightened one
                    if residual(stage, belief) < config.r_error:
                        break
                    raise
            else:
                target, gamma, lever_side = _stage3_target(
                    belief, obj, goal, config,
                    wrap_angle(relative_pose(
                        belief.finger_pose_w, belief.object_pose_w).theta - goal.theta),
                    e_ref=log.entry_residual)

            env.reorient(target)
            actions.append(ActionRecord(stage=stage, kind="reorient", target_theta=target))
            dphi = wrap_angle(target - belief.finger_pose_w.theta)
            obs = rotate_pose_about(obs, belief.finger_pose_w.position, dphi)
            belief = belief_state()

            ds_pulse = config.step_ds
            if stage in (1, 2):
                a3n = nominal.torque_arm
                unc_cap = max(0.002, config.stage2_swing_budget * a3n * a3n / bias_unc)
                if stage == 1:
                    # slide a bit past the center of mass: ending on the
                    # stable side (center of mass below the contact) keeps
                    # the stage-2 settling swing small and decaying
                    travel = min(residual(1, belief) + config.stage1_overshoot * config.r_error,
                                 config.max_pulse_travel, unc_cap)
                else:
                    # undershoot on purpose: overshooting past the goal leaves
                    # it hanging below the contact, where no in-window
                    # orientation can slide back
                    guard = 0.5 * bias_unc + config.approach_guard
                    travel = min(max(residual(2, belief) - guard, 0.5 * guard),
                                 config.max_pulse_travel, unc_cap)
                if travel < 2.5 * config.r_error:
                    # finer arc steps on the last leg: the landing quantum is
                    # one step of ds*k, which would otherwise dwarf the
                    # intended overshoot
                    ds_pulse = 0.25 * config.step_ds
                if stage == 2:
                    # sliding with the center of mass off the climb axis
                    # settles it back under the contact, wasting relative
                    # rotation; keep each leg short enough that the settle
                    # stays inside budget
                    dx, dy = _lever(belief, obj)
                    mism = abs(wrap_angle(math.atan2(dy, dx) + math.pi / 2))
                    waste_rate = math.hypot(dx, dy) * math.sin(min(mism, math.pi / 2))
                    if waste_rate > 1e-9:
                        travel = max(min(travel, config.stage2_swing_budget
                                         * belief.patch.torque_arm ** 2 / waste_rate),
                                     0.001)
                n_steps = _size_pulse(belief, obj, config,
                                      round(travel / (ds_pulse * k_max)),
                                      stop_travel=travel, stop_rot=config.rotation_guard,
                                      ds=ds_pulse)
            else:
                e = residual(3, belief)
                dtheta = min(0.8 * e, config.max_pulse_rotation)
                if lever_side == "below":
                    # a below-vertical lever decays toward alignment, so a
                    # pulse cannot deliver more than the lever angle itself
                    dtheta = min(dtheta, 0.6 * gamma)
                n_steps = _size_pulse(belief, obj, config,
                                      round(1.5 * dtheta / (config.step_ds * k_max)),
                                      stop_rot=dtheta, stop_travel=config.stage3_travel_guard)

            predicted = _predict_pulse(belief, obj, ds_pulse, n_steps)
            points = env.pulse(n_steps, ds_pulse)
            trajectory.extend(points)
            actions.append(ActionRecord(stage=stage, kind="pulse", n_steps=n_steps))

            new_obs = env.observe()
            filtered = _blend_pose(predicted, new_obs, config.observation_blend)
            actions.append(ActionRecord(
                stage=stage, kind="observe", observed_object_pose=new_obs,
                residual=residual(stage, ContactState(
                    belief.finger_pose_w, filtered, belief.patch))))

            ex_world = _pressure_error_from_pulse(belief, obj, ds_pulse, n_steps,
                                                  predicted, new_obs)
            if ex_world is not None:
                th = belief.finger_pose_w.theta
                e_finger = (math.cos(th) * ex_world, -math.sin(th) * ex_world)
                pi = pi_update(pi, e_finger, config.pi_gains, nominal.r0)
                belief_patch = replace(nominal, pressure_center_offset=pi.pressure_center_estimate)
                bias_unc = max(config.pressure_uncertainty_floor,
                               0.5 * bias_unc + 0.5 * min(abs(ex_world),
                                                          config.pressure_uncertainty_prior))

            obs = filtered
            log.iterations += 1
        log.exit_residual = residual(stage, belief_state())

    return _final_result()
