"""Monte-Carlo evaluation harness.

Separates the true plant from the planner's model: each trial perturbs
the plant's contact parameters (pressure-center bias, patch radius
jitter) while the planner only ever sees nominal values plus its own PI
estimate, and observations of the object pose carry Gaussian noise. That
reproduces the dominant real-world error sources of a camera-tracked
gripper rig without simulating the rig itself.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field, replace

from .contact import ContactPatch, ObjectModel
from .integrator import ContactState, ObjectDroppedError, PulseSpec, vibration_pulse
from .planner import (
    OrientationLimitError,
    PlannerConfig,
    PlanningError,
    PlanningProblem,
    _goal_met,
    check_reachability,
    plan_and_execute,
    pose_error,
    primitive_reorient,
)
from .se2 import PoseSE2, compose, inverse, relative_pose, wrap_angle


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian observation noise on object poses."""

    pos_sigma: float = 0.001
    angle_sigma: float = 0.0087
    seed: int = 0

    def __post_init__(self):
        if self.pos_sigma < 0.0 or self.angle_sigma < 0.0:
            raise ValueError("noise sigmas must be nonnegative")

    def rng(self) -> random.Random:
        return random.Random(self.seed)


@dataclass(frozen=True)
class PerturbationModel:
    """Per-trial plant perturbation of the contact patch.

    pressure_bias_sigma draws a Gaussian pressure-center offset per axis;
    pressure_bias_fixed instead displaces the pressure center by exactly
    that magnitude in a random direction. Both can be combined with
    radius jitter; the perturbed radius never collapses.
    """

    pressure_bias_sigma: float = 0.0
    radius_jitter_sigma: float = 0.0
    pressure_bias_fixed: float = 0.0

    def __post_init__(self):
        for name in ("pressure_bias_sigma", "radius_jitter_sigma", "pressure_bias_fixed"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")

    def apply(self, patch: ContactPatch, rng: random.Random) -> ContactPatch:
        r0 = patch.r0 + rng.gauss(0.0, self.radius_jitter_sigma)
        r0 = max(r0, 0.25 * patch.r0)
        bx, by = patch.pressure_center_offset
        if self.pressure_bias_fixed > 0.0:
            ang = rng.uniform(-math.pi, math.pi)
            bx += self.pressure_bias_fixed * math.cos(ang)
            by += self.pressure_bias_fixed * math.sin(ang)
        if self.pressure_bias_sigma > 0.0:
            bx += rng.gauss(0.0, self.pressure_bias_sigma)
            by += rng.gauss(0.0, self.pressure_bias_sigma)
        n = math.hypot(bx, by)
        cap = 0.9 * r0
        if n > cap:
            bx, by = bx * cap / n, by * cap / n
        return ContactPatch(r0=r0, c=patch.c, pressure_center_offset=(bx, by))


def observe(true_pose: PoseSE2, noise: NoiseModel, rng: random.Random) -> PoseSE2:
    """Noisy pose observation; angle re-wrapped."""
    return PoseSE2(
        true_pose.x + rng.gauss(0.0, noise.pos_sigma),
        true_pose.y + rng.gauss(0.0, noise.pos_sigma),
        wrap_angle(true_pose.theta + rng.gauss(0.0, noise.angle_sigma)),
    )


class PlantEnv:
    """True plant driven by planner actions; meets plan_and_execute's
    environment contract.

    Holds the true state (with the possibly perturbed patch), enforces the
    finger orientation limits like the robot would (by default the
    PlannerConfig window) and serves noisy observations. n_actions counts
    the observe, reorient and pulse calls that completed, one per action a
    plan logs.

    The truth stays here, for the env's owner: true_relative_pose() to
    score the outcome, and points, the per-step trajectory of every pulse
    in order, which stays empty unless the env was built with record=True.
    """

    def __init__(self, state: ContactState, obj: ObjectModel,
                 noise: NoiseModel | None = None, rng: random.Random | None = None,
                 orientation_limits: tuple[float, float] = PlannerConfig.finger_orientation_limits,
                 record: bool = False):
        self.state = state
        self.obj = obj
        self.noise = noise
        self.rng = rng if rng is not None else (noise.rng() if noise else random.Random(0))
        self.orientation_limits = orientation_limits
        self.record = record
        self.points = []
        self.n_actions = 0

    def finger_pose(self) -> PoseSE2:
        return self.state.finger_pose_w

    def observe(self) -> PoseSE2:
        self.n_actions += 1
        true = self.state.object_pose_w
        if self.noise is None or (self.noise.pos_sigma == 0.0 and self.noise.angle_sigma == 0.0):
            return true
        return observe(true, self.noise, self.rng)

    def true_relative_pose(self) -> PoseSE2:
        return relative_pose(self.state.finger_pose_w, self.state.object_pose_w)

    def reorient(self, target_theta: float) -> None:
        self.state = primitive_reorient(self.state, target_theta, self.orientation_limits)
        self.n_actions += 1

    def pulse(self, n_steps: int, step_ds: float) -> None:
        self.state, points = vibration_pulse(self.state, self.obj, PulseSpec(step_ds, n_steps),
                                             record=self.record)
        self.points += points
        self.n_actions += 1


# ---------------------------------------------------------------------------
# trial construction


def default_objects() -> list[dict]:
    """The six benchmark plates (name, surface, model)."""
    specs = [
        ("object1", "acrylic", 0.090, 0.150, 0.090),
        ("object2", "acrylic", 0.090, 0.120, 0.071),
        ("object3", "acrylic", 0.080, 0.150, 0.079),
        ("object4", "paper", 0.080, 0.150, 0.085),
        ("object5", "pla", 0.090, 0.150, 0.092),
        ("object6", "acrylic", 0.050, 0.160, 0.053),
    ]
    return [
        {"name": n, "surface": s,
         "model": ObjectModel(mass=m, extents=(w, h))}
        for n, s, w, h, m in specs
    ]


def default_patch() -> ContactPatch:
    return ContactPatch(r0=0.015, c=0.6)


def default_initial_rel(obj: ObjectModel, rng: random.Random) -> PoseSE2:
    """A plausible starting grasp: contact a little below the center of mass.

    Grasping under the center keeps the stage-1 reorient inside the
    finger orientation window for an initial finger angle near zero, and
    staying close to the center keeps sampled goals inside the reachable
    cone above it.
    """
    hx, hy = obj.extents[0] / 2.0, obj.extents[1] / 2.0
    return PoseSE2(rng.uniform(-0.2, 0.2) * hx,
                   -rng.uniform(0.18, 0.4) * hy,
                   rng.uniform(-0.12, 0.12))


def state_from_relative(rel: PoseSE2, patch: ContactPatch,
                        finger_world: PoseSE2 = PoseSE2(0.0, 0.0, 0.0)) -> ContactState:
    """Build a world state realizing a given finger-in-object pose."""
    object_pose = compose(finger_world, inverse(rel))
    return ContactState(finger_world, object_pose, patch)


# the evaluation protocol's goal sampling: translation disk radius,
# rotation range, minimum gravity lever and draws before giving up
GOAL_MAX_TRANSLATION = 0.05
GOAL_MAX_ROTATION = math.radians(60.0)
GOAL_LEVER_MIN = 0.012
GOAL_MAX_TRIES = 400


def sample_goal(rng: random.Random, initial_rel: PoseSE2, obj: ObjectModel,
                patch: ContactPatch, config: PlannerConfig) -> PoseSE2:
    """Sample a feasible relative goal pose near the initial grasp.

    Goals are uniform within GOAL_MAX_TRANSLATION of the grasp and
    GOAL_MAX_ROTATION of its angle, then filtered the way the evaluation
    protocol filters them: the goal contact must stay on the object
    (patch-radius margin), a goal already met at the grasp is redrawn,
    goals that need an orientation change keep GOAL_LEVER_MIN of gravity
    lever from the center of mass, and every stage's required finger
    orientation must fall inside the allowed window. After GOAL_MAX_TRIES
    rejected draws it raises RuntimeError.
    """
    hx, hy = obj.extents[0] / 2.0, obj.extents[1] / 2.0
    margin = patch.r0 + 0.003
    state = state_from_relative(initial_rel, patch)
    # screen with extra orientation margin: the planner re-checks from a
    # noisy initial observation, so borderline goals would flip on it
    screen_config = replace(config, reach_margin=config.reach_margin + 0.06)
    for _ in range(GOAL_MAX_TRIES):
        r = GOAL_MAX_TRANSLATION * math.sqrt(rng.random())
        phi = rng.uniform(-math.pi, math.pi)
        dth = rng.uniform(-GOAL_MAX_ROTATION, GOAL_MAX_ROTATION)
        goal = PoseSE2(initial_rel.x + r * math.cos(phi),
                       initial_rel.y + r * math.sin(phi),
                       initial_rel.theta + dth)
        if abs(goal.x) > hx - margin or abs(goal.y) > hy - margin:
            continue
        # trivial goals (already satisfied at the grasp) test nothing
        if _goal_met(goal, initial_rel, config):
            continue
        lever = math.hypot(goal.x - obj.com_offset[0], goal.y - obj.com_offset[1])
        if (abs(wrap_angle(goal.theta - initial_rel.theta)) > config.r_theta_error
                and lever < GOAL_LEVER_MIN):
            continue
        try:
            check_reachability(state.finger_pose_w, state.object_pose_w,
                               PlanningProblem(goal, obj, patch), screen_config)
        except OrientationLimitError:
            continue
        return goal
    raise RuntimeError("no feasible goal found; loosen the sampling constraints")


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    object_name: str
    goal: PoseSE2
    success: bool
    err_pos: float
    err_angle: float
    n_actions: int
    failure: str | None = None


@dataclass(frozen=True)
class MetricsReport:
    rmse_pos: float
    rmse_angle: float
    rel_error_pct: float
    success_rate: float
    n_trials: int
    trials: tuple[TrialRecord, ...]
    per_object: dict = field(default_factory=dict)


def float_sum(values) -> float:
    """The left-to-right float sum. sum() compensates its rounding from
    Python 3.12 on, so a seeded report summed with it would not keep its
    bytes across the supported versions."""
    return functools.reduce(operator.add, values, 0.0)


def _rmse(values) -> float:
    vals = list(values)
    if not vals:
        return 0.0
    return math.sqrt(float_sum(v * v for v in vals) / len(vals))


def _summarize(trials: list[TrialRecord], ref_length: float) -> dict:
    ok = [t for t in trials if t.success]
    rmse_pos = _rmse(t.err_pos for t in ok)
    return {
        "rmse_pos": rmse_pos,
        "rmse_angle": _rmse(t.err_angle for t in ok),
        "rel_error_pct": 100.0 * rmse_pos / ref_length if ref_length > 0 else 0.0,
        "success_rate": len(ok) / len(trials) if trials else 0.0,
        "n_trials": len(trials),
    }


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def run_single_pulse_eval(n_trials: int, ds: float = 1e-3, n_steps: int = 25,
                          noise: NoiseModel | None = None,
                          perturb: PerturbationModel | None = None,
                          seed: int = 0) -> MetricsReport:
    """Single-action prediction error, the simulated analogue of a
    model-evaluation table: roll the perturbed plant through one pulse and
    compare against the nominal-model prediction of the same pulse, on the
    first benchmark plate with the default patch.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    obj = default_objects()[0]["model"]
    patch = default_patch()
    noise = noise or NoiseModel(0.0, 0.0)
    perturb = perturb or PerturbationModel()
    hx, hy = obj.extents[0] / 2.0, obj.extents[1] / 2.0
    trials = []
    for i in range(n_trials):
        rng = _trial_rng(seed, i)
        # random grasp point well inside the footprint, random attitude
        contact = (rng.uniform(-0.55, 0.55) * hx, rng.uniform(-0.55, 0.55) * hy)
        theta_o = rng.uniform(-0.6, 0.6)
        ox = -(math.cos(theta_o) * contact[0] - math.sin(theta_o) * contact[1])
        oy = -(math.sin(theta_o) * contact[0] + math.cos(theta_o) * contact[1])
        object_pose = PoseSE2(ox, oy, theta_o)
        finger = PoseSE2(0.0, 0.0, 0.0)
        true_patch = perturb.apply(patch, rng)
        spec = PulseSpec(ds, n_steps)
        try:
            plant_out, _ = vibration_pulse(ContactState(finger, object_pose, true_patch), obj, spec,
                                           record=False)
        except ObjectDroppedError as exc:
            trials.append(TrialRecord(i, "single_pulse", PoseSE2(*contact, 0.0),
                                      False, 0.0, 0.0, 1, failure=str(exc)))
            continue
        model_state = ContactState(finger, object_pose, patch)
        try:
            model_out, _ = vibration_pulse(model_state, obj, spec, record=False)
        except ObjectDroppedError:
            model_out = model_state
        measured_obj = observe(plant_out.object_pose_w, noise, rng)
        err_pos, err_ang = pose_error(relative_pose(finger, measured_obj),
                                      relative_pose(finger, model_out.object_pose_w))
        trials.append(TrialRecord(i, "single_pulse", PoseSE2(*contact, 0.0),
                                  True, err_pos, err_ang, 1))
    return MetricsReport(**_summarize(trials, max(obj.extents)), trials=tuple(trials))


def run_reconfiguration_eval(objects: list[dict] | None = None,
                             n_paths_per_object: int = 10,
                             noise: NoiseModel | None = None,
                             perturb: PerturbationModel | None = None,
                             config: PlannerConfig | None = None,
                             seed: int = 0) -> MetricsReport:
    """Closed-loop evaluation over the benchmark objects.

    Per trial: sample a grasp and a feasible goal, perturb the plant
    patch, run the planner under observation noise, and score the true
    final relative pose against the goal, whether the plan returned or
    raised. Failures (drops, timeouts, orientation limits) are recorded,
    count against the success rate, and are excluded from the RMSE
    aggregates; an object with no successful trial reports its RMSEs and
    relative error as None, since a 0 would read as perfect.
    """
    objects = objects if objects is not None else default_objects()
    noise = noise or NoiseModel(0.0, 0.0)
    perturb = perturb or PerturbationModel()
    config = config or PlannerConfig()
    patch = default_patch()
    trials: list[TrialRecord] = []
    per_object: dict[str, dict] = {}
    index = 0
    for entry in objects:
        obj = entry["model"]
        obj_trials: list[TrialRecord] = []
        for _ in range(n_paths_per_object):
            rng = _trial_rng(seed, index)
            goal = None
            for _ in range(8):  # a tight grasp can exhaust the goal sampler
                rel0 = default_initial_rel(obj, rng)
                try:
                    goal = sample_goal(rng, rel0, obj, patch, config)
                    break
                except RuntimeError:
                    pass
            if goal is None:
                obj_trials.append(TrialRecord(index, entry["name"], PoseSE2(0, 0, 0),
                                              False, 0.0, 0.0, 0,
                                              failure="no feasible goal found"))
                index += 1
                continue
            true_patch = perturb.apply(patch, rng)
            state = state_from_relative(rel0, true_patch)
            env = PlantEnv(state, obj, noise=noise, rng=rng,
                           orientation_limits=config.finger_orientation_limits)
            failure = None
            try:
                plan_and_execute(PlanningProblem(goal, obj, patch), env, config)
            except (PlanningError, ObjectDroppedError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
            obj_trials.append(TrialRecord(index, entry["name"], goal, failure is None,
                                          *pose_error(env.true_relative_pose(), goal),
                                          env.n_actions, failure=failure))
            index += 1
        summary = _summarize(obj_trials, max(obj.extents))
        if not any(t.success for t in obj_trials):
            summary.update(rmse_pos=None, rmse_angle=None, rel_error_pct=None)
        summary.update(
            {"surface": entry.get("surface", ""),
             "size_mm": (obj.extents[0] * 1000.0, obj.extents[1] * 1000.0),
             "weight_g": obj.mass * 1000.0})
        per_object[entry["name"]] = summary
        trials.extend(obj_trials)
    ref = (float_sum(max(e["model"].extents) for e in objects) / len(objects)) if objects else 1.0
    return MetricsReport(**_summarize(trials, ref), trials=tuple(trials), per_object=per_object)
