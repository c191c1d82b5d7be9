"""Quasi-static sliding rollouts under vibration pulses.

Vibration is a binary friction switch, and the primitive is the switch: a
pulse (vibration_pulse) lets the object slide, each arc step moving it
along the limit-surface twist direction scaled by the balance-selected
surface size k; without vibration it sticks to the finger and turns with
it (planner.primitive_reorient). Pulse duration is a step count; there is
no intrinsic timescale in the quasi-static regime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import _backend
from .contact import ContactPatch, ObjectModel
from .se2 import PoseSE2, transform_point

DEFAULT_DS = 1e-3
REST_EPS = 1e-5
NEAR_ROTATION_THRESHOLD = 0.5


class ObjectDroppedError(RuntimeError):
    """The pressure center left the object footprint during a slide."""

    def __init__(self, step_index: int):
        super().__init__(f"object dropped at step {step_index}")
        self.step_index = step_index


class MotionClass(enum.Enum):
    TRANSLATIONAL = "translational"
    NEAR_ROTATIONAL = "near_rotational"


@dataclass(frozen=True)
class ContactState:
    """Simulated plant state: finger and object world poses plus the patch."""

    finger_pose_w: PoseSE2
    object_pose_w: PoseSE2
    patch: ContactPatch


@dataclass(frozen=True)
class PulseSpec:
    """One vibration pulse: arc step size and number of steps."""

    step_ds: float = DEFAULT_DS
    n_steps: int = 1

    def __post_init__(self):
        if not 0.0 < self.step_ds < math.inf:
            raise ValueError(f"step_ds must be finite and positive, got {self.step_ds}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")


@dataclass(frozen=True)
class TrajectoryPoint:
    """Per-step record of a slide."""

    finger_pose: PoseSE2
    object_pose: PoseSE2
    motion_class: MotionClass
    k: float


@dataclass(frozen=True)
class RolloutResult:
    state: ContactState
    points: list[TrajectoryPoint]
    converged: bool
    n_steps: int


def pressure_center_world(state: ContactState) -> tuple[float, float]:
    """World position of the pressure center (rigid on the finger)."""
    return transform_point(state.finger_pose_w, state.patch.pressure_center_offset)


def com_world(object_pose: PoseSE2, obj: ObjectModel) -> tuple[float, float]:
    """World position of the object's center of mass."""
    return transform_point(object_pose, obj.com_offset)


def lever(state: ContactState, obj: ObjectModel) -> tuple[float, float]:
    """World vector from the pressure center to the center of mass; its x
    is the horizontal lever x_c."""
    pc = pressure_center_world(state)
    com = com_world(state.object_pose_w, obj)
    return com[0] - pc[0], com[1] - pc[1]


def classify_motion(uy: float, uw: float, torque_arm: float) -> MotionClass:
    """Label a slide step's unit twist (0, uy, uw) by its dominant character.

    Near-rotational when the rotation rate uw, weighted by the patch torque
    arm r0*c, exceeds NEAR_ROTATION_THRESHOLD times the translation speed
    |uy| (the slide twist has no x part).
    """
    if abs(uw) * torque_arm > NEAR_ROTATION_THRESHOLD * abs(uy):
        return MotionClass.NEAR_ROTATIONAL
    return MotionClass.TRANSLATIONAL


# names of the pose and offset entries that lead the kernel arguments
_CHECKED_ARGS = (
    "object_pose_w.x", "object_pose_w.y", "object_pose_w.theta",
    "finger_pose_w.x", "finger_pose_w.y", "finger_pose_w.theta",
    "patch.pressure_center_offset[0]", "patch.pressure_center_offset[1]",
    "obj.com_offset[0]", "obj.com_offset[1]",
)


def _kernel_args(state: ContactState, obj: ObjectModel, ds: float, n_max: int,
                 stop_eps: float = -1.0, record: bool = False,
                 stop_travel: float = -1.0, stop_rot: float = -1.0) -> list:
    """Positional arguments of _backend.rollout_core for a rollout from state.

    Returned as a list so a caller replaying one pulse under several
    pressure-center offsets can replace entries 6 and 7.

    Raises ValueError naming the first non-finite pose or offset value,
    or a ds that is not finite and positive, so no kernel sees one: on an
    infinite angle the Python kernel raises inside math while the C
    kernel returns NaNs, and any other non-finite value would come back
    as a NaN pose.
    """
    f = state.finger_pose_w
    o = state.object_pose_w
    pdx, pdy = state.patch.pressure_center_offset
    cdx, cdy = obj.com_offset
    args = [
        o.x, o.y, o.theta,
        f.x, f.y, f.theta,
        pdx, pdy,
        cdx, cdy,
        obj.extents[0] / 2.0, obj.extents[1] / 2.0,
        obj.mass, obj.gravity, state.patch.torque_arm,
        ds, n_max, stop_eps, record, stop_travel, stop_rot,
    ]
    if not all(map(math.isfinite, args[:10])):
        name, value = next((n, v) for n, v in zip(_CHECKED_ARGS, args) if not math.isfinite(v))
        raise ValueError(f"{name} must be finite, got {value}")
    if not 0.0 < ds < math.inf:
        raise ValueError(f"ds must be finite and positive, got {ds}")
    return args


def _points_from_records(state: ContactState, records) -> list[TrajectoryPoint]:
    arm = state.patch.torque_arm
    return [TrajectoryPoint(state.finger_pose_w, PoseSE2(ox, oy, oth),
                            classify_motion(uy, uw, arm), k)
            for ox, oy, oth, uy, uw, k in records]


def _slide(state: ContactState, obj: ObjectModel, ds: float, n_max: int,
           stop_eps: float = -1.0, record: bool = False):
    """Kernel rollout from state: (new state, status, steps done, records).

    Raises ObjectDroppedError when the pressure center leaves the object,
    and ValueError when the slide ends at a non-finite pose (a lever or
    load too large for floating point).
    """
    status, n_done, ox, oy, oth, records = _backend.rollout_core(
        *_kernel_args(state, obj, ds, n_max, stop_eps, record))
    if status == _backend.STATUS_DROPPED:
        raise ObjectDroppedError(n_done)
    if not all(map(math.isfinite, (ox, oy, oth))):
        raise ValueError(f"slide ended at a non-finite object pose ({ox}, {oy}, {oth})")
    new_state = ContactState(state.finger_pose_w, PoseSE2(ox, oy, oth), state.patch)
    return new_state, status, n_done, records


def slide_step(state: ContactState, obj: ObjectModel, ds: float = DEFAULT_DS) -> ContactState:
    """Advance one sliding step. Finger pose is fixed."""
    return _slide(state, obj, ds, 1)[0]


def vibration_pulse(state: ContactState, obj: ObjectModel, pulse: PulseSpec,
                    record: bool = True) -> tuple[ContactState, list[TrajectoryPoint]]:
    """Apply one pulse and return the new state with its per-step trajectory.

    With record false the kernel keeps no per-step records and the point
    list is empty; the returned state is the same either way.
    """
    new_state, _, _, records = _slide(state, obj, pulse.step_ds, pulse.n_steps, record=record)
    return new_state, _points_from_records(state, records)


def rollout_to_rest(state: ContactState, obj: ObjectModel, ds: float = DEFAULT_DS,
                    max_steps: int = 200_000, record: bool = True) -> RolloutResult:
    """Slide until the center of mass hangs aligned below the contact.

    Convergence means |x_c| < REST_EPS with the center of mass below the
    pressure center; that is the stable branch of the gravity alignment.
    Starting above the contact, alignment errors grow instead and the
    rollout reports non-convergence at max_steps.
    """
    final, status, n_done, records = _slide(state, obj, ds, max_steps, REST_EPS, record)
    converged = status == _backend.STATUS_REST
    if not converged:
        # the stop test runs before each step, so a rollout that converges
        # exactly on its last step is only visible here
        pc = pressure_center_world(final)
        cx, cy = com_world(final.object_pose_w, obj)
        converged = cy < pc[1] and abs(cx - pc[0]) < REST_EPS
    return RolloutResult(final, _points_from_records(state, records), converged, n_done)
