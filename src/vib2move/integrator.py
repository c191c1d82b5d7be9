"""Quasi-static sliding rollouts under vibration pulses.

Vibration acts as a binary friction switch: with vibration off the object
sticks to the finger (relative pose frozen); with vibration on it slides,
and each arc step moves it along the limit-surface twist direction scaled
by the balance-selected surface size k. Pulse duration is modeled as a
step count; there is no intrinsic timescale in the quasi-static regime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import _backend
from .contact import ContactPatch, ObjectModel
from .se2 import PoseSE2, TwistSE2, transform_point

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
    """Simulated plant state: finger and object world poses plus the patch.

    While vibration_on is false the relative finger-object pose is
    invariant (sticking contact).
    """

    finger_pose_w: PoseSE2
    object_pose_w: PoseSE2
    patch: ContactPatch
    vibration_on: bool = False


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
    """Per-step rollout record; twist is None for a sticking (no-op) pulse."""

    step_index: int
    finger_pose: PoseSE2
    object_pose: PoseSE2
    twist: TwistSE2 | None
    motion_class: MotionClass | None
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


def lever_x(state: ContactState, obj: ObjectModel) -> float:
    """Horizontal offset x_c of the center of mass from the pressure center."""
    return com_world(state.object_pose_w, obj)[0] - pressure_center_world(state)[0]


def classify_motion(twist: TwistSE2, torque_arm: float) -> MotionClass:
    """Label a unit twist by its dominant character.

    Near-rotational when the rotation rate, weighted by the patch torque
    arm r0*c, exceeds NEAR_ROTATION_THRESHOLD times the translation speed.
    """
    lin = math.hypot(twist.vx, twist.vy)
    if abs(twist.omega) * torque_arm > NEAR_ROTATION_THRESHOLD * lin:
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


def _run_kernel(state: ContactState, obj: ObjectModel, ds: float, n_max: int,
                stop_eps: float = -1.0, record: bool = False,
                stop_travel: float = -1.0, stop_rot: float = -1.0):
    return _backend.rollout_core(*_kernel_args(state, obj, ds, n_max, stop_eps, record,
                                               stop_travel, stop_rot))


def _points_from_records(state: ContactState, records) -> list[TrajectoryPoint]:
    arm = state.patch.torque_arm
    points = []
    for j, (ox, oy, oth, uy, uw, k, _xc) in enumerate(records, start=1):
        twist = TwistSE2(0.0, uy, uw)
        points.append(TrajectoryPoint(
            step_index=j,
            finger_pose=state.finger_pose_w,
            object_pose=PoseSE2(ox, oy, oth),
            twist=twist,
            motion_class=classify_motion(twist, arm),
            k=k,
        ))
    return points


def _slide(state: ContactState, obj: ObjectModel, ds: float, n_max: int,
           stop_eps: float = -1.0, record: bool = False):
    """Kernel rollout from state: (new state, status, steps done, records).

    Raises ObjectDroppedError when the pressure center leaves the object.
    """
    status, n_done, ox, oy, oth, records = _run_kernel(state, obj, ds, n_max, stop_eps, record)
    if status == _backend.STATUS_DROPPED:
        raise ObjectDroppedError(n_done)
    new_state = ContactState(state.finger_pose_w, PoseSE2(ox, oy, oth), state.patch,
                             state.vibration_on)
    return new_state, status, n_done, records


def slide_step(state: ContactState, obj: ObjectModel, ds: float = DEFAULT_DS) -> ContactState:
    """Advance one sliding step; requires vibration on. Finger pose is fixed."""
    if not state.vibration_on:
        raise ValueError("slide_step requires vibration_on (sticking contact otherwise)")
    return _slide(state, obj, ds, 1)[0]


def vibration_pulse(state: ContactState, obj: ObjectModel, pulse: PulseSpec,
                    record: bool = True) -> tuple[ContactState, list[TrajectoryPoint]]:
    """Apply one pulse and return the new state with its per-step trajectory.

    With vibration off the state is returned unchanged with a single
    sticking record (the relative pose is bit-identical by construction).
    With record false the kernel keeps no per-step records and the point
    list is empty; the returned state is the same either way.
    """
    if not state.vibration_on:
        point = TrajectoryPoint(0, state.finger_pose_w, state.object_pose_w, None, None, 0.0)
        return state, [point] if record else []
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
    if not state.vibration_on:
        raise ValueError("rollout_to_rest requires vibration_on")
    final, status, n_done, records = _slide(state, obj, ds, max_steps, REST_EPS, record)
    converged = status == _backend.STATUS_REST
    if not converged:
        # the stop test runs before each step, so a rollout that converges
        # exactly on its last step is only visible here
        pc = pressure_center_world(final)
        cx, cy = com_world(final.object_pose_w, obj)
        converged = cy < pc[1] and abs(cx - pc[0]) < REST_EPS
    return RolloutResult(final, _points_from_records(state, records), converged, n_done)
