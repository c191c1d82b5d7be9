"""Planar rigid-body algebra: poses, twists, wrenches, frame changes.

Angles are stored wrapped to (-pi, pi]. All quantities are SI (meters,
radians, newtons); twists are per unit arc step rather than per second
because the sliding model is quasi-static.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi].

    The result is fmod(a + pi, 2 pi), lifted into (0, 2 pi], minus pi.
    fmod returns a shifted angle already in (0, 2 pi) unchanged, and the
    lift turns 2 pi's 0 back into 2 pi, so such an angle skips the call.
    """
    r = a + math.pi
    if 0.0 < r <= TWO_PI:
        return r - math.pi
    r = math.fmod(r, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


@dataclass(frozen=True)
class PoseSE2:
    """Planar pose (x, y, theta); theta is wrapped on construction."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class TwistSE2:
    """Planar twist (vx, vy, omega) about a stated reference point."""

    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class Wrench2D:
    """Planar wrench (fx, fy, tau); tau is about the contact patch center."""

    fx: float = 0.0
    fy: float = 0.0
    tau: float = 0.0


def compose(a: PoseSE2, b: PoseSE2) -> PoseSE2:
    """Group composition a * b (apply b in the frame of a)."""
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    return PoseSE2(
        a.x + ca * b.x - sa * b.y,
        a.y + sa * b.x + ca * b.y,
        a.theta + b.theta,
    )


def inverse(p: PoseSE2) -> PoseSE2:
    """Group inverse: compose(p, inverse(p)) == identity."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return PoseSE2(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.theta)


def relative_pose(q_e_w: PoseSE2, q_o_w: PoseSE2) -> PoseSE2:
    """Pose of the finger expressed in the object frame: inv(q_o_w) * q_e_w."""
    return compose(inverse(q_o_w), q_e_w)


def transform_point(p: PoseSE2, point: tuple[float, float]) -> tuple[float, float]:
    """Map a body-frame point into the world frame."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return (p.x + c * point[0] - s * point[1], p.y + s * point[0] + c * point[1])


def invert_point(p: PoseSE2, point: tuple[float, float]) -> tuple[float, float]:
    """Map a world-frame point into the body frame of pose p."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    dx, dy = point[0] - p.x, point[1] - p.y
    return (c * dx + s * dy, -s * dx + c * dy)


def rotate_pose_about(p: PoseSE2, center: tuple[float, float], angle: float) -> PoseSE2:
    """Rigidly rotate a pose about a fixed world point."""
    c, s = math.cos(angle), math.sin(angle)
    rx, ry = p.x - center[0], p.y - center[1]
    return PoseSE2(center[0] + c * rx - s * ry, center[1] + s * rx + c * ry, p.theta + angle)


def apply_twist(pose: PoseSE2, twist: TwistSE2, ref_point: tuple[float, float], ds: float) -> PoseSE2:
    """Advance a pose along a twist for an arc step ds.

    The rotation omega*ds is applied exactly (rotation about ref_point,
    not an Euler add of theta into x, y), then the translation
    (vx, vy)*ds is added.
    """
    if ds <= 0.0:
        raise ValueError(f"arc step must be positive, got {ds}")
    rotated = rotate_pose_about(pose, ref_point, twist.omega * ds)
    return PoseSE2(rotated.x + twist.vx * ds, rotated.y + twist.vy * ds, rotated.theta)


def twist_norm(t: TwistSE2) -> float:
    """Euclidean twist magnitude ||(vx, vy, omega)||, the norm of the
    sliding motion update."""
    return math.sqrt(t.vx * t.vx + t.vy * t.vy + t.omega * t.omega)


def unit_twist(t: TwistSE2) -> TwistSE2:
    """Scale a twist to unit magnitude under twist_norm."""
    n = twist_norm(t)
    if n == 0.0:
        raise ValueError("cannot normalize a zero twist")
    return TwistSE2(t.vx / n, t.vy / n, t.omega / n)
