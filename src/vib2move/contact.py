"""Friction core for a clamped planar object sliding in the gravity plane.

The two symmetric finger patches act like a single supporting patch whose
transmissible friction wrenches are bounded by an ellipsoid in (fx, fy, tau)
space. Under quasi-static slip the gravity load wrench sits on that
ellipsoid and the object twist is parallel to the ellipsoid normal at the
load point. The absolute ellipsoid size depends on grasp force and the
friction coefficient, neither of which is needed: all quantities are
computed on the normalized surface (unit tangential semi-axes) and the
scale factor recovered from the wrench balance multiplies the step length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .se2 import TwistSE2, Wrench2D, unit_twist


class ZeroWrenchError(ValueError):
    """Raised when a direction or scale is requested for a zero wrench."""


@dataclass(frozen=True)
class ContactPatch:
    """Finger contact patch parameters.

    r0 is the equivalent radius of the patch, c the torque constant of the
    pressure distribution (about 0.6 for uniform pressure), and
    pressure_center_offset the location of the effective pressure center
    relative to the geometric patch center, in the finger frame.
    """

    r0: float
    c: float = 0.6
    pressure_center_offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.r0 <= 0.0:
            raise ValueError(f"patch radius must be positive, got {self.r0}")
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"torque constant must be in (0, 1], got {self.c}")
        ox, oy = self.pressure_center_offset
        if math.hypot(ox, oy) >= self.r0:
            raise ValueError("pressure center offset must lie inside the patch")

    @property
    def torque_arm(self) -> float:
        """Torque length scale r0*c of the patch."""
        return self.r0 * self.c


@dataclass(frozen=True)
class LimitSurface:
    """Normalized ellipsoidal friction wrench bound, semi-axes (a1, a2, a3).

    a1 = a2 = 1 by normalization (isotropic tangential friction); a3 = r0*c
    carries units of meters. Membership is quad(w) == 1.
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if self.a1 != self.a2:
            raise ValueError("tangential semi-axes must be equal (isotropic friction)")
        if self.a1 <= 0.0 or self.a3 <= 0.0:
            raise ValueError("semi-axes must be positive")

    def normal(self, w: Wrench2D) -> tuple[float, float, float]:
        """Un-normalized surface normal A w at wrench w."""
        return (w.fx / (self.a1 * self.a1), w.fy / (self.a2 * self.a2), w.tau / (self.a3 * self.a3))

    def quad(self, w: Wrench2D) -> float:
        """Quadratic form w^T A w."""
        return (w.fx / self.a1) ** 2 + (w.fy / self.a2) ** 2 + (w.tau / self.a3) ** 2


@dataclass(frozen=True)
class ObjectModel:
    """Rigid planar object: mass, rectangular footprint, center of mass.

    com_offset is the center of mass in the object frame (the frame origin
    is the geometric center of the footprint).
    """

    mass: float
    extents: tuple[float, float]
    com_offset: tuple[float, float] = (0.0, 0.0)
    gravity: float = 9.81

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.gravity <= 0.0:
            raise ValueError(f"gravity must be positive, got {self.gravity}")
        if self.extents[0] <= 0.0 or self.extents[1] <= 0.0:
            raise ValueError(f"extents must be positive, got {self.extents}")

    @property
    def weight(self) -> float:
        return self.mass * self.gravity


def build_limit_surface(patch: ContactPatch) -> LimitSurface:
    """Normalized limit surface for a patch: a1 = a2 = 1, a3 = r0*c."""
    return LimitSurface(1.0, 1.0, patch.torque_arm)


def balance_wrench(obj: ObjectModel, x_c: float) -> Wrench2D:
    """Gravity load wrench on the contact, about the pressure center.

    x_c is the world-frame horizontal offset of the object's center of
    mass relative to the pressure center (com_x - pc_x). Force balance
    gives (0, -m g) and torque balance -m g x_c. Deliberately independent
    of friction coefficient and grasp force.
    """
    w = obj.weight
    return Wrench2D(0.0, -w, -w * x_c)


def motion_direction(ls: LimitSurface, w: Wrench2D) -> TwistSE2:
    """Unit object twist under slip, parallel to the surface normal A w.

    Expressed at the pressure center; describes the object's motion
    relative to the fixed finger. Normalized to unit Euclidean magnitude
    of (vx, vy, omega).
    """
    if w.fx == 0.0 and w.fy == 0.0 and w.tau == 0.0:
        raise ZeroWrenchError("motion direction is undefined for a zero wrench")
    nx, ny, nt = ls.normal(w)
    return unit_twist(TwistSE2(nx, ny, nt))


def ls_scale(ls: LimitSurface, w: Wrench2D) -> float:
    """Surface size factor k = 1 / (w^T A w) selected by the wrench balance.

    Scaling the normalized form by k puts the balanced wrench exactly on
    the surface: w^T (k A) w = 1.
    """
    if w.fx == 0.0 and w.fy == 0.0 and w.tau == 0.0:
        raise ZeroWrenchError("limit surface scale is undefined for a zero wrench")
    return 1.0 / ls.quad(w)


@lru_cache(maxsize=8)
def _sphere_lattice(n_samples: int) -> tuple:
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(n_samples):
        z = 1.0 - (2.0 * i + 1.0) / n_samples
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * i
        out.append((r * math.cos(phi), r * math.sin(phi), z))
    return tuple(out)


def surface_samples(ls: LimitSurface, n_samples: int) -> list[Wrench2D]:
    """Deterministic quasi-uniform sampling of the ellipsoid {w^T A w = 1}.

    A Fibonacci lattice on the unit sphere is stretched by the semi-axes,
    so sample density is uniform in the sphere parametrization.
    """
    return [Wrench2D(ls.a1 * x, ls.a2 * y, ls.a3 * z)
            for x, y, z in _sphere_lattice(n_samples)]


def max_dissipation_oracle(ls: LimitSurface, twist: TwistSE2, n_samples: int = 10_000) -> Wrench2D:
    """Brute-force dual of motion_direction, for consistency checks only.

    Scans a dense sample of the surface and returns the wrench maximizing
    the dissipation rate w . twist. For a twist obtained from
    motion_direction(ls, w0) this should return (approximately) the ray
    of w0; agreement tolerance is set by the sample density.
    """
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 surface samples, got {n_samples}")
    if twist.vx == 0.0 and twist.vy == 0.0 and twist.omega == 0.0:
        raise ValueError("dissipation direction is undefined for a zero twist")
    best = None
    best_power = -math.inf
    for w in surface_samples(ls, n_samples):
        power = w.fx * twist.vx + w.fy * twist.vy + w.tau * twist.omega
        if power > best_power:
            best_power = power
            best = w
    return best
