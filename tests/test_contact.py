import inspect
import math
import random

import pytest

from vib2move.contact import (
    ContactPatch,
    LimitSurface,
    ObjectModel,
    ZeroWrenchError,
    balance_wrench,
    build_limit_surface,
    ls_scale,
    max_dissipation_oracle,
    motion_direction,
    surface_samples,
)
from vib2move.se2 import TwistSE2, Wrench2D


def random_balanced(rng):
    obj = ObjectModel(mass=rng.uniform(0.03, 0.15), extents=(0.09, 0.15))
    x_c = rng.uniform(-0.075, 0.075)
    return obj, x_c, balance_wrench(obj, x_c)


class TestLimitSurface:
    def test_paper_scale_patch(self):
        ls = build_limit_surface(ContactPatch(r0=0.015, c=0.6))
        assert (ls.a1, ls.a2) == (1.0, 1.0)
        assert ls.a3 == pytest.approx(0.009, abs=1e-15)

    def test_unit_patch(self):
        assert build_limit_surface(ContactPatch(r0=1.0, c=1.0)).a3 == 1.0

    def test_product_definition(self):
        assert build_limit_surface(ContactPatch(r0=0.02, c=0.5)).a3 == pytest.approx(0.010)

    @pytest.mark.parametrize("r0,c", [(0.0, 0.6), (-0.01, 0.6), (0.015, 0.0), (0.015, 1.5)])
    def test_rejects_bad_patch(self, r0, c):
        with pytest.raises(ValueError):
            ContactPatch(r0=r0, c=c)

    def test_rejects_torque_arm_whose_square_underflows(self):
        with pytest.raises(ValueError, match=r"torque arm r0\*c"):
            ContactPatch(r0=0.015, c=1e-300)

    def test_rejects_offset_outside_patch(self):
        with pytest.raises(ValueError):
            ContactPatch(r0=0.015, c=0.6, pressure_center_offset=(0.02, 0.0))

    def test_rejects_anisotropic_axes(self):
        with pytest.raises(ValueError):
            LimitSurface(1.0, 2.0, 0.009)


class TestBalanceWrench:
    def test_zero_lever(self):
        w = balance_wrench(ObjectModel(mass=0.09, extents=(0.09, 0.15)), 0.0)
        assert (w.fx, w.fy, w.tau) == (0.0, pytest.approx(-0.8829), 0.0)

    def test_positive_lever(self):
        w = balance_wrench(ObjectModel(mass=0.09, extents=(0.09, 0.15)), 0.02)
        assert w.fy == pytest.approx(-0.8829, rel=1e-12)
        assert w.tau == pytest.approx(-0.017658, rel=1e-12)

    def test_negative_lever_flips_torque(self):
        w = balance_wrench(ObjectModel(mass=0.053, extents=(0.05, 0.16)), -0.03)
        assert w.fy == pytest.approx(-0.51993, rel=1e-12)
        assert w.tau == pytest.approx(0.0155979, rel=1e-12)

    def test_independent_of_friction_and_grasp_force(self):
        # the balance must not know mu, N, or grasp force at all
        params = set(inspect.signature(balance_wrench).parameters)
        assert params == {"obj", "x_c"}
        fields = set(ObjectModel.__dataclass_fields__)
        assert not fields & {"mu", "friction", "normal_force", "grasp_force"}


class TestMotionDirection:
    def setup_method(self):
        self.ls = build_limit_surface(ContactPatch(r0=0.015, c=0.6))

    def test_pure_downward_translation(self):
        t = motion_direction(self.ls, Wrench2D(0.0, -0.8829, 0.0))
        assert (t.vx, t.vy, t.omega) == (0.0, -1.0, 0.0)

    def test_lever_induces_near_rotation(self):
        # componentwise A w then normalize, evaluated by hand
        t = motion_direction(self.ls, Wrench2D(0.0, -0.8829, -0.017658))
        assert t.vx == 0.0
        assert t.vy == pytest.approx(-0.004049966785346102, rel=1e-12)
        assert t.omega == pytest.approx(-0.9999917988508894, rel=1e-12)

    def test_omega_sign_opposes_lever(self):
        rng = random.Random(3)
        for _ in range(1000):
            obj, x_c, w = random_balanced(rng)
            if x_c == 0.0:
                continue
            t = motion_direction(self.ls, w)
            assert math.copysign(1.0, t.omega) == -math.copysign(1.0, x_c)

    def test_zero_wrench_rejected(self):
        with pytest.raises(ZeroWrenchError):
            motion_direction(self.ls, Wrench2D(0, 0, 0))

    def test_parallel_to_surface_normal(self):
        rng = random.Random(11)
        for _ in range(1000):
            _, _, w = random_balanced(rng)
            t = motion_direction(self.ls, w)
            # independent recomputation of A w
            ny = w.fy
            nt = w.tau / self.ls.a3 ** 2
            dot = t.vy * ny + t.omega * nt
            cos = dot / math.hypot(ny, nt)
            assert cos >= 1.0 - 1e-12

    def test_rotational_fraction_monotone_in_lever(self):
        obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
        prev = -1.0
        for i in range(1, 101):
            x_c = 5 * 0.015 * i / 100
            t = motion_direction(self.ls, balance_wrench(obj, x_c))
            frac = abs(t.omega) * self.ls.a3 / math.hypot(t.vx, t.vy)
            assert frac > prev
            prev = frac


class TestScale:
    def setup_method(self):
        self.ls = build_limit_surface(ContactPatch(r0=0.015, c=0.6))

    def test_unit_wrench(self):
        assert ls_scale(self.ls, Wrench2D(0.0, -1.0, 0.0)) == pytest.approx(1.0)

    def test_hand_evaluated_scale(self):
        k = ls_scale(self.ls, Wrench2D(0.0, -0.8829, -0.017658))
        assert k == pytest.approx(0.2160314143031647, rel=1e-12)

    def test_mass_homogeneity(self):
        w1 = balance_wrench(ObjectModel(mass=0.05, extents=(0.09, 0.15)), 0.02)
        w2 = balance_wrench(ObjectModel(mass=0.10, extents=(0.09, 0.15)), 0.02)
        assert ls_scale(self.ls, w2) == pytest.approx(ls_scale(self.ls, w1) / 4.0, rel=1e-12)

    def test_scaled_surface_membership(self):
        rng = random.Random(5)
        for _ in range(1000):
            _, _, w = random_balanced(rng)
            k = ls_scale(self.ls, w)
            assert k * self.ls.quad(w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_wrench_rejected(self):
        with pytest.raises(ZeroWrenchError):
            ls_scale(self.ls, Wrench2D(0, 0, 0))


class TestDissipationOracle:
    def setup_method(self):
        self.ls = build_limit_surface(ContactPatch(r0=0.015, c=0.6))

    def test_axis_aligned_translation(self):
        w = max_dissipation_oracle(self.ls, TwistSE2(0, -1, 0), 10_000)
        assert w.fy == pytest.approx(-1.0, abs=0.05)
        assert abs(w.fx) < 0.05
        assert abs(w.tau) < 0.05 * self.ls.a3

    def test_pure_torque(self):
        w = max_dissipation_oracle(self.ls, TwistSE2(0, 0, 1), 10_000)
        assert w.tau == pytest.approx(self.ls.a3, rel=0.05)
        assert math.hypot(w.fx, w.fy) < 0.05

    def test_duality_with_motion_direction(self):
        # the argmax over the sampled surface should sit on the ray of the
        # wrench that generated the twist, within the sampling resolution
        rng = random.Random(17)
        n = 10_000
        tol = 2.0 * math.sqrt(4.0 * math.pi / n)
        for _ in range(50):
            _, _, w0 = random_balanced(rng)
            t = motion_direction(self.ls, w0)
            w = max_dissipation_oracle(self.ls, t, n)
            assert self._sphere_angle(w, w0) < tol

    def _sphere_angle(self, w, v):
        # compare in the sphere parametrization u_i = w_i / a_i
        a = (w.fx / self.ls.a1, w.fy / self.ls.a2, w.tau / self.ls.a3)
        b = (v.fx / self.ls.a1, v.fy / self.ls.a2, v.tau / self.ls.a3)
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        dot = sum(x * y for x, y in zip(a, b)) / (na * nb)
        return math.acos(max(-1.0, min(1.0, dot)))

    def test_samples_lie_on_surface(self):
        for w in surface_samples(self.ls, 1000):
            assert self.ls.quad(w) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_sparse_sampling(self):
        with pytest.raises(ValueError):
            max_dissipation_oracle(self.ls, TwistSE2(0, -1, 0), 100)


def test_object_model_validation():
    with pytest.raises(ValueError):
        ObjectModel(mass=0.0, extents=(0.09, 0.15))
    with pytest.raises(ValueError):
        ObjectModel(mass=0.09, extents=(0.09, 0.15), gravity=0.0)
    with pytest.raises(ValueError):
        ObjectModel(mass=0.09, extents=(0.0, 0.15))


@pytest.mark.parametrize("mass", [1e-303, 1e200])
def test_object_model_rejects_weight_whose_square_leaves_float(mass):
    with pytest.raises(ValueError, match=r"weight mass\*gravity"):
        ObjectModel(mass=mass, extents=(0.09, 0.15))
