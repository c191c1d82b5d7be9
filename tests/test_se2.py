import math
import random

import pytest
from hypothesis import given, strategies as st

from vib2move.se2 import (
    PoseSE2,
    TwistSE2,
    apply_twist,
    compose,
    inverse,
    relative_pose,
    transform_point,
    twist_norm,
    unit_twist,
    wrap_angle,
)

from conftest import fmod_wrap_angle

coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
angle = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)
poses = st.builds(PoseSE2, coord, coord, angle)

IDENTITY = PoseSE2(0.0, 0.0, 0.0)


def approx_pose(p, q, tol=1e-12):
    assert p.x == pytest.approx(q.x, abs=tol)
    assert p.y == pytest.approx(q.y, abs=tol)
    assert wrap_angle(p.theta - q.theta) == pytest.approx(0.0, abs=tol)


@given(angle)
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0


def _wrap_outcome(wrap, a):
    try:
        return repr(wrap(a))
    except ValueError as exc:  # fmod of an infinity
        return f"ValueError: {exc}"


@given(st.floats())
def test_wrap_angle_is_the_fmod_formula(a):
    assert _wrap_outcome(wrap_angle, a) == _wrap_outcome(fmod_wrap_angle, a)


@pytest.mark.parametrize("a", [
    0.0, -0.0, math.pi, -math.pi,
    math.nextafter(math.pi, math.inf), math.nextafter(-math.pi, -math.inf),
    2.0 * math.pi, -2.0 * math.pi, 3.0 * math.pi, 1e300, math.inf, -math.inf, math.nan,
])
def test_wrap_angle_is_the_fmod_formula_at_edges(a):
    assert _wrap_outcome(wrap_angle, a) == _wrap_outcome(fmod_wrap_angle, a)


def test_compose_identity():
    p = PoseSE2(0.3, -0.2, 1.1)
    approx_pose(compose(IDENTITY, p), p)
    approx_pose(compose(p, IDENTITY), p)


def test_compose_quarter_turn():
    approx_pose(compose(PoseSE2(1, 0, math.pi / 2), PoseSE2(1, 0, 0)),
                PoseSE2(1, 1, math.pi / 2))


@given(poses)
def test_compose_inverse_is_identity(p):
    approx_pose(compose(p, inverse(p)), IDENTITY, tol=1e-9)
    approx_pose(compose(inverse(p), p), IDENTITY, tol=1e-9)


def test_group_axioms_random_poses():
    rng = random.Random(42)
    for _ in range(10_000):
        p = PoseSE2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
        q = PoseSE2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
        r = PoseSE2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
        approx_pose(compose(compose(p, q), r), compose(p, compose(q, r)), tol=1e-12)
        approx_pose(compose(p, inverse(p)), IDENTITY, tol=1e-12)


def test_relative_pose_coincident_frames():
    p = PoseSE2(0.1, 0.2, 0.5)
    approx_pose(relative_pose(p, p), IDENTITY)


def test_relative_pose_object_at_origin():
    q_e = PoseSE2(0.01, 0.02, 0.1)
    approx_pose(relative_pose(q_e, IDENTITY), q_e)


def test_relative_pose_rotated_object():
    # hand evaluation: inv((0,0,pi/2)) o (0,0.05,pi/2) = (0.05, 0, 0)
    got = relative_pose(PoseSE2(0.0, 0.05, math.pi / 2), PoseSE2(0.0, 0.0, math.pi / 2))
    approx_pose(got, PoseSE2(0.05, 0.0, 0.0))


def test_apply_twist_zero_twist():
    p = PoseSE2(0.02, -0.01, 0.3)
    approx_pose(apply_twist(p, TwistSE2(0, 0, 0), (0.5, 0.5), 1.0), p)


def test_apply_twist_quarter_turn_about_origin():
    got = apply_twist(PoseSE2(0.02, 0, 0), TwistSE2(0, 0, 1), (0.0, 0.0), math.pi / 2)
    approx_pose(got, PoseSE2(0.0, 0.02, math.pi / 2))


def test_apply_twist_rotation_then_translation():
    # hand composition: rotate 0.005 rad about origin, then translate (0, -0.01)
    got = apply_twist(PoseSE2(0.02, 0, 0), TwistSE2(0, -1, 0.5), (0.0, 0.0), 0.01)
    approx_pose(got, PoseSE2(0.019999750000520834, -0.009900000416666147, 0.005))


def test_apply_twist_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        apply_twist(IDENTITY, TwistSE2(0, -1, 0), (0, 0), 0.0)


@given(poses, st.floats(-3, 3), st.floats(0.01, 2.0))
def test_pure_rotation_preserves_distance_to_ref(p, omega, ds):
    ref = (0.25, -0.4)
    q = apply_twist(p, TwistSE2(0, 0, omega), ref, ds)
    d_before = math.hypot(p.x - ref[0], p.y - ref[1])
    d_after = math.hypot(q.x - ref[0], q.y - ref[1])
    assert d_after == pytest.approx(d_before, abs=1e-12 * max(1.0, d_before))


def _substep_endpoint(p, t, ref, total, n):
    h = total / n
    for _ in range(n):
        p = apply_twist(p, t, ref, h)
    return p


def test_substep_refinement_first_order():
    # generic twist: rotation and translation do not commute, so halving the
    # step should roughly halve the endpoint change (order ~1)
    p0 = PoseSE2(0.03, -0.02, 0.4)
    t = TwistSE2(0.3, -1.0, 0.7)
    ref = (0.0, 0.0)
    total = 0.5
    ends = [_substep_endpoint(p0, t, ref, total, 2 ** i) for i in range(2, 7)]
    gaps = [math.hypot(a.x - b.x, a.y - b.y) for a, b in zip(ends, ends[1:])]
    orders = [math.log2(g0 / g1) for g0, g1 in zip(gaps, gaps[1:])]
    assert all(0.9 <= o <= 1.1 for o in orders), orders


def test_commuting_twist_is_step_invariant():
    p0 = PoseSE2(0.03, -0.02, 0.4)
    t = TwistSE2(0, 0, 0.9)  # pure rotation: sub-stepping is exact
    a = _substep_endpoint(p0, t, (0.01, 0.02), 0.8, 1)
    b = _substep_endpoint(p0, t, (0.01, 0.02), 0.8, 64)
    approx_pose(a, b, tol=1e-12)


def test_unit_twist_norms():
    t = unit_twist(TwistSE2(0.3, -1.0, 0.7))
    assert twist_norm(t) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        unit_twist(TwistSE2(0, 0, 0))


def test_transform_point_roundtrip():
    p = PoseSE2(0.1, -0.2, 1.2)
    from vib2move.se2 import invert_point

    pt = (0.04, -0.07)
    world = transform_point(p, pt)
    back = invert_point(p, world)
    assert back[0] == pytest.approx(pt[0], abs=1e-12)
    assert back[1] == pytest.approx(pt[1], abs=1e-12)


def test_theta_always_wrapped():
    assert PoseSE2(0, 0, 10.0).theta == pytest.approx(wrap_angle(10.0))
    assert -math.pi < PoseSE2(0, 0, -7 * math.pi).theta <= math.pi
