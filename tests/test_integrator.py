import math
import random

import pytest

from vib2move.contact import balance_wrench, build_limit_surface, motion_direction
from vib2move.integrator import (
    ContactState,
    MotionClass,
    ObjectDroppedError,
    PulseSpec,
    classify_motion,
    com_world,
    lever,
    pressure_center_world,
    rollout_to_rest,
    slide_step,
    vibration_pulse,
)
from vib2move.se2 import PoseSE2, relative_pose

from conftest import state_with_contact_at


def random_inner_state(patch, rng, theta=None):
    # contact well inside the footprint of the 90x150 plate
    p = (rng.uniform(-0.033, 0.033), rng.uniform(-0.06, 0.06))
    th = rng.uniform(-math.pi, math.pi) if theta is None else theta
    return state_with_contact_at(patch, p, theta_o=th)


class TestSlideStep:
    def test_straight_descent_when_com_hangs_below(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.0, 0.03))  # com below contact
        out = slide_step(st, plate, ds=1e-3)
        assert out.object_pose_w.theta == st.object_pose_w.theta
        assert out.object_pose_w.x == pytest.approx(st.object_pose_w.x, abs=1e-15)
        k = 1.0 / plate.weight ** 2
        assert st.object_pose_w.y - out.object_pose_w.y == pytest.approx(1e-3 * k, rel=1e-12)

    def test_lever_makes_rotation_dominate(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (-0.02, 0.0))  # com 20 mm right of contact
        assert lever(st, plate)[0] == pytest.approx(0.02, abs=1e-15)
        out = slide_step(st, plate, ds=1e-5)
        dth = out.object_pose_w.theta - st.object_pose_w.theta
        # displacement of the material point at the contact, where the twist
        # is referenced; the rotation/translation ratio there is |omega|/|v|
        pc = pressure_center_world(st)
        from vib2move.se2 import invert_point, transform_point

        body_pt = invert_point(st.object_pose_w, pc)
        moved = transform_point(out.object_pose_w, body_pt)
        dpos = math.hypot(moved[0] - pc[0], moved[1] - pc[1])
        assert dth < 0.0
        assert abs(dth) / dpos == pytest.approx(246.9135802469136, rel=1e-3)

    def test_finger_never_mutated(self, paper_patch, plate):
        rng = random.Random(0)
        for _ in range(100):
            st = random_inner_state(paper_patch, rng)
            out = slide_step(st, plate, ds=1e-3)
            assert out.finger_pose_w is st.finger_pose_w

    def test_energy_descent(self, paper_patch, plate):
        rng = random.Random(9)
        for _ in range(2000):
            st = random_inner_state(paper_patch, rng)
            y0 = com_world(st.object_pose_w, plate)[1]
            out = slide_step(st, plate, ds=1e-3)
            assert com_world(out.object_pose_w, plate)[1] < y0


class TestVibrationPulse:
    def test_single_step_pulse_matches_slide_step(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.012, 0.025))
        a = slide_step(st, plate, ds=1e-3)
        b, traj = vibration_pulse(st, plate, PulseSpec(1e-3, 1))
        assert a.object_pose_w == b.object_pose_w
        assert len(traj) == 1

    def test_two_phase_swing_then_slide(self, paper_patch, plate):
        # contact grabbed below-left of center: the object first swings its
        # center of mass under the contact, then slides straight down
        st = state_with_contact_at(paper_patch, (0.018, 0.022))
        out, traj = vibration_pulse(st, plate, PulseSpec(5e-4, 2300))
        classes = [p.motion_class for p in traj]
        assert classes[0] is MotionClass.NEAR_ROTATIONAL
        first_trans = classes.index(MotionClass.TRANSLATIONAL)
        assert 0 < first_trans < len(classes) - 10
        assert all(c is MotionClass.TRANSLATIONAL for c in classes[first_trans:])

    def test_deterministic(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.011, -0.007), theta_o=0.3)
        a = vibration_pulse(st, plate, PulseSpec(1e-3, 200))
        b = vibration_pulse(st, plate, PulseSpec(1e-3, 200))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_unrecorded_pulse_same_state_no_points(self, paper_patch, plate):
        rng = random.Random(17)
        drops = 0
        for _ in range(40):
            st = random_inner_state(paper_patch, rng)
            spec = PulseSpec(1e-3, rng.randint(1, 400))
            try:
                recorded, traj = vibration_pulse(st, plate, spec)
            except ObjectDroppedError as exc:
                drops += 1
                with pytest.raises(ObjectDroppedError) as info:
                    vibration_pulse(st, plate, spec, record=False)
                assert info.value.step_index == exc.step_index
                continue
            assert len(traj) == spec.n_steps
            out, points = vibration_pulse(st, plate, spec, record=False)
            assert points == []
            # repr spells every float exactly, so this is bit identity
            assert repr(out) == repr(recorded)
        assert drops < 40

    def test_translation_invariance(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.015, 0.02), theta_o=0.2)
        shifted = ContactState(
            PoseSE2(st.finger_pose_w.x + 0.37, st.finger_pose_w.y - 0.21, st.finger_pose_w.theta),
            PoseSE2(st.object_pose_w.x + 0.37, st.object_pose_w.y - 0.21, st.object_pose_w.theta),
            st.patch)
        a, ta = vibration_pulse(st, plate, PulseSpec(1e-3, 300))
        b, tb = vibration_pulse(shifted, plate, PulseSpec(1e-3, 300))
        ra = relative_pose(a.finger_pose_w, a.object_pose_w)
        rb = relative_pose(b.finger_pose_w, b.object_pose_w)
        assert ra.x == pytest.approx(rb.x, abs=1e-9)
        assert ra.y == pytest.approx(rb.y, abs=1e-9)
        assert ra.theta == pytest.approx(rb.theta, abs=1e-9)

    def test_drop_reports_step_index(self, paper_patch, plate):
        # contact near the footprint edge with the com hanging below: the
        # object slides down until the contact exits the top of the plate
        st = state_with_contact_at(paper_patch, (0.0, 0.072))
        with pytest.raises(ObjectDroppedError) as ei:
            vibration_pulse(st, plate, PulseSpec(1e-3, 10_000))
        assert 0 < ei.value.step_index < 10_000

    def test_pulse_spec_validation(self):
        for bad in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="step_ds must be finite and positive"):
                PulseSpec(step_ds=bad, n_steps=1)
        with pytest.raises(ValueError):
            PulseSpec(step_ds=1e-3, n_steps=0)


class TestClassifyMotion:
    def test_pure_translation(self):
        assert classify_motion(-1.0, 0.0, 0.009) is MotionClass.TRANSLATIONAL

    def test_pure_rotation(self):
        assert classify_motion(0.0, 1.0, 0.009) is MotionClass.NEAR_ROTATIONAL
        assert classify_motion(0.0, -1.0, 0.009) is MotionClass.NEAR_ROTATIONAL

    def test_lever_twist_classifies_rotational(self, paper_patch, plate):
        ls = build_limit_surface(paper_patch)
        t = motion_direction(ls, balance_wrench(plate, 0.02))
        # ratio |omega| r0 c / |v| = |x_c| / a3 = 2.22 here
        assert t.vx == 0.0
        assert classify_motion(t.vy, t.omega, paper_patch.torque_arm) is MotionClass.NEAR_ROTATIONAL


class TestRolloutToRest:
    def test_immediate_when_already_aligned(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.0, 0.03))  # com straight below
        res = rollout_to_rest(st, plate, ds=1e-4, max_steps=1000)
        assert res.converged
        assert res.n_steps == 0

    def test_converges_from_hanging_offset(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.03, 0.04))
        res = rollout_to_rest(st, plate, ds=1e-4, max_steps=200_000, record=True)
        assert res.converged
        assert abs(lever(res.state, plate)[0]) < 1e-5
        pc = pressure_center_world(st)
        prev = abs(lever(st, plate)[0])
        for p in res.points[:: max(1, len(res.points) // 500)]:
            xc = abs(com_world(p.object_pose, plate)[0] - pc[0])
            assert xc <= prev + 1e-12
            prev = xc

    def test_diverges_with_com_above(self, paper_patch, plate):
        st = state_with_contact_at(paper_patch, (0.0, -0.04))  # com above contact
        nudged = ContactState(
            st.finger_pose_w,
            PoseSE2(st.object_pose_w.x + 1e-6, st.object_pose_w.y, st.object_pose_w.theta),
            paper_patch)
        res = rollout_to_rest(nudged, plate, ds=1e-4, max_steps=3000, record=False)
        assert not res.converged
        assert abs(lever(res.state, plate)[0]) > 100 * 1e-6


def test_trajectory_export_fields(paper_patch, plate):
    st = state_with_contact_at(paper_patch, (0.01, 0.02))
    _, traj = vibration_pulse(st, plate, PulseSpec(1e-3, 5))
    assert len(traj) == 5
    for p in traj:
        assert p.finger_pose == st.finger_pose_w
        assert p.k > 0.0
        assert p.motion_class in (MotionClass.TRANSLATIONAL, MotionClass.NEAR_ROTATIONAL)
