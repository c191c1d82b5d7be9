"""The compiled and pure-Python kernels must be interchangeable."""

import collections
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vib2move import _backend, _reference
from vib2move._reference import STATUS_BUDGET, STATUS_DROPPED, STATUS_REST, STATUS_TARGET
from vib2move.contact import (
    ContactPatch,
    ObjectModel,
    balance_wrench,
    build_limit_surface,
    ls_scale,
    motion_direction,
)
from vib2move.harness import default_objects
from vib2move.integrator import (
    PulseSpec,
    _kernel_args,
    _run_kernel,
    com_world,
    pressure_center_world,
    rollout_to_rest,
    slide_step,
    vibration_pulse,
)
from vib2move.planner import _pressure_error_from_pulse
from vib2move.se2 import PoseSE2, apply_twist, wrap_angle

from conftest import KERNELS, _native, fmod_wrap_angle, select_kernel, state_with_contact_at


def random_args(rng, n_steps, record):
    return (
        rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(-3.1, 3.1),
        rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02), rng.uniform(-1.2, 1.5),
        rng.uniform(-0.004, 0.004), rng.uniform(-0.004, 0.004),
        rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
        0.045, 0.075,
        rng.uniform(0.05, 0.1), 9.81, 0.009,
        1e-3, n_steps, -1.0, record,
    )


def random_calls(rng, n_calls, n_steps):
    """Argument lists covering predictive and reached stop targets, rest
    stops, drops and budget ends, recorded and not, with and without the
    optional stop arguments (19, 20 and 21 args)."""
    for i in range(n_calls):
        args = list(random_args(rng, n_steps, i % 2 == 0))
        variant = i % 5
        if variant == 1:
            args[-2] = 1e-5
        elif variant == 2:
            args.append(rng.uniform(0.001, 0.03))
        elif variant == 3:
            args += [-1.0, rng.uniform(0.01, 0.5)]
        elif variant == 4:
            args += [rng.uniform(0.001, 0.03), rng.uniform(0.01, 0.5)]
        yield args


ALL_STATUSES = {STATUS_BUDGET, STATUS_REST, STATUS_DROPPED, STATUS_TARGET}

_R0 = 0.015


def random_grid_calls(rng, n_calls):
    """rollout_grid argument lists: no lane, one lane or up to 20, some
    offsets on the patch rim, n_max of 0, 1 or up to 400, and the
    observation near the start pose or anywhere on the circle."""
    for _ in range(n_calls):
        n_max = rng.choice((0, 1, 1, rng.randint(2, 400), rng.randint(2, 400)))
        core = random_args(rng, n_max, False)
        offsets = []
        for _ in range(rng.choice((0, 1, rng.randint(2, 20), rng.randint(2, 20)))):
            rho = _R0 * (1.0 - 1e-12) if rng.random() < 0.25 else rng.uniform(0.0, _R0)
            ang = rng.uniform(-math.pi, math.pi)
            offsets.append((rho * math.cos(ang), rho * math.sin(ang)))
        obs = (core[0] + rng.gauss(0.0, 0.01), core[1] + rng.gauss(0.0, 0.01),
               rng.uniform(-math.pi, math.pi))
        yield (*core[:6], offsets, *core[8:17], *obs, 0.0015, 0.013)


def _lane_kind(status, n_done, n_max):
    if status == STATUS_DROPPED:
        return "drop_at_step_1" if n_done == 1 else "drop_mid_pulse"
    return f"budget_{min(n_max, 2)}"


def test_backend_is_selected():
    assert _backend.BACKEND in ("native", "python")
    assert callable(_backend.rollout_core)


# a compiled kernel built before rollout_grid existed
_STALE_NATIVE = """
import sys, types
stale = types.ModuleType("vib2move._native")
stale.rollout_core = lambda *args: None
sys.modules["vib2move._native"] = stale
import vib2move.planner
from vib2move import _backend
print(_backend.BACKEND, _backend.rollout_grid.__module__)
"""


@pytest.mark.parametrize("forced", ["", "native"], ids=["auto", "forced_native"])
def test_stale_native_build(forced):
    """A stale extension falls back to Python, or when native is forced,
    fails the import with a message to rebuild."""
    src = str(Path(_backend.__file__).resolve().parents[1])
    env = {**os.environ, "VIB2MOVE_BACKEND": forced,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _STALE_NATIVE], env=env,
                          capture_output=True, text=True, timeout=120)
    if forced:
        assert proc.returncode != 0
        assert "ImportError: VIB2MOVE_BACKEND=native" in proc.stderr
        assert "rebuild" in proc.stderr
        assert "AttributeError" not in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["python", "vib2move._reference"]


@pytest.mark.skipif(_native is None, reason="compiled kernel not built")
def test_kernels_bit_identical():
    rng = random.Random(123)
    statuses = collections.Counter()
    for args in random_calls(rng, 400, 3000):
        ref = _reference.rollout_core(*args)
        nat = _native.rollout_core(*args)
        assert repr(ref) == repr(nat)
        statuses[ref[0]] += 1
    assert set(statuses) == ALL_STATUSES
    lanes = collections.Counter()
    for args in random_grid_calls(rng, 300):
        ref = _reference.rollout_grid(*args)
        assert repr(ref) == repr(_native.rollout_grid(*args))
        lanes[len(ref) if len(ref) < 2 else "many"] += 1
    assert set(lanes) == {0, 1, "many"}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_steps_are_the_contact_model(kernel):
    """Each recorded kernel step is one step of the contact model: x_c is
    the lever of the step's start pose, (uy, uw) is motion_direction at
    the gravity balance wrench of that x_c, bit for bit and with no vx,
    k is its ls_scale to 1e-15 relative, and the end pose is apply_twist
    of the start pose about the pressure center for the arc ds * k."""
    rng = random.Random(2718)
    n_steps = 0
    for entry in default_objects():
        plate = entry["model"]
        hx, hy = plate.extents[0] / 2.0, plate.extents[1] / 2.0
        for _ in range(8):
            obj = replace(plate, com_offset=(rng.uniform(-0.3, 0.3) * hx,
                                             rng.uniform(-0.3, 0.3) * hy))
            rho, ang = rng.uniform(0.0, 0.9 * _R0), rng.uniform(-math.pi, math.pi)
            patch = ContactPatch(r0=_R0, pressure_center_offset=(rho * math.cos(ang),
                                                                 rho * math.sin(ang)))
            finger = PoseSE2(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
                             rng.uniform(-math.pi, math.pi))
            state = state_with_contact_at(
                patch, (rng.uniform(-0.6, 0.6) * hx, rng.uniform(-0.6, 0.6) * hy),
                rng.uniform(-math.pi, math.pi), finger=finger)
            ds = rng.choice((5e-5, 2e-4))
            records = kernel.rollout_core(*_kernel_args(state, obj, ds, 150, record=True))[5]
            ls = build_limit_surface(patch)
            pc = pressure_center_world(state)
            prev = state.object_pose_w
            for ox, oy, oth, uy, uw, k, xc in records:
                assert xc == com_world(prev, obj)[0] - pc[0]
                w = balance_wrench(obj, xc)
                twist = motion_direction(ls, w)
                assert (twist.vx, twist.vy, twist.omega) == (0.0, uy, uw)
                assert k == pytest.approx(ls_scale(ls, w), rel=1e-15, abs=0.0)
                pose = PoseSE2(ox, oy, oth)
                assert pose == apply_twist(prev, twist, pc, ds * k)
                prev = pose
            n_steps += len(records)
    assert n_steps >= 5000


@pytest.mark.parametrize("kernel", KERNELS)
def test_grid_lanes_match_rollout_core(kernel):
    """Each rollout_grid lane scores rollout_core(..., -1.0, False)'s end
    pose, wrapped once more as a PoseSE2 would be, with match_cost."""
    rng = random.Random(789)
    seen = collections.Counter()
    for args in random_grid_calls(rng, 300):
        core = [*args[:6], 0.0, 0.0, *args[7:16], -1.0, False]
        obs = args[16:]
        costs = kernel.rollout_grid(*args)
        assert len(costs) == len(args[6])
        for (core[6], core[7]), cost in zip(args[6], costs):
            status, n_done, x, y, th, _ = kernel.rollout_core(*core)
            assert repr(cost) == repr(_reference.match_cost(x, y, wrap_angle(th), *obs))
            seen[_lane_kind(status, n_done, args[15])] += 1
        seen["no_lanes"] += not costs
    assert set(seen) == {"drop_at_step_1", "drop_mid_pulse", "budget_0", "budget_1",
                         "budget_2", "no_lanes"}
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("kernel", KERNELS)
def test_non_finite_input_rejected_on_every_kernel(kernel, monkeypatch):
    """Every kernel entry rejects a non-finite pose or offset value, and a
    ds that is not finite and positive, by name before the kernel runs,
    whichever kernel is selected."""
    select_kernel(monkeypatch, kernel)
    obj = ObjectModel(mass=0.09, extents=(0.09, 0.15))
    patch = ContactPatch(r0=_R0)
    state = state_with_contact_at(patch, (0.01, 0.02))
    pose = state.object_pose_w

    def unchecked_pulse(ds):
        # PulseSpec refuses such a ds itself; this one reaches the kernel path
        spec = PulseSpec(1e-3, 5)
        object.__setattr__(spec, "step_ds", ds)
        return spec

    entries = [
        slide_step,
        lambda st, ob, ds: vibration_pulse(st, ob, unchecked_pulse(ds)),
        lambda st, ob, ds: rollout_to_rest(st, ob, ds, max_steps=5),
        lambda st, ob, ds: _run_kernel(st, ob, ds, 5),  # rollout_core
        lambda st, ob, ds: _pressure_error_from_pulse(st, ob, ds, 5, pose, pose),  # rollout_grid
    ]
    # PoseSE2 wraps its angle and so refuses an infinite one; a state that
    # holds one anyway gets it set behind the constructor's back
    inf_angle = PoseSE2(pose.x, pose.y, 0.0)
    object.__setattr__(inf_angle, "theta", math.inf)
    cases = {
        "object_pose_w.x must be finite": (
            replace(state, object_pose_w=PoseSE2(math.nan, pose.y, pose.theta)), obj, 1e-3),
        "object_pose_w.y must be finite": (
            replace(state, object_pose_w=PoseSE2(pose.x, -math.inf, pose.theta)), obj, 1e-3),
        "object_pose_w.theta must be finite": (replace(state, object_pose_w=inf_angle), obj, 1e-3),
        "finger_pose_w.theta must be finite": (
            replace(state, finger_pose_w=PoseSE2(0.0, 0.0, math.nan)), obj, 1e-3),
        "patch.pressure_center_offset[1] must be finite": (
            replace(state, patch=ContactPatch(r0=_R0, pressure_center_offset=(0.0, math.nan))),
            obj, 1e-3),
        "obj.com_offset[0] must be finite": (state, replace(obj, com_offset=(math.inf, 0.0)), 1e-3),
    }
    for ds in (math.nan, math.inf, 0.0, -1e-3):
        cases[f"ds must be finite and positive, got {ds}"] = (state, obj, ds)
    for message, (st, ob, ds) in cases.items():
        for call in entries:
            with pytest.raises(ValueError, match=re.escape(message)):
                call(st, ob, ds)


_TWO_PI = 2.0 * math.pi


def _rollout_core_recomputing_angle_terms(
    ox, oy, oth,
    fx, fy, fth,
    pdx, pdy,
    cdx, cdy,
    hx, hy,
    mass, gravity, a3,
    ds, n_max, stop_eps, record,
    stop_travel=-1.0, stop_rot=-1.0,
):
    """The Python kernel as it was before cos/sin of the object angle were
    carried from one step's drop check into the next step and the loop
    invariants were hoisted; kept verbatim as the reference."""
    cf = math.cos(fth)
    sf = math.sin(fth)
    pcx = fx + cf * pdx - sf * pdy
    pcy = fy + sf * pdx + cf * pdy
    mg = mass * gravity
    a3sq = a3 * a3
    records = []
    status = STATUS_BUDGET
    n_done = 0
    travel = 0.0
    rot = 0.0
    for i in range(n_max):
        co = math.cos(oth)
        so = math.sin(oth)
        comx = ox + co * cdx - so * cdy
        comy = oy + so * cdx + co * cdy
        xc = comx - pcx
        if stop_eps > 0.0 and comy < pcy and abs(xc) < stop_eps:
            status = STATUS_REST
            break
        wy = -mg
        wt = -mg * xc
        ty = wy
        tw = wt / a3sq
        n = math.sqrt(ty * ty + tw * tw)
        uy = ty / n
        uw = tw / n
        tt = wt / a3
        k = 1.0 / (wy * wy + tt * tt)
        h = ds * k
        phi = uw * h
        # predictive stop: do not take a step that would overshoot a stop
        # target by more than half the step itself
        if stop_travel > 0.0:
            step_t = h * abs(uy)
            if travel + step_t > stop_travel and stop_travel - travel < 0.5 * step_t:
                status = STATUS_TARGET
                break
        if stop_rot > 0.0:
            step_r = abs(phi)
            if rot + step_r > stop_rot and stop_rot - rot < 0.5 * step_r:
                status = STATUS_TARGET
                break
        cphi = math.cos(phi)
        sphi = math.sin(phi)
        rx = ox - pcx
        ry = oy - pcy
        ox = pcx + cphi * rx - sphi * ry
        oy = pcy + sphi * rx + cphi * ry + uy * h
        oth = oth + phi
        r = math.fmod(oth + math.pi, _TWO_PI)
        if r <= 0.0:
            r += _TWO_PI
        oth = r - math.pi
        n_done = i + 1
        if record:
            records.append((ox, oy, oth, uy, uw, k, xc))
        co = math.cos(oth)
        so = math.sin(oth)
        dx = pcx - ox
        dy = pcy - oy
        lx = co * dx + so * dy
        ly = -so * dx + co * dy
        if lx > hx or -lx > hx or ly > hy or -ly > hy:
            status = STATUS_DROPPED
            break
        travel += h * abs(uy)
        rot += abs(phi)
        if (stop_travel > 0.0 and travel >= stop_travel) or (stop_rot > 0.0 and rot >= stop_rot):
            status = STATUS_TARGET
            break
    return status, n_done, ox, oy, oth, records


def _match_cost_fmod_wrap(x, y, theta, obs_x, obs_y, obs_theta, sigma_pos, sigma_theta):
    """_reference.match_cost with the angle wrapped by the fmod formula."""
    return ((x - obs_x) ** 2 + (y - obs_y) ** 2) / sigma_pos ** 2 \
        + fmod_wrap_angle(theta - obs_theta) ** 2 / sigma_theta ** 2


def _rollout_grid_fmod_wrap(
    ox, oy, oth,
    fx, fy, fth,
    offsets,
    cdx, cdy,
    hx, hy,
    mass, gravity, a3,
    ds, n_max,
    obs_x, obs_y, obs_theta, sigma_pos, sigma_theta,
):
    """The Python rollout_grid as it was before in-range angles skipped
    fmod and the contact offset was carried from one step's drop check
    into the next step's rotation; kept verbatim as the reference, with
    its two wrap_angle calls spelled as the fmod formula."""
    cos, sin, sqrt, fmod = math.cos, math.sin, math.sqrt, math.fmod
    pi, two_pi = math.pi, _TWO_PI
    cf = cos(fth)
    sf = sin(fth)
    mg = mass * gravity
    a3sq = a3 * a3
    wy = -mg
    wy2 = wy * wy
    co0 = cos(oth)
    so0 = sin(oth)
    costs = []
    for pdx, pdy in offsets:
        pcx = fx + cf * pdx - sf * pdy
        pcy = fy + sf * pdx + cf * pdy
        x, y, th, co, so = ox, oy, oth, co0, so0
        for _ in range(n_max):
            wt = wy * (x + co * cdx - so * cdy - pcx)
            tw = wt / a3sq
            n = sqrt(wy2 + tw * tw)
            tt = wt / a3
            h = ds * (1.0 / (wy2 + tt * tt))
            phi = tw / n * h
            cphi = cos(phi)
            sphi = sin(phi)
            rx = x - pcx
            ry = y - pcy
            x = pcx + cphi * rx - sphi * ry
            y = pcy + sphi * rx + cphi * ry + wy / n * h
            r = fmod(th + phi + pi, two_pi)
            if r <= 0.0:
                r += two_pi
            th = r - pi
            co = cos(th)
            so = sin(th)
            dx = pcx - x
            dy = pcy - y
            lx = co * dx + so * dy
            ly = -so * dx + co * dy
            if lx > hx or -lx > hx or ly > hy or -ly > hy:
                break
        costs.append(_match_cost_fmod_wrap(x, y, fmod_wrap_angle(th), obs_x, obs_y, obs_theta,
                                           sigma_pos, sigma_theta))
    return costs


def test_python_kernel_matches_recomputing_reference():
    rng = random.Random(456)
    statuses = collections.Counter()
    arities = collections.Counter()
    for args in random_calls(rng, 1000, 500):
        got = _reference.rollout_core(*args)
        assert repr(got) == repr(_rollout_core_recomputing_angle_terms(*args))
        statuses[got[0]] += 1
        arities[len(args), args[18]] += 1
    assert set(statuses) == ALL_STATUSES
    assert set(arities) == {(n, rec) for n in (19, 20, 21) for rec in (False, True)}


def test_python_grid_matches_fmod_reference():
    rng = random.Random(789)
    for args in random_grid_calls(rng, 300):
        assert repr(_reference.rollout_grid(*args)) == repr(_rollout_grid_fmod_wrap(*args))


def _edge_core_calls():
    """rollout_core calls on the wrap's edges and with a zero contact offset.

    With no center-of-mass offset and the object x exactly at the pressure
    center's, x_c and so phi are 0: from oth = pi every step's shifted
    angle oth + phi + pi is exactly 2 pi, from oth = -pi the first one is
    exactly 0, and the object slides straight down until it drops or
    reaches a travel stop. The offset lever starts a rotation from the
    same zero contact offset; the huge angles take the fmod path."""
    mass_gravity_a3_ds = (0.09, 9.81, 0.009, 1e-3)
    for fth, pdx, pdy in ((0.0, 0.0, 0.0), (0.3, 0.002, -0.001)):
        fx, fy = 0.01, -0.004
        pcx = fx + math.cos(fth) * pdx - math.sin(fth) * pdy
        for oth, cdx in ((math.pi, 0.0), (-math.pi, 0.0), (0.0, 0.003), (math.pi, -0.002),
                         (3.0 * math.pi, 0.001), (1e300, 0.001)):
            base = [pcx, 0.02, oth, fx, fy, fth, pdx, pdy, cdx, 0.0, 0.045, 0.075,
                    *mass_gravity_a3_ds, 200]
            yield base + [-1.0, True]
            yield base + [-1.0, False, 0.01]
            yield base + [1e-5, True, 0.05, 0.3]


def _edge_grid_calls():
    """rollout_grid calls whose zero-offset lane has x_c = 0 (see
    _edge_core_calls), with step budgets of 0, 1 and 200, so the end-of-lane
    wrap also meets unwrapped start angles."""
    fx = 0.01
    offsets = [(0.0, 0.0), (0.001, 0.0), (-0.002, 0.001)]
    for oth in (math.pi, -math.pi, 3.0 * math.pi, 1e300, 0.5):
        for n_max in (0, 1, 200):
            yield (fx, 0.02, oth, fx, -0.004, 0.0, offsets, 0.0, 0.0, 0.045, 0.075,
                   0.09, 9.81, 0.009, 1e-3, n_max, fx, -0.01, math.pi, 0.0015, 0.013)


@pytest.mark.parametrize("kernel", KERNELS)
def test_edge_calls_match_the_kept_references(kernel):
    for args in _edge_core_calls():
        assert repr(kernel.rollout_core(*args)) == repr(
            _rollout_core_recomputing_angle_terms(*args))
    for args in _edge_grid_calls():
        assert repr(kernel.rollout_grid(*args)) == repr(_rollout_grid_fmod_wrap(*args))
    # the straight slide from oth = pi keeps phi at 0 and the angle at pi,
    # so every one of its steps met the 2 pi edge, until it dropped
    status, n_done, _, _, _, records = kernel.rollout_core(*next(_edge_core_calls()))
    assert status == STATUS_DROPPED and n_done > 10
    assert {(r[2], r[4]) for r in records} == {(math.pi, 0.0)}


@pytest.mark.skipif(_native is None, reason="compiled kernel not built")
def test_kernels_bit_identical_with_rest_stop():
    rng = random.Random(321)
    for _ in range(30):
        args = list(random_args(rng, 5000, False))
        args[-2] = 1e-5  # stop at stable alignment
        ref = _reference.rollout_core(*args)
        nat = _native.rollout_core(*args)
        assert ref == nat


def test_status_constants_agree():
    assert _backend.STATUS_BUDGET == _reference.STATUS_BUDGET == 0
    assert _backend.STATUS_REST == _reference.STATUS_REST == 1
    assert _backend.STATUS_DROPPED == _reference.STATUS_DROPPED == 2
    assert _backend.STATUS_TARGET == _reference.STATUS_TARGET == 3
