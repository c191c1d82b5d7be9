import math

import pytest

from vib2move.contact import ContactPatch, ObjectModel
from vib2move.integrator import ContactState
from vib2move.se2 import PoseSE2


def fmod_wrap_angle(a):
    """se2.wrap_angle as it was before in-range angles skipped fmod."""
    r = math.fmod(a + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


@pytest.fixture
def paper_patch():
    return ContactPatch(r0=0.015, c=0.6)


@pytest.fixture
def plate():
    return ObjectModel(mass=0.09, extents=(0.09, 0.15))


def state_with_contact_at(patch, contact_obj_frame, theta_o=0.0, vibration_on=True,
                          finger=PoseSE2(0, 0, 0)):
    """Place the object so its given object-frame point sits at the finger.

    Assumes a centered pressure offset; convenient for constructing states
    with a known contact location on the object.
    """
    px, py = contact_obj_frame
    c, s = math.cos(theta_o), math.sin(theta_o)
    obj_pose = PoseSE2(finger.x - (c * px - s * py), finger.y - (s * px + c * py), theta_o)
    return ContactState(finger, obj_pose, patch, vibration_on)


@pytest.fixture
def kernel_spy(monkeypatch):
    """Record (record flag, records returned) for every kernel call."""
    from vib2move import _backend

    real = _backend.rollout_core
    calls = []

    def spy(*args):
        out = real(*args)
        calls.append((bool(args[18]), len(out[5])))
        return out

    monkeypatch.setattr(_backend, "rollout_core", spy)
    return calls
