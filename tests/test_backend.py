"""The compiled and pure-Python kernels must be interchangeable."""

import collections
import random

import pytest

from vib2move import _backend, _reference

try:
    from vib2move import _native
except ImportError:
    _native = None


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


def test_backend_is_selected():
    assert _backend.BACKEND in ("native", "python")
    assert callable(_backend.rollout_core)


@pytest.mark.skipif(_native is None, reason="compiled kernel not built")
def test_kernels_bit_identical():
    # predictive and reached stop targets, rest stops, drops and budget
    # ends, with and without the optional stop arguments
    rng = random.Random(123)
    statuses = collections.Counter()
    for i in range(400):
        args = list(random_args(rng, 3000, i % 2 == 0))
        variant = i % 5
        if variant == 1:
            args[-2] = 1e-5
        elif variant == 2:
            args.append(rng.uniform(0.001, 0.03))
        elif variant == 3:
            args += [-1.0, rng.uniform(0.01, 0.5)]
        elif variant == 4:
            args += [rng.uniform(0.001, 0.03), rng.uniform(0.01, 0.5)]
        ref = _reference.rollout_core(*args)
        nat = _native.rollout_core(*args)
        assert repr(ref) == repr(nat)
        statuses[ref[0]] += 1
    assert set(statuses) == {
        _reference.STATUS_BUDGET, _reference.STATUS_REST,
        _reference.STATUS_DROPPED, _reference.STATUS_TARGET,
    }


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
