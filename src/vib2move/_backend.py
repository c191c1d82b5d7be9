"""Kernel backend selection: compiled extension if available, else pure Python.

Set VIB2MOVE_BACKEND=python or VIB2MOVE_BACKEND=native to force a choice
(forcing native raises if the extension was not built).
"""

import os

from . import _reference

STATUS_BUDGET = _reference.STATUS_BUDGET
STATUS_REST = _reference.STATUS_REST
STATUS_DROPPED = _reference.STATUS_DROPPED
STATUS_TARGET = _reference.STATUS_TARGET

_forced = os.environ.get("VIB2MOVE_BACKEND", "").strip().lower()

if _forced == "python":
    BACKEND = "python"
    rollout_core = _reference.rollout_core
else:
    try:
        from . import _native

        BACKEND = "native"
        rollout_core = _native.rollout_core
    except ImportError:
        if _forced == "native":
            raise ImportError(
                "VIB2MOVE_BACKEND=native but the compiled kernel is not built; "
                "reinstall with a C compiler available"
            )
        BACKEND = "python"
        rollout_core = _reference.rollout_core
