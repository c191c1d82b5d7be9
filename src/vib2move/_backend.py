"""Kernel backend selection: compiled extension if available, else pure Python.

Set VIB2MOVE_BACKEND=python or VIB2MOVE_BACKEND=native to force a choice
(forcing native raises if the extension was not built, or was built from
older sources that lack one of the kernel entries).
"""

import os

from . import _reference
from ._reference import STATUS_BUDGET, STATUS_DROPPED, STATUS_REST, STATUS_TARGET


def _select(forced: str):
    if forced != "python":
        try:
            from . import _native
        except ImportError:
            _native = None
        if all(hasattr(_native, name) for name in ("rollout_core", "rollout_grid")):
            return "native", _native
        if forced == "native":
            raise ImportError(
                "VIB2MOVE_BACKEND=native but the compiled kernel is missing or stale; "
                "rebuild it with a C compiler available (python setup.py build_ext --inplace)")
    return "python", _reference


BACKEND, _kernel = _select(os.environ.get("VIB2MOVE_BACKEND", "").strip().lower())
rollout_core = _kernel.rollout_core
rollout_grid = _kernel.rollout_grid
