"""Kernel microbenchmark: Msteps/s of every importable rollout backend.

Runs the same fixed slide as benchmarks/bench_rollout.py (same arguments
and arc step), with and without per-step recording, best of a few
repeats, so the two scripts' numbers compare directly.
"""

from __future__ import annotations

import importlib.util
import time

ARGS = (
    0.012, 0.02, 0.0,      # object pose
    0.0, 0.0, 0.0,         # finger pose
    0.001, -0.0005,        # pressure center offset
    0.003, 0.002,          # com offset
    0.045, 0.075,          # half extents
    0.09, 9.81, 0.009,     # mass, gravity, a3
)
DS = 2e-5


def load_native(path):
    """Load a compiled kernel from a file outside the package directory."""
    spec = importlib.util.spec_from_file_location("vib2move._native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _msteps_per_s(rollout_core, steps: int, repeats: int, record: bool) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        status, n_done, *_ = rollout_core(*ARGS, DS, steps, -1.0, record)
        best = min(best, time.perf_counter() - t0)
        if status != 0 or n_done != steps:
            raise RuntimeError(f"kernel bench stopped early: status {status}, {n_done} steps")
    return steps / best / 1e6


def run(kernels: dict, steps: int = 200_000, repeats: int = 3) -> dict:
    """{backend: {"unrecorded": Msteps/s, "recorded": Msteps/s}} plus the
    native/python ratios when both backends are present."""
    out = {name: {mode: _msteps_per_s(k.rollout_core, steps, repeats, mode == "recorded")
                  for mode in ("unrecorded", "recorded")}
           for name, k in kernels.items()}
    if "native" in out and "python" in out:
        out["native_over_python"] = {mode: out["native"][mode] / out["python"][mode]
                                     for mode in ("unrecorded", "recorded")}
    return out
