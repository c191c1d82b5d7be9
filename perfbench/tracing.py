"""Span tracing of vib2move's layers from outside the package.

Nothing under src/ is edited: `install` swaps module attributes for timing
wrappers and `uninstall` puts the originals back. A name bound by
`from ... import` is a separate reference in the importing module, so it
is wrapped there too, or calls through it would go unseen.

Each span is (name, start, end, parent), kept in flat arrays in memory
and written out once when the run ends. Counters are taken at the same
boundaries, so the per-layer ratios are measured where the work happens.
`se2` and `contact` are called too often to wrap; their time shows up as
planner self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from array import array
from collections import Counter

MARK = "__perfbench_wrapper__"

# (module, attribute path, span name). The kernel wrapper is special-cased
# below because it attributes each call to its caller.
TARGETS = [
    ("vib2move._backend", "rollout_core", "kernel"),
    ("vib2move.planner", "_pressure_error_from_pulse", "planner.estimator"),
    ("vib2move.planner", "_size_pulse", "planner.sizing"),
    ("vib2move.planner", "_predict_pulse", "planner.predict"),
    ("vib2move.integrator", "_points_from_records", "integrator.points"),
    ("vib2move.harness", "sample_goal", "harness.sample_goal"),
    ("vib2move.harness", "check_reachability", "harness.check_reachability"),
    ("vib2move.harness", "vibration_pulse", "integrator.vibration_pulse"),
    ("vib2move.harness", "plan_and_execute", "planner.plan"),
    ("vib2move.harness", "PlantEnv.pulse", "harness.plant_pulse"),
    ("vib2move.cli", "plan_and_execute", "planner.plan"),
    ("vib2move.cli", "vibration_pulse", "integrator.vibration_pulse"),
    ("vib2move.cli", "run_reconfiguration_eval", "harness.eval"),
    ("vib2move.cli", "run_single_pulse_eval", "harness.eval"),
    ("vib2move.cli", "write_trajectory_csv", "cli.write"),
    ("vib2move.cli", "json", "cli.write"),
    ("vib2move.cli", "load_scenario", "scenario.load"),
    ("vib2move.cli", "load_eval_config", "scenario.load"),
    ("vib2move.cli", "plot_pulse_path", "svgplot"),
    ("vib2move.cli", "plot_plan_object_frame", "svgplot"),
    ("vib2move.cli", "plot_error_distribution", "svgplot"),
    ("vib2move.svgplot", "plot_pulse_path", "svgplot"),
    ("vib2move.svgplot", "plot_plan_object_frame", "svgplot"),
    ("vib2move.svgplot", "plot_error_distribution", "svgplot"),
]

# Kernel callers in order of precedence: the estimator replays through
# _predict_pulse, so an open estimator span wins over an open predict span.
CALLERS = ("estimator", "sizing", "predict")


def target_key(module: str, attr: str) -> str:
    return f"{module.removeprefix('vib2move.')}.{attr}"


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _JsonProxy:
    """Stands in for the `json` module inside cli so that dumps is timed."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[int] = []
        self.open = Counter()
        self.counts = Counter()
        self.calls = Counter()  # wrapper calls per target key
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_end.append(math.nan)
        self._stack.append(idx)
        self.open[name] += 1
        self.s_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.s_end[idx] = time.perf_counter()
        self._stack.pop()
        self.open[self.names[self.s_name[idx]]] -= 1

    def caller(self) -> str:
        for c in CALLERS:
            if self.open[f"planner.{c}"]:
                return c
        return "plant"

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, key: str, name: str, fn):
        tracer = self

        if name == "kernel":
            def wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                who = tracer.caller()
                i = tracer.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(i)
                steps = out[1]
                recorded = len(out[5]) if out[5] else 0
                c = tracer.counts
                c["kernel.calls"] += 1
                c[f"kernel.calls.{who}"] += 1
                c["kernel.steps"] += steps
                c[f"kernel.steps.{who}"] += steps
                c["kernel.steps_recorded"] += recorded
                return out
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                span = name
                if name == "planner.predict" and tracer.open["planner.estimator"]:
                    span = "planner.estimator.replay"
                elif name == "harness.check_reachability" and tracer.open["harness.sample_goal"]:
                    tracer.counts["harness.goal_attempts"] += 1
                i = tracer.begin(span)
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if key == "cli.plan_and_execute":
                        tracer.counts[f"failures.{type(exc).__name__}"] += 1
                    raise
                finally:
                    tracer.end(i)
                tracer._observe(key, name, args, out)
                return out

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def _observe(self, key: str, name: str, args, out) -> None:
        c = self.counts
        if name == "planner.estimator":
            c["planner.estimator.calls"] += 1
            c["planner.estimator.informative"] += out is not None
        elif name == "integrator.points":
            c["integrator.points_built"] += len(out)
        elif name == "harness.sample_goal":
            c["harness.goals"] += 1
        elif name == "harness.plant_pulse":
            c["planner.iterations"] += 1
        elif key == "cli.write_trajectory_csv":
            c["integrator.points_written"] += len(args[0])

    def install(self) -> None:
        for module, attr, name in TARGETS:
            owner, field = _resolve(module, attr)
            original = getattr(owner, field)
            key = target_key(module, attr)
            if field == "json":
                replacement = _JsonProxy(original, self._wrap(key, name, original.dumps))
            else:
                replacement = self._wrap(key, name, original)
            self._saved.append((owner, field, original))
            setattr(owner, field, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, field, original = self._saved.pop()
            setattr(owner, field, original)
        assert_unwrapped()

    # -- results -----------------------------------------------------------

    def busy(self) -> Counter:
        out = Counter()
        for i in range(len(self.s_name)):
            out[self.names[self.s_name[i]]] += self.s_end[i] - self.s_start[i]
        return out

    def self_times(self) -> Counter:
        """Span duration minus the time covered by its direct children.

        Spans come from one thread and close in stack order, so children of
        one parent never overlap and their durations can simply be summed.
        """
        n = len(self.s_name)
        own = [self.s_end[i] - self.s_start[i] for i in range(n)]
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                own[p] -= self.s_end[i] - self.s_start[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.s_name[i]]] += own[i]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.s_name)):
                fh.write(json.dumps([i, self.names[self.s_name[i]], self.s_start[i],
                                     self.s_end[i], self.s_parent[i]]) + "\n")


def assert_unwrapped() -> None:
    """Raise if any traced attribute still holds a wrapper."""
    for module, attr, _ in TARGETS:
        owner, field = _resolve(module, attr)
        value = getattr(owner, field)
        if getattr(value, MARK, False) or isinstance(value, _JsonProxy):
            raise RuntimeError(f"{module}.{attr} is still wrapped")


def read_spans(path) -> list[list]:
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]


def check_spans(spans: list[list], wall_s: float, slack: float = 1e-6) -> list[str]:
    """Problems with a span list: a child outside its parent, or self times
    summing to more than the traced wall time."""
    problems = []
    own = [end - start for _, _, start, end, _ in spans]
    for i, name, start, end, parent in spans:
        if not end >= start:
            problems.append(f"span {i} {name} has end {end} before start {start}")
        if parent >= 0:
            _, pname, pstart, pend, _ = spans[parent]
            if start < pstart - slack or end > pend + slack:
                problems.append(f"span {i} {name} lies outside its parent {parent} {pname}")
            own[parent] -= end - start
    total = sum(own)
    if total > wall_s + slack:
        problems.append(f"self times sum to {total:.6f} s, "
                        f"more than the traced wall {wall_s:.6f} s")
    return problems
