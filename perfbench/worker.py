"""Runs one workload in a fresh single-threaded process; started by run.py.

Untraced (the default), it runs ops for a time budget and reports the
end-to-end metrics. With --trace it runs a fixed, seed-determined number
of ops under the layer wrappers, removes them, replays the same ops
untraced to measure the tracing overhead, and reports the per-layer
metrics. Results go to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import math
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import kernelbench
import tracing
from workloads import FAILURE_CLASSES, WORKLOADS, OpResult

# a much slower program ends its quality set early rather than overrun the run
MAX_BUSY_S = 120.0
# outputs of the repository's byte-identity acceptance check (criterion 10)
C10_RUNS = (
    ("plan", ["plan", "--scenario", "demo_plan", "--seed", "5"],
     ("trajectory.csv", "actions.json", "metrics.json", "path.svg")),
    ("eval", ["evaluate", "--config", "eval_noisy", "--seed", "5"],
     ("trials.csv", "table.csv", "metrics.json", "error_distribution.svg")),
)


class _ErrorLog(logging.Handler):
    """Keeps the CLI's error messages, from which the planner's verdict is read."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class Runner:
    def __init__(self, workload, work: Path):
        from vib2move import cli

        self.cli = cli
        self.wl = workload
        self.out = work / "out"
        self.errors = _ErrorLog()
        logger = logging.getLogger("vib2move")
        logger.addHandler(self.errors)
        logger.propagate = False
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, i: int, tracer=None) -> tuple[float, OpResult]:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.wl.argv(i, self.out)
        self.errors.messages.clear()
        built = tracer.counts["integrator.points_built"] if tracer else 0
        span = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted as an invalid op, never fatal
            rc = None
            raised = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        if rc is None:
            res = OpResult(trials=self.wl.trials_per_op, problems=[f"cli.main raised {raised}"])
        else:
            failed = any(m.startswith("planning failed") for m in self.errors.messages)
            res = self.wl.check(rc, self.out, failed)
            if tracer and res.rows:
                built = tracer.counts["integrator.points_built"] - built
                if built != res.rows:
                    res.problems.append(f"{res.rows} CSV rows for {built} points built")
        self.attempted += res.trials
        if res.problems:
            self.failed += res.trials
            self.problems += [f"op {i}: {p}" for p in res.problems]
        return dt, res


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    wl = runner.wl
    runner.op(-1)  # warm-up: fills caches, checked but not timed
    # Timing covers every op of the time budget. Quality covers a fixed
    # number of ops, so that it depends on the seed alone, not on speed.
    lat, busy, trials, q = [], 0.0, 0, OpResult()
    i = 0
    while (busy < seconds or i < wl.quality_ops) and busy < MAX_BUSY_S:
        dt, res = runner.op(i)
        busy += dt
        lat.append(1000.0 * dt / res.trials)
        trials += res.trials
        if i < wl.quality_ops:
            q.trials += res.trials
            q.successes += res.successes
            q.sq_pos_mm += res.sq_pos_mm
            q.sq_angle_deg += res.sq_angle_deg
        i += 1
    tail = _percentile(lat, wl.tail_pct)
    ok = max(q.successes, 1)
    metrics = {
        "ops_per_s": (trials / busy, "1/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (q.successes / q.trials, "ratio"),
        "rmse_pos_mm": (math.sqrt(q.sq_pos_mm / ok), "mm"),
        "rmse_angle_deg": (math.sqrt(q.sq_angle_deg / ok), "deg"),
        "valid_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
    facts = {"calls": i, "trials": trials, "quality_trials": q.trials, "busy_s": busy,
             "latency_samples": len(lat), "tail_percentile": wl.tail_pct,
             "tail_samples_beyond": sum(v > tail for v in lat)}
    return metrics, facts


def per_layer(runner: Runner, ops: int, spans_path: Path) -> tuple[dict, dict]:
    runner.op(-1)  # warm-up, untraced
    tracer = tracing.Tracer()
    tracer.install()
    failures, out_bytes = Counter(), 0
    t0 = time.perf_counter()
    traced = 0.0
    for i in range(ops):
        dt, res = runner.op(i, tracer)
        traced += dt
        failures += res.failures
        out_bytes += res.bytes
    wall = time.perf_counter() - t0
    tracer.uninstall()
    untraced = sum(runner.op(i)[0] for i in range(ops))
    tracer.write(spans_path)

    c, busy = tracer.counts, tracer.busy()
    failures += Counter({k.removeprefix("failures."): v
                         for k, v in c.items() if k.startswith("failures.")})
    est = c["planner.estimator.calls"]
    m = {"kernel.calls": (c["kernel.calls"], "count")}
    for who in ("plant",) + tracing.CALLERS:
        m[f"kernel.calls.{who}"] = (c[f"kernel.calls.{who}"], "count")
    m["kernel.steps"] = (c["kernel.steps"], "count")
    for who in ("plant",) + tracing.CALLERS:
        m[f"kernel.steps.{who}"] = (c[f"kernel.steps.{who}"], "count")
    m.update({
        "kernel.steps_recorded": (c["kernel.steps_recorded"], "count"),
        "kernel.busy_s": (busy["kernel"], "s"),
        "kernel.msteps_per_s": (c["kernel.steps"] / busy["kernel"] / 1e6 if busy["kernel"] else 0.0,
                                "Msteps/s"),
        "planner.estimator.calls": (est, "count"),
        "planner.estimator.busy_s": (busy["planner.estimator"], "s"),
        "planner.estimator.replays_per_call": (c["kernel.calls.estimator"] / est if est else 0.0,
                                               "ratio"),
        "planner.estimator.informative_ratio": (c["planner.estimator.informative"] / est
                                                if est else 0.0, "ratio"),
        "planner.sizing.busy_s": (busy["planner.sizing"], "s"),
        "planner.predict.busy_s": (busy["planner.predict"], "s"),
        "planner.plan.self_s": (tracer.self_times()["planner.plan"], "s"),
        "planner.iterations": (c["planner.iterations"], "count"),
        "integrator.points_built": (c["integrator.points_built"], "count"),
        "integrator.points_build_s": (busy["integrator.points"], "s"),
        "integrator.points_written_ratio": (c["integrator.points_written"]
                                            / c["integrator.points_built"]
                                            if c["integrator.points_built"] else 0.0, "ratio"),
        "harness.sample_goal.busy_s": (busy["harness.sample_goal"], "s"),
        "harness.goal_attempts_per_goal": (c["harness.goal_attempts"] / c["harness.goals"]
                                           if c["harness.goals"] else 0.0, "ratio"),
        "harness.plant_pulse.busy_s": (busy["harness.plant_pulse"], "s"),
    })
    for cls in FAILURE_CLASSES:
        m[f"harness.failures.{cls}"] = (failures.pop(cls, 0), "count")
    m["harness.failures.other"] = (sum(failures.values()), "count")
    m.update({
        "cli.write.busy_s": (busy["cli.write"], "s"),
        "cli.bytes_written": (out_bytes, "bytes"),
        "svgplot.busy_s": (busy["svgplot"], "s"),
        "scenario.load.busy_s": (busy["scenario.load"], "s"),
    })
    trials = ops * runner.wl.trials_per_op
    facts = {
        "traced_ops": ops,
        "traced_wall_s": wall,
        "traced_op_s": traced,
        "untraced_op_s": untraced,
        "traced_ops_per_s": trials / traced,
        "untraced_ops_per_s": trials / untraced,
        "tracing_overhead": traced / untraced,
        "spans": len(tracer.s_name),
        "wrapper_calls": dict(tracer.calls),
        "other_failure_classes": dict(failures),
    }
    return m, facts


def criterion10_sha256(runner: Runner, work: Path) -> dict:
    out = {}
    for sub, argv, files in C10_RUNS:
        d = work / "c10" / sub
        shutil.rmtree(d, ignore_errors=True)
        rc = runner.cli.main(argv + ["--out", str(d)])
        if rc != 0:
            return {"error": f"{' '.join(argv)} exited {rc}"}
        for f in files:
            out[f"{sub}/{f}"] = hashlib.sha256((d / f).read_bytes()).hexdigest()
    out["combined"] = hashlib.sha256(
        "".join(f"{k} {v}\n" for k, v in out.items()).encode()).hexdigest()
    return out


def kernel_facts(native_so: str | None) -> dict:
    from vib2move import _reference

    kernels, source = {"python": _reference}, None
    try:
        kernels["native"] = importlib.import_module("vib2move._native")
        source = "package build"
    except ImportError:
        if native_so:
            try:
                kernels["native"] = kernelbench.load_native(native_so)
                source = "tracked _native.c compiled with setup.py's flags"
            except ImportError as exc:
                source = f"not loadable: {exc}"
    result = kernelbench.run(kernels)
    result["native_source"] = source
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    p.add_argument("--result", required=True, help="JSON file to write the result to")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--ops", type=int, default=None,
                   help="op count of the quality set or the traced run (default per workload)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--native-so", default=None)
    args = p.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    if args.ops:
        wl.quality_ops = wl.traced_ops = args.ops
    inputs = wl.prepare()
    from vib2move import _backend, scenario

    loader = getattr(scenario, wl.loader)
    for path in inputs:
        loader(path)
    if args.setup_only:
        return 0

    try:
        importlib.import_module("vib2move._native")
        native = True
    except ImportError:
        native = False
    tracing.assert_unwrapped()
    runner = Runner(wl, work)
    if args.trace:
        metrics, facts = per_layer(runner, wl.traced_ops,
                                   work / f"{wl.name}.spans.jsonl.gz")
        facts["criterion10_sha256"] = criterion10_sha256(runner, work)
        facts["kernel_bench"] = kernel_facts(args.native_so)
        metrics["kernel.bench.python.unrecorded_msteps_per_s"] = (
            facts["kernel_bench"]["python"]["unrecorded"], "Msteps/s")
        metrics["kernel.bench.python.recorded_msteps_per_s"] = (
            facts["kernel_bench"]["python"]["recorded"], "Msteps/s")
    else:
        metrics, facts = end_to_end(runner, args.seconds)
    facts.update(backend=_backend.BACKEND, native_importable=native)
    Path(args.result).write_text(json.dumps({
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems[:20], "metrics": metrics, "facts": facts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
