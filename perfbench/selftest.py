#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is emitted, with its unit, by the
     untraced and the traced run of each workload;
  2. child spans fall inside their parents, and self times sum to no more
     than the traced wall time;
  3. every wrapped layer has nonzero calls on the workload that should
     exercise it (the `predict` command, which no workload runs, is traced
     in-process here);
  4. the wrappers are removed before any untraced run.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run
import tracing

SEED = 3
TINY_OPS = {"mc_noisy": 2, "pulse_eval": 3, "plan_export": 4}

ALL = {"mc_noisy", "pulse_eval", "plan_export"}
PLANNED = {"mc_noisy", "plan_export"}
# target key -> workloads that must call it; "predict" is the in-process
# run below; None marks names the program only reaches through cli's own
# bindings, which are checked for install and removal only
EXPECTED = {
    "_backend.rollout_core": ALL,
    "planner._pressure_error_from_pulse": PLANNED,
    "planner._size_pulse": PLANNED,
    "planner._predict_pulse": PLANNED,
    "integrator._points_from_records": ALL,
    "harness.sample_goal": {"mc_noisy"},
    "harness.check_reachability": {"mc_noisy"},
    "harness.vibration_pulse": ALL,
    "harness.plan_and_execute": {"mc_noisy"},
    "harness.PlantEnv.pulse": PLANNED,
    "cli.plan_and_execute": {"plan_export"},
    "cli.vibration_pulse": {"predict"},
    "cli.run_reconfiguration_eval": {"mc_noisy"},
    "cli.run_single_pulse_eval": {"pulse_eval"},
    "cli.write_trajectory_csv": {"plan_export", "predict"},
    "cli.json": ALL,
    "cli.load_scenario": {"plan_export", "predict"},
    "cli.load_eval_config": {"mc_noisy", "pulse_eval"},
    "cli.plot_pulse_path": {"predict"},
    "cli.plot_plan_object_frame": {"plan_export"},
    "cli.plot_error_distribution": {"mc_noisy"},
    "svgplot.plot_pulse_path": None,
    "svgplot.plot_plan_object_frame": None,
    "svgplot.plot_error_distribution": None,
}


def fail(msg: str):
    print(f"FAIL {msg}")
    sys.exit(1)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--ops", str(TINY_OPS[workload])],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(spec: list[dict], result: dict, what: str) -> None:
    if not result["correct"] or result["failed"]:
        fail(f"{what}: outputs failed their checks")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{what}: emitted {sorted(set(got) ^ set(want)) or got} differ from BENCHMARK.json")


def check_wrappers_removed() -> None:
    originals = {}
    for module, attr, _ in tracing.TARGETS:
        owner, field = tracing._resolve(module, attr)
        originals[(module, attr)] = getattr(owner, field)
    tracer = tracing.Tracer()
    tracer.install()
    for module, attr, _ in tracing.TARGETS:
        owner, field = tracing._resolve(module, attr)
        if getattr(owner, field) is originals[(module, attr)]:
            fail(f"{module}.{attr} was not wrapped by install()")
    tracer.uninstall()
    for module, attr, _ in tracing.TARGETS:
        owner, field = tracing._resolve(module, attr)
        if getattr(owner, field) is not originals[(module, attr)]:
            fail(f"{module}.{attr} was not restored by uninstall()")


def predict_calls() -> dict:
    from vib2move import cli

    os.environ["VIB2MOVE_LOG"] = "quiet"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=run.BUILD) as out:
            rc = cli.main(["predict", "--scenario", "demo_pulse", "--n-steps", "50", "--out", out])
    finally:
        tracer.uninstall()
    if rc != 0:
        fail(f"predict exited {rc}")
    return dict(tracer.calls)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    info = run.build()
    sys.path.insert(0, info["lib"])
    if set(EXPECTED) != {tracing.target_key(m, a) for m, a, _ in tracing.TARGETS}:
        fail("EXPECTED does not list exactly the traced targets")

    check_wrappers_removed()
    print("PASS wrappers are installed on every target and removed by uninstall()")

    calls = {"predict": predict_calls()}
    for workload in sorted(ALL):
        check_emitted(spec["end_to_end"], bench(workload, 0), f"{workload} untraced")
        check_emitted(spec["per_layer"], bench(workload, 1), f"{workload} traced")
        doc = json.loads((run.BUILD / "results" / f"{workload}-seed{SEED}-trace1.json").read_text())
        facts = doc["facts"]
        calls[workload] = facts["wrapper_calls"]
        if not facts["untraced_op_s"] > 0:
            fail(f"{workload}: no untraced replay after the wrappers were removed")
        spans = tracing.read_spans(run.BUILD / "work" / workload / f"{workload}.spans.jsonl.gz")
        problems = tracing.check_spans(spans, facts["traced_wall_s"])
        if problems:
            fail(f"{workload} spans: {problems[:5]}")
        print(f"PASS {workload}: all metrics emitted with units; {len(spans)} spans nest "
              f"and their self times fit in {facts['traced_wall_s']:.3f} s")

    for key, where in EXPECTED.items():
        for workload in where or ():
            if not calls[workload].get(key):
                fail(f"{key} has no calls on {workload}")
    print("PASS every wrapped layer is called on the workloads that should exercise it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
