#!/usr/bin/env python3
"""vib2move benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload mc_noisy --seed 1 --seconds 10 --trace 0

--workload is mc_noisy, pulse_eval, plan_export or all. With --trace 0 the
end-to-end metrics are measured with no instrumentation; with --trace 1 a
fixed number of ops runs under the layer wrappers of tracing.py and the
per-layer metrics are reported instead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The package is built from this checkout with its own setup.py into
.bench_build/ (cached by a hash of the sources), and every workload runs
in a fresh single-threaded worker process. Inputs are generated from
--seed; outputs are checked after every op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0
# the flags setup.py compiles the native kernel with
NATIVE_CFLAGS = ["-O3", "-ffp-contract=off", "-fno-builtin-sin", "-fno-builtin-cos"]
BUILD_INPUTS = ("setup.py", "setup.cfg", "pyproject.toml")


def _source_files():
    skip = {"__pycache__"}
    files = [ROOT / f for f in BUILD_INPUTS if (ROOT / f).is_file()]
    for path in sorted((ROOT / "src").rglob("*")):
        parts = set(path.relative_to(ROOT).parts)
        if (path.is_file() and not parts & skip and not any(p.endswith(".egg-info") for p in parts)
                and path.suffix not in (".pyc", ".so")):
            files.append(path)
    return files


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in _source_files():
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _env(**extra) -> dict:
    """Environment for child processes; compilers and tempfile write under BUILD."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), **extra)


def _compile_native(out_dir: Path) -> tuple[str | None, str]:
    """Compile the tracked C kernel directly, for the kernel microbenchmark only."""
    source = ROOT / "src" / "vib2move" / "_native.c"
    if not source.is_file():
        return None, "no src/vib2move/_native.c"
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"_native{sysconfig.get_config_var('EXT_SUFFIX')}"
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    cmd = [cc, *NATIVE_CFLAGS, "-shared", "-fPIC", f"-I{sysconfig.get_paths()['include']}",
           str(source), "-o", str(target), "-lm"]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"{cc} failed: {exc}"
    if proc.returncode != 0:
        return None, f"{cc} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return str(target), " ".join(cmd[:len(NATIVE_CFLAGS) + 1])


def build() -> dict:
    """Build the package with its setup.py into .bench_build; cached by source hash."""
    key = _source_hash()
    stamp = BUILD / "build.json"
    if stamp.is_file():
        info = json.loads(stamp.read_text())
        if info.get("source_sha256") == key and Path(info["lib"]).is_dir():
            return info
    stage, out = BUILD / "stage", BUILD / "setup"
    for d in (stage, out, BUILD / "native"):
        shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(ROOT / "src", stage / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "*.so", "*.egg-info"))
    for f in BUILD_INPUTS:
        if (ROOT / f).is_file():
            shutil.copy2(ROOT / f, stage / f)
    t0 = time.perf_counter()
    note = "no setup.py"
    lib = out / "lib"
    if (stage / "setup.py").is_file():
        try:
            proc = subprocess.run(
                [sys.executable, "setup.py", "-q", "build", "--build-base", str(out)],
                cwd=stage, env=_env(), capture_output=True, text=True, timeout=800)
            (BUILD / "build.log").write_text(proc.stdout + proc.stderr)
            note = f"setup.py build exited {proc.returncode}"
        except subprocess.TimeoutExpired:
            note = "setup.py build timed out"
    if not (lib / "vib2move" / "__init__.py").is_file():
        lib = ROOT / "src"  # pure-Python fallback: import straight from the sources
    extension = sorted(p.name for p in (lib / "vib2move").glob("_native*.so"))
    native_so, native_note = ((None, "package build has it") if extension
                              else _compile_native(BUILD / "native"))
    info = {
        "source_sha256": key, "lib": str(lib), "build": note,
        "build_s": time.perf_counter() - t0, "extension": extension,
        "native_bench_so": native_so, "native_bench_build": native_note,
    }
    BUILD.mkdir(exist_ok=True)
    stamp.write_text(json.dumps(info, indent=1))
    return info


def _line_counts() -> dict:
    py = other = 0
    for path in sorted((ROOT / "src" / "vib2move").rglob("*")):
        if path.suffix == ".py":
            py += len(path.read_text().splitlines())
        elif path.suffix in (".pyx", ".pxd", ".c", ".h"):
            text = path.read_text(errors="replace")
            if not text.startswith("/* Generated by Cython"):
                other += len(text.splitlines())
    return {"python": py, "other_handwritten": other, "total": py + other}


def machine_facts(info: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_commit": commit,
        "source_sha256": info["source_sha256"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "build": {k: info[k] for k in ("build", "build_s", "extension", "native_bench_build")},
        "cflags": sysconfig.get_config_var("CFLAGS"),
        "native_cflags": NATIVE_CFLAGS,
        "src_lines": _line_counts(),
    }


def _worker_env(info: dict) -> dict:
    env = _env(PYTHONPATH=info["lib"], VIB2MOVE_LOG="quiet", PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(info: dict, args: list[str], timeout: float) -> float:
    """Run worker.py to completion; return its wall time from spawn to exit.

    A blocking wait with a kill timer, not Popen.wait(timeout), which polls
    in sleeps of up to 50 ms and would quantize the set-up time.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_worker_env(info), stdout=sys.stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    dt = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return dt


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops: int | None,
                 info: dict, facts: dict, deadline: float) -> dict:
    work = BUILD / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    result = BUILD / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    metrics = {}
    if not trace:
        # set-up: a fresh process imports the package, writes the inputs and
        # loads them once; the median of several spawns
        runs = [_worker(info, base + ["--result", os.devnull, "--setup-only"], 60)
                for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(runs), "s")
    extra = ["--seconds", str(seconds)] + (["--ops", str(ops)] if ops else [])
    if trace:
        extra.append("--trace")
        if info["native_bench_so"]:
            extra += ["--native-so", info["native_bench_so"]]
    _worker(info, base + ["--result", str(result)] + extra, max(10.0, deadline - time.monotonic()))
    doc = json.loads(result.read_text())
    doc["metrics"] = {**metrics, **doc["metrics"]}
    doc["workload"], doc["seed"], doc["trace"] = name, seed, trace
    doc["facts"].update(facts)
    result.write_text(json.dumps(doc, indent=1))
    return doc


def _print_table(doc: dict) -> None:
    print(f"{doc['workload']} (seed {doc['seed']}, {'traced' if doc['trace'] else 'untraced'}): "
          f"{doc['attempted']} ops, {doc['failed']} invalid")
    for name, (value, unit) in doc["metrics"].items():
        print(f"  {name:46s} {value:>16.6g} {unit}")
    for problem in doc["problems"]:
        print(f"  INVALID {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="op count of the quality set or the traced run "
                        "(default per workload; small for self-tests)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "vib2move" / "__init__.py").is_file():
        print(f"no vib2move sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    info = build()
    facts = machine_facts(info)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = []
    for name in names:
        try:
            doc = run_workload(name, args.seed, args.seconds, bool(args.trace), args.ops,
                               info, facts, time.monotonic() + DEADLINE_S)
        except subprocess.CalledProcessError as exc:
            print(f"{name}: worker failed: {exc}", file=sys.stderr)
            return 1
        docs.append(doc)
        _print_table(doc)
        print("facts: " + json.dumps(doc["facts"], sort_keys=True))

    prefix = len(docs) > 1
    metrics = {f"{d['workload']}.{k}" if prefix else k: {"value": v, "unit": u}
               for d in docs for k, (v, u) in d["metrics"].items()}
    failed = sum(d["failed"] for d in docs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(d["attempted"] for d in docs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
