"""The three workloads: inputs made from the workload seed, and output checks.

Every op is one `vib2move.cli.main` call with generated input files, so
the benchmark drives the program exactly as a user would.

- mc_noisy: `evaluate` in reconfigure mode under the criterion-8 noise and
  bias over the six bundled plates, one trial per plate per call. It runs
  the matched-filter estimator, the unread plant records and the trial
  loop, so it is where estimator, record and fan-out changes show.
- pulse_eval: `evaluate` in single_pulse mode, 2000-step plant-vs-model
  pulses under the same noise and bias. No planner and no estimator: it
  isolates the kernel and record building, and an estimator change should
  leave it unchanged.
- plan_export: one `plan` per call on a generated noisy scenario, writing
  trajectory.csv, actions.json, metrics.json and path.svg. Interactive
  latency; its records are consumed, so lazy recording must not slow it.
  Goals sit above the center of mass (x in +-10 mm, y in 5..20 mm, theta in
  +-25 deg, grasp 0.3 half-height below the center of mass), because the
  bundled object1..6 goals all fail the reachability screen at once.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# the six bundled plates: name, width mm, height mm, mass g
PLATES = [
    ("object1", 90.0, 150.0, 90.0),
    ("object2", 90.0, 120.0, 71.0),
    ("object3", 80.0, 150.0, 79.0),
    ("object4", 80.0, 150.0, 85.0),
    ("object5", 90.0, 150.0, 92.0),
    ("object6", 50.0, 160.0, 53.0),
]

# criterion-8 conditions
NOISE = {"pos_sigma_mm": 1.0, "angle_sigma_deg": 0.5, "seed": 0}
PERTURBATION = {"pressure_bias_fixed_mm": 2.0}
PLANNER = {"max_actions_per_stage": 400}

PULSE_TRIALS_PER_CALL = 10  # evaluate runs 10 pulse trials per n_trials
PLAN_FILES = ("trajectory.csv", "actions.json", "metrics.json", "path.svg")
FAILURE_CLASSES = ("OrientationLimitError", "StageTimeoutError", "ObjectDroppedError",
                   "SingularityError", "PlanningError")


@dataclass
class OpResult:
    trials: int = 0
    successes: int = 0
    sq_pos_mm: float = 0.0  # sums of squared errors over successful trials
    sq_angle_deg: float = 0.0
    failures: Counter = field(default_factory=Counter)
    rows: int = 0
    bytes: int = 0
    problems: list = field(default_factory=list)


def failure_class(text: str) -> str:
    """Exception class from a `TrialRecord.failure` string ("Class: message")."""
    head = text.split(":", 1)[0].strip()
    return head if head in FAILURE_CLASSES else "other"


def _finite_tree(value, where: str, problems: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _finite_tree(v, f"{where}.{k}", problems)
    elif isinstance(value, list):
        for k, v in enumerate(value):
            _finite_tree(v, f"{where}[{k}]", problems)
    elif isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{where} is {value}")


def _load_json(path: Path, res: OpResult):
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        res.problems.append(f"{path.name}: {exc}")
        return None
    _finite_tree(doc, path.name, res.problems)
    return doc


def _csv_rows(path: Path, res: OpResult) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))[1:]
    except OSError as exc:
        res.problems.append(f"{path.name}: {exc}")
        return []


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0


class Workload:
    name = ""
    loader = "load_eval_config"  # scenario function the CLI reads the input with
    trials_per_op = 1
    tail_pct = 80  # the latency tail reported as op_ms_tail
    quality_ops = 1  # the first ops, whose outputs give the quality metrics
    traced_ops = 1  # op count of a traced run

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self) -> list[Path]:
        """Write the fixed input files; return those the CLI will load."""
        return []

    def argv(self, i: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, rc: int, out: Path, plan_failed: bool | None) -> OpResult:
        raise NotImplementedError


class McNoisy(Workload):
    name = "mc_noisy"
    trials_per_op = len(PLATES)
    tail_pct = 85
    quality_ops = 90
    traced_ops = 12

    def prepare(self):
        self.config = self.work / "mc_noisy.json"
        self.config.write_text(json.dumps({
            "mode": "reconfigure", "n_trials": 1, "noise": NOISE,
            "perturbation": PERTURBATION, "planner": PLANNER}))
        return [self.config]

    def argv(self, i, out):
        return ["evaluate", "--config", str(self.config),
                "--seed", str(self.seed * 100_000 + i), "--out", str(out)]

    def check(self, rc, out, plan_failed):
        n = self.trials_per_op
        res = OpResult(trials=n)
        if rc != 0:
            res.problems.append(f"evaluate exited {rc}")
            return res
        rows = _csv_rows(out / "trials.csv", res)
        if len(rows) != n:
            res.problems.append(f"trials.csv has {len(rows)} rows, expected {n}")
        for row in rows:
            if len(row) != 10:
                res.problems.append(f"trials.csv row has {len(row)} fields")
            elif row[5] == "1":
                res.successes += 1
            else:
                res.failures[failure_class(row[9])] += 1
        table = _csv_rows(out / "table.csv", res)
        if len(table) != n + 1:
            res.problems.append(f"table.csv has {len(table)} rows, expected {n + 1}")
        doc = _load_json(out / "metrics.json", res)
        if doc is not None:
            m = doc.get("reconfigure", {})
            if m.get("n_trials") != n or len(m.get("per_object", {})) != n:
                res.problems.append(f"metrics.json counts {m.get('n_trials')} trials")
            if m.get("success_rate") != res.successes / n:
                res.problems.append("metrics.json success_rate disagrees with trials.csv")
            res.sq_pos_mm = m.get("rmse_pos_mm", 0.0) ** 2 * res.successes
            res.sq_angle_deg = m.get("rmse_angle_deg", 0.0) ** 2 * res.successes
        if res.successes and not (out / "error_distribution.svg").is_file():
            res.problems.append("error_distribution.svg missing")
        res.bytes = _output_bytes(out)
        return res


class PulseEval(Workload):
    name = "pulse_eval"
    n_trials = 2
    trials_per_op = n_trials * PULSE_TRIALS_PER_CALL
    tail_pct = 95
    quality_ops = 200
    traced_ops = 50

    def prepare(self):
        self.config = self.work / "pulse_eval.json"
        self.config.write_text(json.dumps({
            "mode": "single_pulse", "n_trials": self.n_trials, "pulse_steps": 2000,
            "noise": NOISE, "perturbation": PERTURBATION}))
        return [self.config]

    def argv(self, i, out):
        return ["evaluate", "--config", str(self.config),
                "--seed", str(self.seed * 100_000 + i), "--out", str(out)]

    def check(self, rc, out, plan_failed):
        n = self.trials_per_op
        res = OpResult(trials=n)
        if rc != 0:
            res.problems.append(f"evaluate exited {rc}")
            return res
        doc = _load_json(out / "metrics.json", res)
        if doc is None:
            return res
        m = doc.get("single_pulse", {})
        if m.get("n_trials") != n:
            res.problems.append(f"metrics.json counts {m.get('n_trials')} trials, expected {n}")
        rate = m.get("success_rate", -1.0)
        res.successes = round(rate * n)
        if abs(rate * n - res.successes) > 1e-9 or not 0 <= res.successes <= n:
            res.problems.append(f"success_rate {rate} is not a share of {n} trials")
        # run_single_pulse_eval catches only ObjectDroppedError
        res.failures["ObjectDroppedError"] = n - res.successes
        res.sq_pos_mm = m.get("rmse_pos_mm", 0.0) ** 2 * res.successes
        res.sq_angle_deg = m.get("rmse_angle_deg", 0.0) ** 2 * res.successes
        res.bytes = _output_bytes(out)
        return res


class PlanExport(Workload):
    name = "plan_export"
    loader = "load_scenario"
    tail_pct = 99
    quality_ops = 1000
    traced_ops = 120

    def scenario(self, i: int) -> tuple[dict, int]:
        rng = random.Random(f"plan_export/{self.seed}/{i}")
        name, w, h, m = PLATES[i % len(PLATES)]
        noise_seed = rng.randrange(1 << 30)
        return {
            "name": f"{name}-{self.seed}-{i}",
            "object": {"mass_g": m, "extents_mm": [w, h], "com_offset_mm": [0.0, 0.0]},
            "patch": {"r0_mm": 15.0, "c": 0.6, "pressure_center_offset_mm": [0.0, 0.0]},
            "initial_rel_mm_deg": [0.0, -0.3 * h / 2.0, 0.0],
            "goal_rel_mm_deg": [rng.uniform(-10.0, 10.0), rng.uniform(5.0, 20.0),
                                rng.uniform(-25.0, 25.0)],
            "noise": dict(NOISE, seed=noise_seed),
            "planner": PLANNER,
        }, noise_seed

    def prepare(self):
        return [self._write(0)[0]]

    def _write(self, i: int) -> tuple[Path, int]:
        doc, noise_seed = self.scenario(i)
        path = self.work / "plan_export.json"
        # a fresh file each time: ext4 flushes a file truncated and rewritten
        # in place, which costs tens of milliseconds
        path.unlink(missing_ok=True)
        path.write_text(json.dumps(doc))
        return path, noise_seed

    def argv(self, i, out):
        path, noise_seed = self._write(i)
        return ["plan", "--scenario", str(path), "--seed", str(noise_seed), "--out", str(out)]

    def check(self, rc, out, plan_failed):
        res = OpResult(trials=1)
        if rc == 1 and plan_failed:
            if (out / "metrics.json").exists():
                res.problems.append("failed plan still wrote metrics.json")
            return res
        if rc != 0 or plan_failed:
            res.problems.append(f"plan exited {rc} but the planner "
                                f"{'failed' if plan_failed else 'succeeded'}")
            return res
        missing = [f for f in PLAN_FILES if not (out / f).is_file()]
        if missing:
            res.problems.append(f"missing outputs {missing}")
            return res
        actions = _load_json(out / "actions.json", res) or []
        metrics = _load_json(out / "metrics.json", res) or {}
        if metrics.get("n_actions") != len(actions):
            res.problems.append("metrics.json n_actions disagrees with actions.json")
        rows = _csv_rows(out / "trajectory.csv", res)
        res.rows = len(rows)
        steps = sum(a.get("n_steps", 0) for a in actions if a.get("kind") == "pulse")
        if res.rows != steps:
            res.problems.append(f"trajectory.csv has {res.rows} rows for {steps} pulse steps")
        res.successes = 1
        res.sq_pos_mm = metrics.get("final_error_pos_mm", math.nan) ** 2
        res.sq_angle_deg = metrics.get("final_error_angle_deg", math.nan) ** 2
        if not (math.isfinite(res.sq_pos_mm) and math.isfinite(res.sq_angle_deg)):
            res.problems.append("final error missing or not finite")
        res.bytes = _output_bytes(out)
        return res


WORKLOADS = {w.name: w for w in (McNoisy, PulseEval, PlanExport)}
