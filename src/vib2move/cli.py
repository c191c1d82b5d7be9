"""Command-line entry point.

Subcommands:
  predict   roll one vibration pulse from a scenario and export the path
  plan      run the closed-loop three-stage planner on a scenario
  evaluate  Monte-Carlo evaluation batches with per-object metrics

Outputs are deterministic for fixed seeds. Set VIB2MOVE_LOG=debug|info|
quiet to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from ._backend import BACKEND
from .harness import PlantEnv, run_reconfiguration_eval, run_single_pulse_eval, state_from_relative
from .integrator import ObjectDroppedError, PulseSpec, vibration_pulse
from .planner import PlanningError, plan_and_execute
from .scenario import ScenarioError, bundled_path, load_eval_config, load_scenario
from .svgplot import plot_error_distribution, plot_plan_object_frame, plot_pulse_path

log = logging.getLogger("vib2move")

TRAJECTORY_HEADER = ["step", "finger_x_mm", "finger_y_mm", "finger_theta_deg",
                     "object_x_mm", "object_y_mm", "object_theta_deg", "motion_class", "k"]


def _setup_logging():
    level = os.environ.get("VIB2MOVE_LOG", "info").strip().lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(format="%(levelname)s %(message)s",
                        level=levels.get(level, logging.INFO))


def _resolve_scenario(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    bundled = bundled_path(arg)
    if bundled.exists():
        return bundled
    raise ScenarioError(f"scenario {arg!r} not found (no such file or bundled name)")


def write_trajectory_csv(points, path: Path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJECTORY_HEADER)
        for i, p in enumerate(points, start=1):
            w.writerow([
                i,
                f"{p.finger_pose.x * 1000:.6f}",
                f"{p.finger_pose.y * 1000:.6f}",
                f"{math.degrees(p.finger_pose.theta):.6f}",
                f"{p.object_pose.x * 1000:.6f}",
                f"{p.object_pose.y * 1000:.6f}",
                f"{math.degrees(p.object_pose.theta):.6f}",
                p.motion_class.value,
                f"{p.k:.9f}",
            ])


def _actions_doc(result):
    out = []
    for a in result.actions:
        rec = {"stage": a.stage, "kind": a.kind}
        if a.target_theta is not None:
            rec["target_theta_rad"] = round(a.target_theta, 9)
        if a.n_steps is not None:
            rec["n_steps"] = a.n_steps
        if a.observed_object_pose is not None:
            p = a.observed_object_pose
            rec["observed_object_mm_deg"] = [round(p.x * 1000, 6), round(p.y * 1000, 6),
                                             round(math.degrees(p.theta), 6)]
        if a.residual is not None:
            rec["residual"] = round(a.residual, 9)
        out.append(rec)
    return out


def cmd_predict(args) -> int:
    if not 0.0 < args.ds < math.inf:
        log.error("--ds must be a finite positive number, got %s", args.ds)
        return 1
    if args.n_steps < 0:
        log.error("--n-steps must be zero or more, got %s", args.n_steps)
        return 1
    scenario = load_scenario(_resolve_scenario(args.scenario))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state = state_from_relative(scenario.initial_rel, scenario.patch, scenario.finger_world)
    points = []
    if args.n_steps > 0:
        try:
            _, points = vibration_pulse(state, scenario.obj,
                                        PulseSpec(args.ds, args.n_steps))
        except ObjectDroppedError as exc:
            log.error("pulse failed: %s", exc)
            return 1
    write_trajectory_csv(points, out / "trajectory.csv")
    if points:
        plot_pulse_path(points, out / "path.svg",
                        title=f"{scenario.name}: single pulse")
    log.info("wrote %d trajectory rows to %s", len(points), out / "trajectory.csv")
    return 0


def cmd_plan(args) -> int:
    scenario = load_scenario(_resolve_scenario(args.scenario))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    noise = replace(scenario.noise, seed=args.seed) if args.seed is not None else scenario.noise
    state = state_from_relative(scenario.initial_rel, scenario.patch, scenario.finger_world)
    env = PlantEnv(state, scenario.obj, noise=noise,
                   orientation_limits=scenario.planner.finger_orientation_limits,
                   record=True)
    try:
        result = plan_and_execute(scenario.problem(), env, scenario.planner)
    except (PlanningError, ObjectDroppedError) as exc:
        log.error("planning failed: %s", exc)
        return 1
    write_trajectory_csv(result.trajectory, out / "trajectory.csv")
    (out / "actions.json").write_text(json.dumps(_actions_doc(result), indent=1) + "\n")
    metrics = {
        "final_error_pos_mm": result.final_error[0] * 1000.0,
        "final_error_angle_deg": math.degrees(result.final_error[1]),
        "final_relative_pose_mm_deg": [result.final_relative_pose.x * 1000.0,
                                       result.final_relative_pose.y * 1000.0,
                                       math.degrees(result.final_relative_pose.theta)],
        "n_actions": len(result.actions),
        "stages": {str(s): {"iterations": lg.iterations,
                            "entry_residual": lg.entry_residual,
                            "exit_residual": lg.exit_residual}
                   for s, lg in result.stage_logs.items()},
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1) + "\n")
    plot_plan_object_frame(result, scenario.goal_rel, out / "path.svg",
                           title=f"{scenario.name}: three-stage plan")
    log.info("plan done: %.2f mm / %.2f deg final error, %d actions",
             metrics["final_error_pos_mm"], metrics["final_error_angle_deg"],
             len(result.actions))
    return 0


def _table_rows(report):
    rows = []
    for name, d in report.per_object.items():
        rows.append([
            name, d.get("surface", ""),
            f"{d['size_mm'][0]:.0f}x{d['size_mm'][1]:.0f}",
            f"{d['weight_g']:.0f}",
            f"{d['rmse_pos'] * 1000:.2f}",
            f"{d['rel_error_pct']:.1f}",
            f"{math.degrees(d['rmse_angle']):.2f}",
            f"{d['success_rate']:.2f}",
        ])
    rows.append(["average", "", "", "",
                 f"{report.rmse_pos * 1000:.2f}", f"{report.rel_error_pct:.1f}",
                 f"{math.degrees(report.rmse_angle):.2f}", f"{report.success_rate:.2f}"])
    return rows


def cmd_evaluate(args) -> int:
    cfg = load_eval_config(_resolve_scenario(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    docs = {}
    if cfg.mode in ("reconfigure", "both"):
        report = run_reconfiguration_eval(
            objects=cfg.objects, n_paths_per_object=cfg.n_trials, noise=cfg.noise,
            perturb=cfg.perturbation, config=cfg.planner, seed=args.seed)
        docs["reconfigure"] = report
        with open(out / "trials.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "object", "goal_x_mm", "goal_y_mm", "goal_theta_deg",
                        "success", "err_pos_mm", "err_angle_deg", "n_actions", "failure"])
            for t in report.trials:
                w.writerow([t.trial_index, t.object_name,
                            f"{t.goal.x * 1000:.3f}", f"{t.goal.y * 1000:.3f}",
                            f"{math.degrees(t.goal.theta):.3f}",
                            int(t.success), f"{t.err_pos * 1000:.4f}",
                            f"{math.degrees(t.err_angle):.4f}", t.n_actions,
                            t.failure or ""])
        with open(out / "table.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["object", "surface", "size_mm", "weight_g", "rmse_pos_mm",
                        "rel_error_pct", "rmse_orient_deg", "success_rate"])
            w.writerows(_table_rows(report))
        plot_error_distribution(report, out / "error_distribution.svg")
        log.info("reconfigure: %d trials, success %.0f%%, rmse %.2f mm / %.2f deg",
                 report.n_trials, 100 * report.success_rate,
                 report.rmse_pos * 1000, math.degrees(report.rmse_angle))
    if cfg.mode in ("single_pulse", "both"):
        pulse_report = run_single_pulse_eval(
            n_trials=cfg.n_trials * 10, ds=cfg.step_ds, n_steps=cfg.pulse_steps,
            noise=cfg.noise, perturb=cfg.perturbation, seed=args.seed)
        docs["single_pulse"] = pulse_report
        log.info("single pulse: rmse %.3f mm / %.3f deg over %d trials",
                 pulse_report.rmse_pos * 1000, math.degrees(pulse_report.rmse_angle),
                 pulse_report.n_trials)

    metrics = {}
    for key, report in docs.items():
        metrics[key] = {
            "rmse_pos_mm": report.rmse_pos * 1000.0,
            "rmse_angle_deg": math.degrees(report.rmse_angle),
            "rel_error_pct": report.rel_error_pct,
            "success_rate": report.success_rate,
            "n_trials": report.n_trials,
            "per_object": {
                name: {"rmse_pos_mm": d["rmse_pos"] * 1000.0,
                       "rmse_angle_deg": math.degrees(d["rmse_angle"]),
                       "rel_error_pct": d["rel_error_pct"],
                       "success_rate": d["success_rate"]}
                for name, d in report.per_object.items()},
        }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vib2move",
        description="quasi-static in-hand sliding simulator and reconfiguration planner")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__} ({BACKEND} kernel)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="roll a single vibration pulse and export the path")
    p.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p.add_argument("--ds", type=float, default=5e-4, help="arc step size")
    p.add_argument("--n-steps", type=int, default=2300, help="pulse duration in steps")
    p.add_argument("--out", default="out_predict", help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plan", help="run the closed-loop three-stage planner")
    p.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p.add_argument("--seed", type=int, default=None, help="observation noise seed")
    p.add_argument("--out", default="out_plan", help="output directory")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("evaluate", help="Monte-Carlo evaluation batch")
    p.add_argument("--config", required=True, help="eval config file or bundled name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out_eval", help="output directory")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ScenarioError included
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
