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
from .planner import PlanningError, plan_and_execute, pose_error
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


def _out_dir(arg: str, *names: str) -> list[Path]:
    """The paths of this command's output files `names` in --out, which is
    created if need be; an earlier run's copies are removed first, so a
    failed run leaves none of them and no run leaves one it did not write."""
    out = Path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {arg!r}: {exc.strerror}") from exc
    paths = [out / name for name in names]
    for path in paths:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot replace output file {str(path)!r}: {exc.strerror}") from exc
    return paths


def _resolve_scenario(arg: str) -> Path:
    # a file by that name wins; a directory (an earlier run's --out, say) does not
    p = Path(arg)
    if p.is_file():
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


def _actions_doc(actions):
    out = []
    for a in actions:
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
    trajectory_csv, path_svg = _out_dir(args.out, "trajectory.csv", "path.svg")
    state = state_from_relative(scenario.initial_rel, scenario.patch, scenario.finger_world)
    points = []
    if args.n_steps > 0:
        try:
            _, points = vibration_pulse(state, scenario.obj,
                                        PulseSpec(args.ds, args.n_steps))
        except ObjectDroppedError as exc:
            log.error("pulse failed: %s", exc)
            return 1
    write_trajectory_csv(points, trajectory_csv)
    plot_pulse_path(points, path_svg, title=f"{scenario.name}: single pulse")
    log.info("wrote %d trajectory rows to %s", len(points), trajectory_csv)
    return 0


def cmd_plan(args) -> int:
    scenario = load_scenario(_resolve_scenario(args.scenario))
    trajectory_csv, actions_json, metrics_json, path_svg = _out_dir(
        args.out, "trajectory.csv", "actions.json", "metrics.json", "path.svg")
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
    write_trajectory_csv(env.points, trajectory_csv)
    actions_json.write_text(json.dumps(_actions_doc(result.actions), indent=1) + "\n")
    rel = env.true_relative_pose()
    err_pos, err_angle = pose_error(rel, scenario.goal_rel)
    metrics = {
        "final_error_pos_mm": err_pos * 1000.0,
        "final_error_angle_deg": math.degrees(err_angle),
        "final_relative_pose_mm_deg": [rel.x * 1000.0, rel.y * 1000.0, math.degrees(rel.theta)],
        "n_actions": len(result.actions),
        "stages": {str(s): {"iterations": lg.iterations,
                            "entry_residual": lg.entry_residual,
                            "exit_residual": lg.exit_residual}
                   for s, lg in result.stage_logs.items()},
    }
    metrics_json.write_text(json.dumps(metrics, indent=1) + "\n")
    plot_plan_object_frame(env.points, result.actions, scenario.goal_rel, path_svg,
                           title=f"{scenario.name}: three-stage plan")
    log.info("plan done: %.2f mm / %.2f deg final error, %d actions",
             metrics["final_error_pos_mm"], metrics["final_error_angle_deg"],
             len(result.actions))
    return 0


def _errors(d) -> dict:
    """The errors in mm, degrees and percent, None with no success, and the
    success rate: of one object's summary, or of a whole report's vars()."""
    if d["rmse_pos"] is None:
        pos = angle = pct = None
    else:
        pos, angle, pct = d["rmse_pos"] * 1000.0, math.degrees(d["rmse_angle"]), d["rel_error_pct"]
    return {"rmse_pos_mm": pos, "rmse_angle_deg": angle, "rel_error_pct": pct,
            "success_rate": d["success_rate"]}


def _cell(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _cells(d) -> list[str]:
    """A table row's error cells, empty with no success, and success rate."""
    e = _errors(d)
    return [_cell(e["rmse_pos_mm"], ".2f"), _cell(e["rel_error_pct"], ".1f"),
            _cell(e["rmse_angle_deg"], ".2f"), _cell(e["success_rate"], ".2f")]


def _table_rows(report):
    rows = [[name, d.get("surface", ""), f"{d['size_mm'][0]:.0f}x{d['size_mm'][1]:.0f}",
             f"{d['weight_g']:.0f}", *_cells(d)] for name, d in report.per_object.items()]
    rows.append(["average", "", "", "", *_cells(vars(report))])
    return rows


def cmd_evaluate(args) -> int:
    cfg = load_eval_config(_resolve_scenario(args.config))
    trials_csv, table_csv, plot_svg, metrics_json = _out_dir(
        args.out, "trials.csv", "table.csv", "error_distribution.svg", "metrics.json")
    docs = {}
    if cfg.mode in ("reconfigure", "both"):
        report = run_reconfiguration_eval(
            objects=cfg.objects, n_paths_per_object=cfg.n_trials, noise=cfg.noise,
            perturb=cfg.perturbation, config=cfg.planner, seed=args.seed)
        docs["reconfigure"] = report
        with open(trials_csv, "w", newline="") as fh:
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
        with open(table_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["object", "surface", "size_mm", "weight_g", "rmse_pos_mm",
                        "rel_error_pct", "rmse_orient_deg", "success_rate"])
            w.writerows(_table_rows(report))
        plot_error_distribution(report, plot_svg)
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

    metrics = {key: {**_errors(vars(report)), "n_trials": report.n_trials,
                     "per_object": {name: _errors(d) for name, d in report.per_object.items()}}
               for key, report in docs.items()}
    metrics_json.write_text(json.dumps(metrics, indent=1) + "\n")
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
