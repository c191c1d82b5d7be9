"""Scenario and evaluation config files.

File surface units are millimeters and degrees (and grams for mass);
everything internal is SI. Unknown keys are rejected so that typos in
hand-written scenarios fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .contact import ContactPatch, ObjectModel
from .harness import NoiseModel, PerturbationModel
from .planner import PlannerConfig, PlanningProblem
from .se2 import PoseSE2


class ScenarioError(ValueError):
    """Malformed scenario or config file; message carries the key path."""


MM = 0.001


def _check_keys(block: dict, allowed: set[str], where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _pose_mm_deg(values, where: str) -> PoseSE2:
    if not (isinstance(values, (list, tuple)) and len(values) == 3):
        raise ScenarioError(f"{where} must be [x_mm, y_mm, theta_deg]")
    x, y, th = values
    return PoseSE2(x * MM, y * MM, math.radians(th))


def _pose_to_mm_deg(p: PoseSE2) -> list[float]:
    return [p.x / MM, p.y / MM, math.degrees(p.theta)]


@dataclass
class Scenario:
    """One reconfiguration problem: object, patch, grasp and goal."""

    obj: ObjectModel
    patch: ContactPatch
    initial_rel: PoseSE2
    goal_rel: PoseSE2
    finger_world: PoseSE2 = PoseSE2(0.0, 0.0, 0.0)
    noise: NoiseModel = NoiseModel(0.0, 0.0)
    perturbation: PerturbationModel = PerturbationModel()
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    name: str = "scenario"

    def problem(self) -> PlanningProblem:
        return PlanningProblem(self.goal_rel, self.obj, self.patch)


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    _check_keys(doc, {"object", "patch", "initial_rel_mm_deg", "goal_rel_mm_deg",
                      "finger_world_mm_deg", "gravity_mps2", "noise", "perturbation",
                      "planner", "name"}, "scenario")
    try:
        ob = doc["object"]
        _check_keys(ob, {"mass_g", "extents_mm", "com_offset_mm"}, "object")
        obj = ObjectModel(
            mass=ob["mass_g"] / 1000.0,
            extents=(ob["extents_mm"][0] * MM, ob["extents_mm"][1] * MM),
            com_offset=tuple(v * MM for v in ob.get("com_offset_mm", [0, 0])),
            gravity=doc.get("gravity_mps2", 9.81),
        )
        pa = doc["patch"]
        _check_keys(pa, {"r0_mm", "c", "pressure_center_offset_mm"}, "patch")
        patch = ContactPatch(
            r0=pa["r0_mm"] * MM,
            c=pa.get("c", 0.6),
            pressure_center_offset=tuple(v * MM for v in pa.get("pressure_center_offset_mm", [0, 0])),
        )
        initial = _pose_mm_deg(doc["initial_rel_mm_deg"], "initial_rel_mm_deg")
        goal = _pose_mm_deg(doc["goal_rel_mm_deg"], "goal_rel_mm_deg")
        finger = _pose_mm_deg(doc.get("finger_world_mm_deg", [0, 0, 0]), "finger_world_mm_deg")
        noise = _parse_noise(doc.get("noise", {}))
        perturb = _parse_perturbation(doc.get("perturbation", {}))
        planner = _parse_planner(doc.get("planner", {}))
    except KeyError as exc:
        raise ScenarioError(f"missing required key {exc} in scenario") from exc
    return Scenario(obj=obj, patch=patch, initial_rel=initial, goal_rel=goal,
                    finger_world=finger, noise=noise, perturbation=perturb,
                    planner=planner, name=doc.get("name", name))


def _parse_noise(block: dict) -> NoiseModel:
    _check_keys(block, {"pos_sigma_mm", "angle_sigma_deg", "seed"}, "noise")
    return NoiseModel(
        pos_sigma=block.get("pos_sigma_mm", 0.0) * MM,
        angle_sigma=math.radians(block.get("angle_sigma_deg", 0.0)),
        seed=block.get("seed", 0),
    )


def _parse_perturbation(block: dict) -> PerturbationModel:
    _check_keys(block, {"pressure_bias_sigma_mm", "radius_jitter_sigma_mm",
                        "pressure_bias_fixed_mm"}, "perturbation")
    return PerturbationModel(
        pressure_bias_sigma=block.get("pressure_bias_sigma_mm", 0.0) * MM,
        radius_jitter_sigma=block.get("radius_jitter_sigma_mm", 0.0) * MM,
        pressure_bias_fixed=block.get("pressure_bias_fixed_mm", 0.0) * MM,
    )


_PLANNER_KEYS = {
    "r_error_mm": ("r_error", MM),
    "r_theta_error_deg": ("r_theta_error", math.pi / 180.0),
    "kp": None,
    "ki": None,
    "max_actions_per_stage": ("max_actions_per_stage", 1),
    "lever_angle_deg": ("lever_angle_stage3", math.pi / 180.0),
    "finger_limits_rad": None,
    "step_ds": ("step_ds", 1),
}


def _parse_planner(block: dict) -> PlannerConfig:
    _check_keys(block, set(_PLANNER_KEYS), "planner")
    kwargs = {}
    for key, value in block.items():
        if key == "kp":
            kwargs.setdefault("pi_gains", [0.5, 0.1])
            kwargs["pi_gains"] = (value, kwargs["pi_gains"][1])
        elif key == "ki":
            g = kwargs.get("pi_gains", (0.5, 0.1))
            kwargs["pi_gains"] = (g[0], value)
        elif key == "finger_limits_rad":
            kwargs["finger_orientation_limits"] = tuple(value)
        else:
            attr, scale = _PLANNER_KEYS[key]
            kwargs[attr] = value * scale if scale != 1 else value
    if "pi_gains" in kwargs:
        kwargs["pi_gains"] = tuple(kwargs["pi_gains"])
    try:
        return PlannerConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"planner: {exc}") from exc


def scenario_to_doc(s: Scenario) -> dict:
    doc = {
        "name": s.name,
        "object": {
            "mass_g": s.obj.mass * 1000.0,
            "extents_mm": [s.obj.extents[0] / MM, s.obj.extents[1] / MM],
            "com_offset_mm": [s.obj.com_offset[0] / MM, s.obj.com_offset[1] / MM],
        },
        "patch": {
            "r0_mm": s.patch.r0 / MM,
            "c": s.patch.c,
            "pressure_center_offset_mm": [v / MM for v in s.patch.pressure_center_offset],
        },
        "gravity_mps2": s.obj.gravity,
        "initial_rel_mm_deg": _pose_to_mm_deg(s.initial_rel),
        "goal_rel_mm_deg": _pose_to_mm_deg(s.goal_rel),
        "finger_world_mm_deg": _pose_to_mm_deg(s.finger_world),
        "noise": {
            "pos_sigma_mm": s.noise.pos_sigma / MM,
            "angle_sigma_deg": math.degrees(s.noise.angle_sigma),
            "seed": s.noise.seed,
        },
        "perturbation": {
            "pressure_bias_sigma_mm": s.perturbation.pressure_bias_sigma / MM,
            "radius_jitter_sigma_mm": s.perturbation.radius_jitter_sigma / MM,
            "pressure_bias_fixed_mm": s.perturbation.pressure_bias_fixed / MM,
        },
    }
    return doc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario(doc, name=path.stem)


def dump_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_doc(s), indent=2) + "\n")


@dataclass
class EvalConfig:
    """Batch evaluation configuration for the evaluate subcommand."""

    mode: str = "reconfigure"  # reconfigure | single_pulse | both
    n_trials: int = 10
    noise: NoiseModel = NoiseModel(0.0, 0.0)
    perturbation: PerturbationModel = PerturbationModel()
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    objects: list | None = None  # None = bundled six-object set
    pulse_steps: int = 25
    step_ds: float = 1e-3


def _positive(doc: dict, key: str, default, integer: bool = False):
    value = doc.get(key, default)
    types = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, types) or not value > 0:
        kind = "integer" if integer else "number"
        raise ScenarioError(f"{key} in eval config must be a positive {kind}, got {value!r}")
    return value


def load_eval_config(path: str | Path) -> EvalConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _check_keys(doc, {"mode", "n_trials", "noise", "perturbation", "planner",
                      "objects", "pulse_steps", "step_ds"}, "eval config")
    mode = doc.get("mode", "reconfigure")
    if mode not in ("reconfigure", "single_pulse", "both"):
        raise ScenarioError(f"unknown mode {mode!r} in eval config")
    objects = None
    if "objects" in doc:
        objects = []
        for i, ob in enumerate(doc["objects"]):
            _check_keys(ob, {"name", "surface", "mass_g", "extents_mm", "com_offset_mm"},
                        f"objects[{i}]")
            objects.append({
                "name": ob.get("name", f"object{i + 1}"),
                "surface": ob.get("surface", ""),
                "model": ObjectModel(
                    mass=ob["mass_g"] / 1000.0,
                    extents=(ob["extents_mm"][0] * MM, ob["extents_mm"][1] * MM),
                    com_offset=tuple(v * MM for v in ob.get("com_offset_mm", [0, 0]))),
            })
    return EvalConfig(
        mode=mode,
        n_trials=_positive(doc, "n_trials", 10, integer=True),
        noise=_parse_noise(doc.get("noise", {})),
        perturbation=_parse_perturbation(doc.get("perturbation", {})),
        planner=_parse_planner(doc.get("planner", {})),
        objects=objects,
        pulse_steps=_positive(doc, "pulse_steps", 2000, integer=True),
        step_ds=_positive(doc, "step_ds", 1e-3),
    )


def bundled_path(name: str) -> Path:
    """Path of a bundled scenario/config file (without .json suffix)."""
    return Path(str(resources.files("vib2move").joinpath("data", f"{name}.json")))
