"""Scenario and evaluation config files.

File surface units are millimeters and degrees (and grams for mass);
everything internal is SI. Unknown keys are rejected so that typos in
hand-written scenarios fail loudly, and every number must be a finite,
non-bool real: a bad value is a ScenarioError naming its file key and
quoting it in file units (a planner sign error names the PlannerConfig
field, in SI), never a traceback or a NaN in the planner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .contact import ContactPatch, ObjectModel
from .harness import NoiseModel, PerturbationModel
from .planner import PlannerConfig, PlanningProblem, is_real
from .se2 import PoseSE2


class ScenarioError(ValueError):
    """Malformed scenario or config file; message carries the key path."""


MM = 0.001


def _check_keys(block: dict, allowed: set[str], where: str):
    if not isinstance(block, dict):
        raise ScenarioError(f"{where} must be an object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _required(block: dict, key: str, where: str):
    """block[key], or a ScenarioError naming the block that lacks it."""
    if key not in block:
        raise ScenarioError(f"missing required key {key!r} in {where}")
    return block[key]


def _number(value, key: str, positive: bool = False, integer: bool = False):
    """value unchanged if it is a finite, non-bool real number (an integer
    when integer, above zero when positive); else a ScenarioError naming
    the file key."""
    if not is_real(value, integer) or (positive and not value > 0):
        kind = "integer" if integer else "number"
        what = "a positive" if positive else "an" if integer else "a finite"
        raise ScenarioError(f"{key} must be {what} {kind}, got {value!r}")
    return value


def _magnitude(value, key: str):
    """_number that also rejects negatives: a sigma or an offset size."""
    if _number(value, key) < 0:
        raise ScenarioError(f"{key} must be a nonnegative number, got {value!r}")
    return value


def _numbers(values, key: str, n: int, positive: bool = False) -> list:
    if not (isinstance(values, (list, tuple)) and len(values) == n):
        raise ScenarioError(f"{key} must be a list of {n} numbers, got {values!r}")
    return [_number(v, f"{key}[{i}]", positive) for i, v in enumerate(values)]


def _build(cls, where: str, **kwargs):
    """cls(**kwargs), with its ValueError re-raised as a ScenarioError.

    Types are checked against the file first, so what is left here is a
    rule of cls, named and quoted in its own (SI) terms."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _pose_mm_deg(values, where: str) -> PoseSE2:
    x, y, th = _numbers(values, where, 3)
    return PoseSE2(x * MM, y * MM, math.radians(th))


def _object_model(ob: dict, where: str, gravity: float = 9.81) -> ObjectModel:
    mass_g = _number(_required(ob, "mass_g", where), f"{where}.mass_g", positive=True)
    w, h = _numbers(_required(ob, "extents_mm", where), f"{where}.extents_mm", 2, positive=True)
    com = _numbers(ob.get("com_offset_mm", [0, 0]), f"{where}.com_offset_mm", 2)
    return _build(ObjectModel, where, mass=mass_g / 1000.0, extents=(w * MM, h * MM),
                  com_offset=tuple(v * MM for v in com), gravity=gravity)


def _pose_to_mm_deg(p: PoseSE2) -> list[float]:
    return [p.x / MM, p.y / MM, math.degrees(p.theta)]


@dataclass
class Scenario:
    """One reconfiguration problem: object, patch, grasp and goal."""

    obj: ObjectModel
    patch: ContactPatch
    initial_rel: PoseSE2
    goal_rel: PoseSE2
    finger_world: PoseSE2
    noise: NoiseModel
    planner: PlannerConfig
    name: str

    def problem(self) -> PlanningProblem:
        return PlanningProblem(self.goal_rel, self.obj, self.patch)


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    _check_keys(doc, {"object", "patch", "initial_rel_mm_deg", "goal_rel_mm_deg", "name",
                      "finger_world_mm_deg", "gravity_mps2", "noise", "planner"}, "scenario")
    ob = _required(doc, "object", "scenario")
    _check_keys(ob, {"mass_g", "extents_mm", "com_offset_mm"}, "object")
    obj = _object_model(ob, "object", gravity=_number(
        doc.get("gravity_mps2", 9.81), "gravity_mps2", positive=True))
    pa = _required(doc, "patch", "scenario")
    _check_keys(pa, {"r0_mm", "c", "pressure_center_offset_mm"}, "patch")
    offset = _numbers(pa.get("pressure_center_offset_mm", [0, 0]),
                      "patch.pressure_center_offset_mm", 2)
    patch = _build(
        ContactPatch, "patch",
        r0=_number(_required(pa, "r0_mm", "patch"), "patch.r0_mm", positive=True) * MM,
        c=_number(pa.get("c", 0.6), "patch.c"),
        pressure_center_offset=tuple(v * MM for v in offset),
    )
    initial = _pose_mm_deg(_required(doc, "initial_rel_mm_deg", "scenario"), "initial_rel_mm_deg")
    goal = _pose_mm_deg(_required(doc, "goal_rel_mm_deg", "scenario"), "goal_rel_mm_deg")
    finger = _pose_mm_deg(doc.get("finger_world_mm_deg", [0, 0, 0]), "finger_world_mm_deg")
    noise = _parse_noise(doc.get("noise", {}))
    planner = _parse_planner(doc.get("planner", {}))
    return Scenario(obj=obj, patch=patch, initial_rel=initial, goal_rel=goal,
                    finger_world=finger, noise=noise, planner=planner, name=doc.get("name", name))


def _parse_noise(block: dict) -> NoiseModel:
    _check_keys(block, {"pos_sigma_mm", "angle_sigma_deg", "seed"}, "noise")
    return _build(
        NoiseModel, "noise",
        pos_sigma=_magnitude(block.get("pos_sigma_mm", 0.0), "noise.pos_sigma_mm") * MM,
        angle_sigma=math.radians(_magnitude(block.get("angle_sigma_deg", 0.0),
                                            "noise.angle_sigma_deg")),
        seed=_number(block.get("seed", 0), "noise.seed", integer=True),
    )


def _parse_perturbation(block: dict) -> PerturbationModel:
    _check_keys(block, {"pressure_bias_sigma_mm", "radius_jitter_sigma_mm",
                        "pressure_bias_fixed_mm"}, "perturbation")

    def mm(key: str) -> float:
        return _magnitude(block.get(key, 0.0), f"perturbation.{key}") * MM

    return PerturbationModel(
        pressure_bias_sigma=mm("pressure_bias_sigma_mm"),
        radius_jitter_sigma=mm("radius_jitter_sigma_mm"),
        pressure_bias_fixed=mm("pressure_bias_fixed_mm"),
    )


# planner file key -> (PlannerConfig field, file-unit-to-SI scale); kp and
# ki are the two pi_gains, finger_limits_rad the orientation limits
_PLANNER_KEYS = {
    "r_error_mm": ("r_error", MM),
    "r_theta_error_deg": ("r_theta_error", math.pi / 180.0),
    "max_actions_per_stage": ("max_actions_per_stage", 1),
    "lever_angle_deg": ("lever_angle_stage3", math.pi / 180.0),
    "step_ds": ("step_ds", 1),
}
_GAIN_KEYS = ("kp", "ki")


def _parse_planner(block: dict) -> PlannerConfig:
    _check_keys(block, {*_PLANNER_KEYS, *_GAIN_KEYS, "finger_limits_rad"}, "planner")
    kwargs = {}
    gains = list(PlannerConfig.pi_gains)
    for key, value in block.items():
        where = f"planner.{key}"
        if key == "finger_limits_rad":
            kwargs["finger_orientation_limits"] = tuple(_numbers(value, where, 2))
        elif key in _GAIN_KEYS:
            gains[_GAIN_KEYS.index(key)] = _number(value, where)
            kwargs["pi_gains"] = tuple(gains)
        else:
            attr, scale = _PLANNER_KEYS[key]
            kwargs[attr] = _number(value, where, integer=key == "max_actions_per_stage") * scale
    return _build(PlannerConfig, "planner", **kwargs)


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
    }
    planner = doc["planner"] = dict(zip(_GAIN_KEYS, s.planner.pi_gains))
    planner["finger_limits_rad"] = list(s.planner.finger_orientation_limits)
    for key, (attr, scale) in _PLANNER_KEYS.items():
        value = getattr(s.planner, attr)
        planner[key] = value if scale == 1 else value / scale
    return doc


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read ({exc.strerror})") from exc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(_load_json(path), name=path.stem)


def dump_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_doc(s), indent=2) + "\n")


@dataclass
class EvalConfig:
    """Batch evaluation configuration for the evaluate subcommand."""

    mode: str  # reconfigure | single_pulse | both
    n_trials: int
    noise: NoiseModel
    perturbation: PerturbationModel
    planner: PlannerConfig
    objects: list | None  # None = bundled six-object set
    pulse_steps: int
    step_ds: float


def load_eval_config(path: str | Path) -> EvalConfig:
    doc = _load_json(Path(path))
    _check_keys(doc, {"mode", "n_trials", "noise", "perturbation", "planner",
                      "objects", "pulse_steps", "step_ds"}, "eval config")
    mode = doc.get("mode", "reconfigure")
    if mode not in ("reconfigure", "single_pulse", "both"):
        raise ScenarioError(f"unknown mode {mode!r} in eval config")
    objects = None
    if "objects" in doc:
        if not (isinstance(doc["objects"], list) and doc["objects"]):
            raise ScenarioError(
                f"objects in eval config must be a nonempty list, got {doc['objects']!r}")
        objects = []
        for i, ob in enumerate(doc["objects"]):
            where = f"objects[{i}]"
            _check_keys(ob, {"name", "surface", "mass_g", "extents_mm", "com_offset_mm"}, where)
            model = _object_model(ob, where)
            # per-object results are keyed and sorted by name
            name = ob.get("name", f"object{i + 1}")
            if not isinstance(name, str) or any(o["name"] == name for o in objects):
                raise ScenarioError(f"{where}.name must be a string no other object has, "
                                    f"got {name!r}")
            objects.append({"name": name, "surface": ob.get("surface", ""), "model": model})
    return EvalConfig(
        mode=mode,
        n_trials=_number(doc.get("n_trials", 10), "n_trials", positive=True, integer=True),
        noise=_parse_noise(doc.get("noise", {})),
        perturbation=_parse_perturbation(doc.get("perturbation", {})),
        planner=_parse_planner(doc.get("planner", {})),
        objects=objects,
        pulse_steps=_number(doc.get("pulse_steps", 2000), "pulse_steps",
                            positive=True, integer=True),
        step_ds=_number(doc.get("step_ds", 1e-3), "step_ds", positive=True),
    )


def bundled_path(name: str) -> Path:
    """Path of a bundled scenario/config file (without .json suffix)."""
    return Path(str(resources.files("vib2move").joinpath("data", f"{name}.json")))
