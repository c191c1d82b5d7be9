import hashlib
import math
import random
import statistics

import pytest

from vib2move.harness import (
    NoiseModel,
    PerturbationModel,
    PlantEnv,
    default_objects,
    default_patch,
    observe,
    run_reconfiguration_eval,
    run_single_pulse_eval,
    sample_goal,
    state_from_relative,
)
from vib2move.planner import PlannerConfig
from vib2move.se2 import PoseSE2, wrap_angle

from conftest import KERNELS, select_kernel


class TestObserve:
    def test_zero_sigma_is_identity(self):
        p = PoseSE2(0.01, -0.02, 0.4)
        assert observe(p, NoiseModel(0.0, 0.0), random.Random(1)) == p

    def test_fixed_seed_reproducible(self):
        p = PoseSE2(0.01, -0.02, 0.4)
        n = NoiseModel(0.001, 0.0087, seed=42)
        a = [observe(p, n, n.rng()) for _ in range(1)]
        b = [observe(p, n, n.rng()) for _ in range(1)]
        assert a == b

    def test_empirical_sigma(self):
        n = NoiseModel(pos_sigma=0.001, angle_sigma=0.0087)
        rng = random.Random(7)
        xs = [observe(PoseSE2(0, 0, 0), n, rng).x for _ in range(100_000)]
        assert statistics.pstdev(xs) == pytest.approx(0.001, rel=0.02)

    def test_angle_rewrapped(self):
        n = NoiseModel(pos_sigma=0.0, angle_sigma=0.5)
        rng = random.Random(3)
        for _ in range(200):
            th = observe(PoseSE2(0, 0, 3.1), n, rng).theta
            assert -math.pi < th <= math.pi

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(pos_sigma=-0.001)


class TestPerturbation:
    def test_radius_stays_positive(self):
        p = PerturbationModel(radius_jitter_sigma=0.05)
        rng = random.Random(0)
        for _ in range(200):
            patch = p.apply(default_patch(), rng)
            assert patch.r0 > 0.0

    def test_fixed_bias_magnitude(self):
        p = PerturbationModel(pressure_bias_fixed=0.002)
        rng = random.Random(1)
        for _ in range(50):
            patch = p.apply(default_patch(), rng)
            assert math.hypot(*patch.pressure_center_offset) == pytest.approx(0.002, rel=1e-9)

    def test_bias_clamped_inside_patch(self):
        p = PerturbationModel(pressure_bias_sigma=0.02)
        rng = random.Random(2)
        for _ in range(200):
            patch = p.apply(default_patch(), rng)
            assert math.hypot(*patch.pressure_center_offset) < patch.r0


    @pytest.mark.parametrize("field", ["pressure_bias_sigma", "radius_jitter_sigma",
                                       "pressure_bias_fixed"])
    def test_negative_input_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative, got -0.001$"):
            PerturbationModel(**{field: -0.001})
        assert getattr(PerturbationModel(**{field: 0.0}), field) == 0.0


class TestSinglePulseEval:
    def test_model_equals_plant_when_unperturbed(self):
        rep = run_single_pulse_eval(n_trials=20, n_steps=25, seed=5)
        assert rep.rmse_pos == 0.0
        assert rep.rmse_angle == 0.0
        assert rep.success_rate == 1.0

    def test_perturbation_creates_error(self):
        rep = run_single_pulse_eval(
            n_trials=20, n_steps=25, seed=5,
            perturb=PerturbationModel(pressure_bias_sigma=0.002, radius_jitter_sigma=0.001))
        assert rep.rmse_pos > 0.0

    def test_deterministic(self):
        kw = dict(n_trials=10, n_steps=25, seed=9,
                  perturb=PerturbationModel(pressure_bias_sigma=0.002))
        assert run_single_pulse_eval(**kw) == run_single_pulse_eval(**kw)

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            run_single_pulse_eval(n_trials=0)


class TestReconfigurationEval:
    def test_noise_free_all_succeed(self):
        rep = run_reconfiguration_eval(objects=[default_objects()[0]],
                                       n_paths_per_object=10, seed=4)
        assert rep.success_rate == 1.0
        assert rep.rmse_pos < PlannerConfig().r_error

    def test_deterministic_reports(self):
        kw = dict(objects=[default_objects()[1]], n_paths_per_object=5,
                  noise=NoiseModel(0.001, 0.0087),
                  perturb=PerturbationModel(pressure_bias_fixed=0.002), seed=13)
        assert run_reconfiguration_eval(**kw) == run_reconfiguration_eval(**kw)

    def test_per_object_sections(self):
        rep = run_reconfiguration_eval(n_paths_per_object=2, seed=3)
        assert set(rep.per_object) == {e["name"] for e in default_objects()}
        for d in rep.per_object.values():
            assert d["n_trials"] == 2

    def test_rel_error_definition(self):
        rep = run_reconfiguration_eval(objects=[default_objects()[0]],
                                       n_paths_per_object=5, seed=6)
        d = rep.per_object["object1"]
        assert d["rel_error_pct"] == pytest.approx(
            100.0 * d["rmse_pos"] / 0.150, rel=1e-9)

    def test_degrades_gracefully_with_noise(self):
        rmses = []
        for sigma in (0.0, 0.0005, 0.001, 0.002):
            rep = run_reconfiguration_eval(
                objects=[default_objects()[0]], n_paths_per_object=12,
                noise=NoiseModel(sigma, 0.0087 if sigma else 0.0),
                config=PlannerConfig(max_actions_per_stage=400), seed=8)
            ok = [t for t in rep.trials if t.success]
            assert len(ok) >= 10
            rmses.append(rep.rmse_pos)
        assert rmses[0] < rmses[-1]

    # SHA-256 of the trial reprs below, the same on both kernels
    FAILING_TRIALS_SHA256 = "dfdcc56f9033dc37d28ad06fbc71a575db7310adfc1825358aa949f942c55591"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_failing_trials_pinned(self, monkeypatch, kernel):
        """Byte pin on trials that fail, under the noisy acceptance setup:
        seed 1 holds a stage-2 timeout (trial 5) and a stage-3 orientation
        limit (trial 15), seed 10 a positioning orientation limit and
        seed 17 a drop (trial 6)."""
        select_kernel(monkeypatch, kernel)
        trials = []
        for seed, n_paths in ((1, 16), (10, 1), (17, 7)):
            trials += run_reconfiguration_eval(
                objects=[default_objects()[0]], n_paths_per_object=n_paths,
                noise=NoiseModel(pos_sigma=0.001, angle_sigma=0.0087),
                perturb=PerturbationModel(pressure_bias_fixed=0.002),
                config=PlannerConfig(max_actions_per_stage=400), seed=seed).trials
        failures = {t.failure.split(":")[0] for t in trials if t.failure}
        assert failures == {"StageTimeoutError", "OrientationLimitError", "ObjectDroppedError"}
        digest = hashlib.sha256("\n".join(map(repr, trials)).encode()).hexdigest()
        assert digest == self.FAILING_TRIALS_SHA256


def test_sample_goal_respects_protocol():
    obj = default_objects()[0]["model"]
    patch = default_patch()
    config = PlannerConfig()
    rng = random.Random(11)
    rel0 = PoseSE2(0.0, -0.0225, 0.0)
    for _ in range(50):
        g = sample_goal(rng, rel0, obj, patch, config)
        assert math.hypot(g.x - rel0.x, g.y - rel0.y) <= 0.05 + 1e-9
        assert abs(wrap_angle(g.theta - rel0.theta)) <= math.radians(60) + 1e-9
        assert abs(g.x) <= obj.extents[0] / 2 - patch.r0
        assert abs(g.y) <= obj.extents[1] / 2 - patch.r0


def test_plant_env_enforces_orientation_limits():
    from vib2move.planner import OrientationLimitError

    obj = default_objects()[0]["model"]
    env = PlantEnv(state_from_relative(PoseSE2(0, -0.02, 0), default_patch()), obj)
    with pytest.raises(OrientationLimitError):
        env.reorient(1.7)


def test_evals_never_request_recording(kernel_spy):
    run_single_pulse_eval(n_trials=5, n_steps=300,
                          perturb=PerturbationModel(pressure_bias_fixed=0.002), seed=1)
    n_single = len(kernel_spy)
    assert n_single >= 5
    run_reconfiguration_eval(objects=default_objects()[:1], n_paths_per_object=2,
                             noise=NoiseModel(0.001, 0.0087),
                             perturb=PerturbationModel(pressure_bias_fixed=0.002), seed=1)
    assert len(kernel_spy) > n_single
    assert kernel_spy == [(False, 0)] * len(kernel_spy)


def test_plant_env_records_only_on_request():
    obj = default_objects()[0]["model"]
    state = state_from_relative(PoseSE2(0.01, -0.02, 0.1), default_patch())
    quiet = PlantEnv(state, obj)
    loud = PlantEnv(state, obj, record=True)
    for env in (quiet, loud):
        env.pulse(40, 1e-3)
        env.pulse(10, 1e-3)
    assert quiet.points == []
    # points collects every recorded pulse in order
    assert len(loud.points) == 50
    assert repr(quiet.state) == repr(loud.state)


def test_trials_count_every_env_action(monkeypatch):
    """n_actions counts observe, reorient and pulse calls alike, on a
    failed trial as on a successful one."""
    from vib2move import harness

    kinds_per_env = []

    class KindLoggingEnv(PlantEnv):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.kinds = []
            kinds_per_env.append(self.kinds)

        def observe(self):
            self.kinds.append("observe")
            return super().observe()

        def reorient(self, target_theta):
            super().reorient(target_theta)
            self.kinds.append("reorient")

        def pulse(self, n_steps, step_ds):
            super().pulse(n_steps, step_ds)
            self.kinds.append("pulse")

    monkeypatch.setattr(harness, "PlantEnv", KindLoggingEnv)
    report = run_reconfiguration_eval(objects=default_objects()[:1], n_paths_per_object=4,
                                      config=PlannerConfig(max_actions_per_stage=1), seed=3)
    planned = [t for t in report.trials if t.failure != "no feasible goal found"]
    assert len(planned) == len(kinds_per_env)
    timeouts = [t for t in planned if (t.failure or "").startswith("StageTimeoutError")]
    assert timeouts
    for trial, kinds in zip(planned, kinds_per_env):
        assert set(kinds) == {"observe", "reorient", "pulse"}
        assert trial.n_actions == len(kinds)
