import math

import numpy as np
import pytest

from contactctl.scenarios import (load_scenario_config, run_bottle_pick,
                                  run_gravity_verification,
                                  run_selective_release, run_scenario,
                                  run_wiping, summary_table)
from contactctl.scenarios.base import Criterion, ScenarioConfigError, evaluate_criteria
from contactctl.scenarios.bilateral_quality import run_bilateral_signal_quality
from contactctl.scenarios.gravity import calibration_orientations


def load(name, **kw):
    return load_scenario_config(f"configs/{name}.ini", **kw)


# ---------------------------------------------------------------------------
# config and criteria machinery

def test_load_scenario_config_fields():
    config = load("gravity_verification")
    assert config.scenario_id == "gravity_verification"
    assert config.kind == "gravity_verification"
    assert config.seed == 42
    assert len(config.config_hash) == 16


def test_config_overrides_change_hash():
    a = load("gravity_verification")
    b = load("gravity_verification", seed_override=1)
    assert a.config_hash != b.config_hash


def test_missing_config_raises():
    with pytest.raises(ScenarioConfigError):
        load_scenario_config("configs/nope.ini")


def test_criteria_are_pure_functions():
    crits = [Criterion("a", ">=", 1.0), Criterion("b", "<", 0.5)]
    assert evaluate_criteria({"a": 1.0, "b": 0.4}, crits)
    assert not evaluate_criteria({"a": 0.9, "b": 0.4}, crits)
    assert not evaluate_criteria({"a": 1.0}, crits)   # missing metric fails


def test_calibration_orientations_distinct():
    poses = calibration_orientations(10)
    assert len(poses) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.max(np.abs(poses[i] - poses[j])) > 1e-6


# ---------------------------------------------------------------------------
# gravity

def test_gravity_noise_free_exact():
    config = load("gravity_verification")
    config.sections["gravity"]["noise_sigma"] = "0.0"
    config.sections["gravity"]["mc_trials"] = "1"
    report = run_gravity_verification(config)
    assert report.metrics["compensated_span_max"] < 1e-6
    assert report.metrics["residual_rms_max"] < 1e-9


def test_gravity_degenerate_poses_surfaced():
    config = load("gravity_verification")
    config.sections["gravity"]["degenerate_poses"] = "true"
    config.sections["gravity"]["mc_trials"] = "1"
    report = run_gravity_verification(config)
    assert not report.success
    assert any("identification failed" in n for n in report.notes)


def test_gravity_reproducible_bit_exact():
    config = load("gravity_verification")
    config.sections["gravity"]["mc_trials"] = "5"
    a = run_gravity_verification(config)
    b = run_gravity_verification(config)
    assert a.metrics == b.metrics


def test_gravity_seed_changes_noise_metrics_only():
    config_a = load("gravity_verification", seed_override=1)
    config_b = load("gravity_verification", seed_override=2)
    config_a.sections["gravity"]["mc_trials"] = "3"
    config_b.sections["gravity"]["mc_trials"] = "3"
    a = run_gravity_verification(config_a)
    b = run_gravity_verification(config_b)
    assert a.metrics["compensated_span_max"] != b.metrics["compensated_span_max"]
    assert a.metrics["payload_mass_true"] == b.metrics["payload_mass_true"]


# ---------------------------------------------------------------------------
# wiping

def test_wiping_single_trial_passes_core_metrics():
    config = load("wiping", trials_override=1)
    report = run_wiping(config, True)
    assert report.metrics["mean_fz_min"] >= 8.5
    assert report.metrics["mean_fz_max"] <= 11.5
    assert report.metrics["frac_above_floor_min"] >= 0.95
    assert report.metrics["residual_max"] < 0.05
    # golden for seed 7, one trial: a refactor keeps these bits or declares drift
    assert config.seed == 7
    assert math.isclose(report.metrics["mean_fz"], 9.070765960989986, rel_tol=1e-9)


def test_wiping_baseline_misses_surface():
    config = load("wiping", trials_override=1)
    report = run_wiping(config, False)
    assert report.metrics["mean_fz_max"] < 1.0
    assert report.metrics["success_rate_5pct"] == 0.0
    assert report.metrics["residual_max"] == 1.0


def test_wiping_stiffer_plane_same_force():
    # compliance absorbs a doubled surface stiffness
    config = load("wiping", trials_override=1)
    config.sections["plant"]["plane_stiffness"] = "4e4"
    report = run_wiping(config, True)
    assert abs(report.metrics["mean_fz"] - 10.0) / 10.0 < 0.15


def test_wiping_deterministic():
    config = load("wiping", trials_override=1)
    a = run_wiping(config, True)
    b = run_wiping(config, True)
    assert a.metrics == b.metrics


def test_wiping_replay_second_generation(tmp_path):
    # re-execute a recorded episode's action stream: the second-generation
    # contact-force trace must match the first within 5% RMS
    from contactctl.episodes import load_episode, replay_actions
    from contactctl.scenarios.wiping import (_run_trial, _scripted_actions,
                                             impedance_config_from,
                                             stiffness_schedule_from)
    from contactctl.dynamics import ContactPlane, PayloadSpec, load_arm_model
    from contactctl.geometry import Pose, rotation_about_axis
    from contactctl.kinematics import solve_ik
    from contactctl.sensing import IdentifiedPayload, WrenchFrameModel

    config = load("wiping", trials_override=1)
    report = run_wiping(config, True, tmp_path / "gen1")
    episode1 = load_episode(report.episode_dir)

    # generation 2: action list rebuilt from the recorded stream
    chunks = replay_actions(episode1, 16)
    steps2 = [s for c in chunks for s in c.steps]
    rot = rotation_about_axis(np.array([0.0, 1.0, 0.0]),
                              config.get_float("wiping", "tool_pitch", 0.7))
    _, labels1, _ = _scripted_actions(config, rot, 10.0)
    labels2 = labels1 + ["retreat"] * (len(steps2) - len(labels1))

    model = load_arm_model(config.resolve_path(config.get("plant", "chain")))
    start = Pose(rot, [config.get_float("wiping", "x_start", 0.40), 0.0, 0.0])
    ik = solve_ik(model.chain, config.get_vec("wiping", "q_init_guess"),
                  start, max_iters=300, tol=1e-8)
    # same jittered plane and noise stream as the recorded trial (seed, trial 0)
    rng = np.random.default_rng(config.seed * 1000)
    jitter = config.get_float("plant", "surface_jitter", 0.0005)
    offset = rng.uniform(-jitter, jitter)
    plane = ContactPlane(config.get_vec("plant", "plane_normal", "0 0 1"),
                         offset,
                         config.get_float("plant", "plane_stiffness", 2e4),
                         config.get_float("plant", "plane_damping", 250.0),
                         config.get_float("plant", "plane_mu", 0.4))
    payload = PayloadSpec(config.get_float("sensor", "payload_mass", 0.2),
                          config.get_vec("sensor", "payload_com", "0 0 0.03"),
                          config.get_vec("sensor", "payload_bias",
                                         "0.2 -0.1 0.15 0.01 -0.02 0.005"))
    identified = IdentifiedPayload(payload.mass, payload.com_in_sensor,
                                   payload.sensor_bias)
    result = _run_trial(config, model, impedance_config_from(config),
                        stiffness_schedule_from(config), plane, ik.q, start,
                        steps2, labels2, 50, 1e-3, 16, 16, 0.40, 0.20, 20, 7.0,
                        payload, identified, WrenchFrameModel(),
                        config.get_float("sensor", "noise_sigma", 0.02), rng,
                        True, "gen2")
    episode2 = result["episode"]
    fz1 = episode1.values("wrench_ee")[:, 2]
    fz2 = episode2.values("wrench_ee")[:, 2]
    n = min(len(fz1), len(fz2))
    scale = np.sqrt(np.mean(fz1[:n] ** 2))
    rms_diff = np.sqrt(np.mean((fz1[:n] - fz2[:n]) ** 2))
    assert scale > 1.0   # the wipe really pressed
    assert rms_diff / scale < 0.05
    assert abs(result["mean_fz"] - report.metrics["mean_fz"]) \
        / report.metrics["mean_fz"] < 0.05


# ---------------------------------------------------------------------------
# bottle / release / quality edge cases

def test_bottle_massless_both_variants_succeed():
    config = load("bottle_pick", trials_override=3)
    config.sections["bottle"]["mass"] = "0.0"
    for flag in (True, False):
        report = run_bottle_pick(config, flag)
        assert report.metrics["slippage_rate"] == 0.0


def test_release_degenerate_flagged():
    config = load("selective_release", trials_override=3)
    config.sections["release"]["outer_gap"] = "0.0"
    report = run_selective_release(config, True)
    assert not report.success
    assert any("degenerate" in n for n in report.notes)


def test_release_baseline_exact_split():
    config = load("selective_release")
    report = run_selective_release(config, False)
    assert report.metrics["selective_rate"] == 20.0
    assert report.metrics["both_retained_rate"] == 80.0


def test_quality_zero_motion_profile():
    config = load("bilateral_quality")
    config.sections["quality"]["hold_force"] = "0.0"
    config.sections["quality"]["wipe_amp"] = "0.0"
    report = run_bilateral_signal_quality(config)
    assert report.metrics["rms_bilateral"] < 1e-9
    assert report.metrics["rms_no_reflection"] < 1e-9


# ---------------------------------------------------------------------------
# runner and tables

def test_run_scenario_dispatch_unknown_kind():
    config = load("wiping")
    config.kind = "warp-drive"
    with pytest.raises(ScenarioConfigError):
        run_scenario(config)


def test_summary_table_shape():
    config = load("bottle_pick", trials_override=2)
    reports = [run_bottle_pick(config, True), run_bottle_pick(config, False)]
    table = summary_table(reports)
    assert "with grasping force" in table
    assert "width-only" in table
    assert "success rate" in table
