"""Static-pose gravity-compensation verification.

The sensor is swept through 10 distinct orientations (the six axis-aligned
gravity directions plus four tilted poses), holding each for a fixed window.
A payload sized so the raw per-axis force span reaches the target is
identified from the averaged window readings, then every raw sample is
compensated. Reported: raw span, compensated span, and fit residual, worst
case over the Monte-Carlo trials.
"""

from itertools import accumulate, repeat

import numpy as np

from ..episodes import Episode, StreamSpec
from ..geometry import Pose, rotation_about_axis
from ..sensing import compensate_wrench, gravity_model, identify_payload
from .base import SCENARIO_KEYS, Criterion, Key, ScenarioConfig, build_report

WRENCH_SCHEMA = ("fx", "fy", "fz", "tx", "ty", "tz")

KEYS = SCENARIO_KEYS + (
    Key("gravity", "n_poses", int, "10", ">= 4"),
    Key("gravity", "hold_s", float, "1.0", ">= 0"),
    Key("gravity", "sample_rate_hz", float, "100.0", "> 0"),
    Key("gravity", "noise_sigma", float, "0.05", ">= 0"),
    Key("gravity", "target_force_span", float, "6.7", ">= 0"),
    Key("gravity", "payload_com", 3, "0.01 0.02 0.05"),
    Key("gravity", "payload_bias", 6, "0.3 -0.2 0.1 0.05 -0.03 0.02"),
    Key("criteria", "compensated_span_max", float, "0.5", ">= 0"),
    Key("criteria", "residual_rms_max", float, "0.15", ">= 0"),
)
TICKS_SET_BY = (("gravity", "n_poses"), ("gravity", "hold_s"),
                ("gravity", "sample_rate_hz"))
VARIANTS = {"default": "default"}
TABLE = None


def _hold_samples(gravity: dict) -> int:
    return max(1, int(round(gravity["hold_s"] * gravity["sample_rate_hz"])))


def row_ticks(config: ScenarioConfig) -> int:
    """The samples of a trial, which stand in for its control ticks."""
    return config.value("gravity", "n_poses") * _hold_samples(config.values("gravity"))


def calibration_orientations(n_poses: int = 10) -> list:
    """Deterministic orientation set spanning the workspace.

    The first six align gravity with each sensor +/- axis so the raw span
    hits its full 2 m g width; the rest are fixed tilted poses for
    conditioning of the least-squares fit.
    """
    x, y = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    poses = [np.eye(3),
             rotation_about_axis(x, np.pi),
             rotation_about_axis(x, np.pi / 2),
             rotation_about_axis(x, -np.pi / 2),
             rotation_about_axis(y, np.pi / 2),
             rotation_about_axis(y, -np.pi / 2)]
    k = 0
    while len(poses) < n_poses:
        tilt = rotation_about_axis(y, np.pi / 3) @ rotation_about_axis(x, np.pi / 4)
        poses.append(rotation_about_axis(np.array([0, 0, 1.0]),
                                         2.0 * np.pi * k / 7.0) @ tilt)
        k += 1
    return poses[:n_poses]


def _per_axis_span(values: np.ndarray) -> float:
    return float(np.max(values.max(axis=0) - values.min(axis=0)))


def run_gravity_verification(config: ScenarioConfig, out_dir=None) -> list:
    gravity = config.values("gravity")
    n_poses = gravity["n_poses"]
    sigma, target_span = gravity["noise_sigma"], gravity["target_force_span"]

    # raw per-axis span covers [-m g, +m g] across the axis-aligned poses
    mass = target_span / (2.0 * 9.81)
    orientations = np.array(calibration_orientations(n_poses))
    n_hold = _hold_samples(gravity)

    criteria = [
        Criterion("compensated_span_max", "<",
                  config.value("criteria", "compensated_span_max")),
        Criterion("residual_rms_max", "<", config.value("criteria", "residual_rms_max")),
        Criterion("raw_span_mean", ">=", target_span - 0.4),
        Criterion("raw_span_mean", "<=", target_span + 0.4),
    ]

    # the noise-free reading at each pose, the same in every trial
    true = gravity_model(mass, gravity["payload_com"], gravity["payload_bias"],
                         orientations)
    raw_spans, comp_spans, residual_maxes = [], [], []
    episode = None
    for trial in range(config.trials):
        rng = np.random.default_rng(config.seed * 1000 + trial)
        # (poses, samples, 6): one draw gives the bits of one draw per pose
        blocks = true[:, None, :] + (rng.normal(0.0, sigma, (n_poses, n_hold, 6))
                                     if sigma > 0.0 else 0.0)
        averaged = blocks.mean(axis=1)
        payload = identify_payload(orientations, averaged)
        # with an identity sensor-to-ee transform, compensating a whole pose
        # block is the block minus the fitted gravity force at that pose
        grav_hat = gravity_model(payload.mass, payload.com, payload.bias,
                                 orientations)[:, :3]
        raw_spans.append(_per_axis_span(averaged[:, :3]))
        comp_spans.append(_per_axis_span(
            (blocks[:, :, :3] - grav_hat[:, None, :]).reshape(-1, 3)))
        residual_maxes.append(float(payload.residual_rms.max()))

        if trial == 0 and out_dir is not None:
            episode = _record_episode(config, orientations, blocks, payload,
                                      gravity["sample_rate_hz"])

    metrics = {
        "raw_span_mean": float(np.mean(raw_spans)),
        "compensated_span_max": float(np.max(comp_spans)),
        "residual_rms_max": float(np.max(residual_maxes)),
        "payload_mass_true": mass,
    }
    return [build_report(config, "default", metrics, criteria, (), episode, out_dir)]


RUNNER = run_gravity_verification.__name__


def _record_episode(config, orientations, blocks, payload, rate) -> Episode:
    """Raw and compensated readings of the (poses, samples, 6) blocks, in
    pose order."""
    episode = Episode(f"{config.scenario_id}_default",
                      [StreamSpec("wrench_raw", rate, WRENCH_SCHEMA, "wrench"),
                       StreamSpec("wrench_ee", rate, WRENCH_SCHEMA, "wrench")],
                      config_hash=config.config_hash)
    raw = blocks.reshape(-1, 6)
    rows_r = np.repeat(orientations, blocks.shape[1], axis=0)
    comp = compensate_wrench(raw, payload, rows_r, Pose.identity())
    # sample times advance by a running sum, 0, 1/rate, 2/rate, ...
    t = list(accumulate(repeat(1.0 / rate, len(raw) - 1), initial=0.0))
    episode.record_block("wrench_raw", t, raw)
    episode.record_block("wrench_ee", t, comp)
    return episode
