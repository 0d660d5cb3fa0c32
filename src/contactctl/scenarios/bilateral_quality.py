"""Signal-level comparison of grasp-force traces under bilateral reflection.

A scripted pick-wipe-place intent profile (target internal force over time)
stands in for the operator. The operator model closes or opens the master in
proportion to the gap between intended and felt force, where the felt force
is decoded from the rendered reflection using the nominal reflection divisor.
With reflection at its nominal strength the felt force tracks the true
internal force and the recorded trace follows the intent; as the divisor
grows the rendered torque vanishes, the operator feels nothing, keeps closing
against its intent gap, and saturates at its hand limit. Reported RMS
deviations from the intent trace quantify the difference. This is a
controlled signal-level proxy, not a human study.
"""

import math
from dataclasses import replace

import numpy as np

from ..bilateral import (BILATERAL_SCHEMA, BilateralState, GraspContactModel,
                         bilateral_record, estimate_internal_force,
                         step_bilateral)
from ..episodes import Episode, StreamSpec
from .base import (Criterion, ScenarioConfig, ScenarioReport, evaluate_criteria,
                   export_report_episode)
from .bottle import bilateral_settings_from


def intent_force(t: float, hold: float, wipe_amp: float, wipe_hz: float) -> float:
    """Pick-wipe-place internal-force intent profile."""
    if t < 0.5:
        return 0.0
    if t < 1.5:
        return hold * (t - 0.5)
    if t < 3.5:
        return hold + wipe_amp * math.sin(2.0 * math.pi * wipe_hz * (t - 1.5))
    if t < 4.5:
        return max(0.0, hold * (4.5 - t))
    return 0.0


def _run_setting(config: ScenarioConfig, a_actual, record_episode) -> tuple:
    params, dt = bilateral_settings_from(config, "quality")
    a_nominal = params.a
    if a_actual is not None:
        params = replace(params, a=a_actual)
    duration = config.get_float("quality", "duration_s", 5.0)
    hold = config.get_float("quality", "hold_force", 8.0)
    wipe_amp = config.get_float("quality", "wipe_amp", 2.0)
    wipe_hz = config.get_float("quality", "wipe_hz", 0.8)
    width_obj = config.get_float("quality", "object_width", 0.06)
    contact = GraspContactModel(width_obj,
                                config.get_float("quality", "contact_stiffness", 5000.0))
    servo_gain = config.get_float("quality", "operator_servo_gain", 60.0)
    rate_max = config.get_float("quality", "close_rate", 8.0)
    op_kp = config.get_float("quality", "operator_kp", 8.0)
    op_kd = config.get_float("quality", "operator_kd", 0.10)
    theta_max = (params.w_max - width_obj + config.get_float(
        "quality", "overclose", 0.004)) / params.width_per_rad

    # start hovering just above the object, as a demonstrator would
    width_start = width_obj + config.get_float("quality", "start_clearance", 0.002)
    theta0 = (params.w_max - width_start) / params.width_per_rad
    state = BilateralState(theta_m=theta0,
                           theta_s=params.b * theta0 - params.delta)
    theta_cmd = theta0
    f_trace, f_ref = [], []
    episode = None
    if record_episode is not None:
        episode = Episode(record_episode,
                          [StreamSpec("gripper", 1.0 / dt, BILATERAL_SCHEMA,
                                      "gripper")],
                          config_hash=config.config_hash)
    n_steps = int(round(duration / dt))
    for i in range(n_steps):
        t = i * dt
        f_intent = intent_force(t, hold, wipe_amp, wipe_hz)
        # the operator decodes force from what the master actually renders
        rendered = state.tau_s_filtered / params.a
        felt = rendered * a_nominal / params.r_g
        rate = servo_gain * params.r_g * (f_intent - felt)
        rate = min(max(rate, -rate_max), rate_max)
        theta_cmd = min(max(theta_cmd + dt * rate, 0.0), theta_max)
        drive = op_kp * (theta_cmd - state.theta_m) - op_kd * state.thetadot_m
        state = step_bilateral(state, drive, contact, params, dt)
        f_trace.append(max(0.0, estimate_internal_force(state.current_s, params)))
        f_ref.append(intent_force(t + dt, hold, wipe_amp, wipe_hz))
        if episode is not None:
            episode.record("gripper", t + dt, bilateral_record(state, params))

    rms = float(np.sqrt(np.mean((np.array(f_trace) - np.array(f_ref)) ** 2)))
    return rms, episode


def run_bilateral_signal_quality(config: ScenarioConfig, out_dir=None) -> ScenarioReport:
    record = "quality_bilateral" if out_dir is not None else None
    rms_bilateral, episode = _run_setting(config, None, record)
    # open-loop baseline: reflection divisor so large nothing is rendered
    rms_open_loop, _ = _run_setting(
        config, config.get_float("quality", "a_open_loop", 1e12), None)
    rms_infinite_a, _ = _run_setting(
        config, config.get_float("quality", "a_infinite", 1e9), None)

    metrics = {
        "rms_bilateral": rms_bilateral,
        "rms_no_reflection": rms_open_loop,
        "rms_infinite_divisor": rms_infinite_a,
        "improvement_ratio": rms_open_loop / rms_bilateral
        if rms_bilateral > 0.0 else float("inf"),
        "infinite_vs_open_gap_pct": abs(rms_infinite_a - rms_open_loop)
        / rms_open_loop * 100.0 if rms_open_loop > 0.0 else 0.0,
    }
    criteria = [
        Criterion("improvement_ratio", ">", 1.0),
        Criterion("infinite_vs_open_gap_pct", "<=",
                  config.get_float("criteria", "infinite_gap_pct", 1.0)),
    ]
    report = ScenarioReport(
        config.scenario_id, config.kind, "default", config.seed, 1, metrics,
        {c.metric: c.describe() for c in criteria},
        evaluate_criteria(metrics, criteria), config.config_hash,
        notes=["signal-level proxy with a scripted force-intent operator "
               "model; not a human-subject comparison"])
    export_report_episode(report, episode, out_dir)
    return report
