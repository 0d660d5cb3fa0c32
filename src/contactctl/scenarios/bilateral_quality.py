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

from ..bilateral import (BilateralState, GraspContactModel, angle_from_width,
                         estimate_internal_force, step_bilateral)
from .base import SCENARIO_KEYS, Criterion, Key, ScenarioConfig, build_report
from .bottle import (BILATERAL_DT, GRIPPER_KEYS, STATE_COLUMNS, gripper_episode,
                     gripper_params)

# the three divisor settings run once: a run is one trial
KEYS = tuple(Key("scenario", "trials", int, "1", "[1, 1]") if key.name == "trials"
             else key for key in SCENARIO_KEYS) + GRIPPER_KEYS + (
    Key("quality", "dt", float, "0.001", BILATERAL_DT),
    Key("quality", "duration_s", float, "5.0", ">= 0"),
    Key("quality", "hold_force", float, "8.0"),
    Key("quality", "wipe_amp", float, "2.0"),
    Key("quality", "wipe_hz", float, "0.8"),
    Key("quality", "object_width", float, "0.06", "> 0"),
    Key("quality", "contact_stiffness", float, "5000.0", "> 0"),
    Key("quality", "operator_servo_gain", float, "60.0", ">= 0"),
    Key("quality", "close_rate", float, "8.0", ">= 0"),
    Key("quality", "operator_kp", float, "8.0", ">= 0"),
    Key("quality", "operator_kd", float, "0.1", ">= 0"),
    Key("quality", "overclose", float, "0.004"),
    # these replace [gripper] a, so GripperParams checks them
    Key("quality", "a_open_loop", float, "1000000000000.0"),
    Key("quality", "a_infinite", float, "1000000000.0"),
    Key("criteria", "infinite_gap_pct", float, "1.0", ">= 0"),
)
TICKS_SET_BY = (("quality", "duration_s"), ("quality", "dt"))
VARIANTS = {"default": "default"}
TABLE = None
START_CLEARANCE = 0.002   # m, the gap above the object each setting starts at


def row_ticks(config: ScenarioConfig) -> int:
    return int(round(config.value("quality", "duration_s") / config.value("quality", "dt")))


def _divisor_settings(config: ScenarioConfig) -> list:
    """GripperParams at the nominal, open-loop and infinite divisors."""
    params = gripper_params(config)
    return [params] + [config.build(replace, params, a=config.value("quality", key))
                       for key in ("a_open_loop", "a_infinite")]


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


def _run_setting(config: ScenarioConfig, quality: dict, params, a_nominal: float,
                 f_intent: list, f_ref: np.ndarray, record_episode) -> tuple:
    dt, width_obj = quality["dt"], quality["object_width"]
    contact = GraspContactModel(width_obj, quality["contact_stiffness"])
    servo_gain, rate_max = quality["operator_servo_gain"], quality["close_rate"]
    op_kp, op_kd = quality["operator_kp"], quality["operator_kd"]
    theta_max = (params.w_max - width_obj + quality["overclose"]) / params.width_per_rad

    # start hovering just above the object, as a demonstrator would
    theta0 = angle_from_width(width_obj + START_CLEARANCE, params)
    state = BilateralState(theta_m=theta0,
                           theta_s=params.b * theta0 - params.delta)
    theta_cmd = theta0
    f_trace = []
    n_steps = len(f_intent)
    log = np.empty((n_steps, STATE_COLUMNS)) if record_episode is not None else None
    for i in range(n_steps):
        # the operator decodes force from what the master actually renders
        rendered = state.tau_s_filtered / params.a
        felt = rendered * a_nominal / params.r_g
        rate = servo_gain * params.r_g * (f_intent[i] - felt)
        rate = min(max(rate, -rate_max), rate_max)
        theta_cmd = min(max(theta_cmd + dt * rate, 0.0), theta_max)
        drive = op_kp * (theta_cmd - state.theta_m) - op_kd * state.thetadot_m
        state = step_bilateral(state, drive, contact, params, dt)
        f_trace.append(max(0.0, estimate_internal_force(state.current_s, params)))
        if log is not None:
            log[i] = (state.theta_m, state.theta_s, state.thetadot_m,
                      state.thetadot_s, state.tau_s_filtered, state.current_s)

    episode = None if log is None else \
        gripper_episode(record_episode, config, log, params, dt)
    rms = float(np.sqrt(np.mean((np.array(f_trace) - f_ref) ** 2)))
    return rms, episode


def run_bilateral_signal_quality(config: ScenarioConfig, out_dir=None) -> list:
    record = "quality_bilateral" if out_dir is not None else None
    quality = config.values("quality")
    nominal, open_loop, infinite_a = _divisor_settings(config)
    dt, steps = quality["dt"], range(row_ticks(config))
    profile = (quality["hold_force"], quality["wipe_amp"], quality["wipe_hz"])
    # the intent each step acts on (at its start) and is scored against (at its end)
    intent = ([intent_force(i * dt, *profile) for i in steps],
              np.array([intent_force(i * dt + dt, *profile) for i in steps]))
    rms_bilateral, episode = _run_setting(config, quality, nominal, nominal.a,
                                          *intent, record)
    # open-loop baseline: reflection divisor so large nothing is rendered
    rms_open_loop, _ = _run_setting(config, quality, open_loop, nominal.a, *intent, None)
    rms_infinite_a, _ = _run_setting(config, quality, infinite_a, nominal.a,
                                     *intent, None)

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
                  config.value("criteria", "infinite_gap_pct")),
    ]
    return [build_report(config, "default", metrics, criteria,
                         ["signal-level proxy with a scripted force-intent "
                          "operator model; not a human-subject comparison"],
                         episode, out_dir)]


RUNNER = run_bilateral_signal_quality.__name__
