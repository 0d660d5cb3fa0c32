"""Heavy-bottle pick: grasp-force-aware vs width-only gripper commands.

The bilateral gripper closes on a spring-modeled bottle, then a scripted
vertical lift applies an acceleration profile. Each step during lift and
hold, the two-finger friction inequality decides whether the grasp slips;
slip latches for the rest of the trial. The force-aware variant servos the
master until the estimated internal force reaches a commanded profile level
above the hold threshold; the width-only variant commands a width with
clearance against the nominal bottle, producing no squeeze at all, the way a
pure aperture playback does.
"""

import math

import numpy as np

from ..bilateral import (BILATERAL_DT_MAX, BILATERAL_SCHEMA, BilateralState,
                         GraspContactModel, GripperParams, angle_from_width,
                         bilateral_record, estimate_internal_force,
                         step_bilateral)
from ..dynamics import grasp_slip_check
from ..episodes import Episode, StreamSpec
from .base import (Criterion, ScenarioConfig, ScenarioConfigError, ScenarioReport,
                   evaluate_criteria, export_report_episode)


def bilateral_settings_from(config: ScenarioConfig, section: str) -> tuple:
    """([gripper] GripperParams, [section] loop dt), checked before the loop."""
    try:
        dt = config.get_float(section, "dt", 1e-3)
        if not 0.0 < dt <= BILATERAL_DT_MAX:
            raise ValueError(f"[{section}] dt must be in (0, {BILATERAL_DT_MAX}]")
        return GripperParams(
            k_tau=config.get_float("gripper", "k_tau", 0.05),
            r_g=config.get_float("gripper", "r_g", 0.01),
            kp=config.get_float("gripper", "kp", 5.0),
            kd=config.get_float("gripper", "kd", 0.045),
            b=config.get_float("gripper", "b", 1.0),
            delta=config.get_float("gripper", "delta", 0.0),
            a=config.get_float("gripper", "a", 2.0),
            b_l=config.get_float("gripper", "b_l", 0.0),
            motor_inertia=config.get_float("gripper", "motor_inertia", 1e-4),
            filter_cutoff=config.get_float("gripper", "filter_cutoff", 20.0),
            viscous=config.get_float("gripper", "viscous", 0.002),
            w_max=config.get_float("gripper", "w_max", 0.10),
            width_per_rad=config.get_float("gripper", "width_per_rad", 0.01),
        ), dt
    except ValueError as exc:
        raise ScenarioConfigError(f"{config.scenario_id}: {exc}") from exc


def lift_accel(t: float, lift_start: float, ramp_s: float, cruise_s: float,
               accel: float) -> float:
    """Trapezoidal vertical velocity profile: +a ramp, cruise, -a ramp."""
    u = t - lift_start
    if u < 0.0:
        return 0.0
    if u < ramp_s:
        return accel
    if u < ramp_s + cruise_s:
        return 0.0
    if u < 2.0 * ramp_s + cruise_s:
        return -accel
    return 0.0


def run_bottle_pick(config: ScenarioConfig, use_grasp_force: bool,
                    out_dir=None) -> ScenarioReport:
    variant = "with_force" if use_grasp_force else "width_only"
    params, dt = bilateral_settings_from(config, "bottle")
    mass_nominal = config.get_float("bottle", "mass", 0.55)
    mu = config.get_float("bottle", "friction_mu", 0.5)
    width_nominal = config.get_float("bottle", "width", 0.065)
    contact_k = config.get_float("bottle", "contact_stiffness", 5000.0)
    force_cmd = config.get_float("bottle", "force_command", 10.0)
    width_clearance = config.get_float("bottle", "width_clearance", 0.001)
    mass_jitter = config.get_float("bottle", "mass_jitter_frac", 0.03)
    width_jitter = config.get_float("bottle", "width_jitter", 0.001)
    # each check is written so that NaN and infinity fail it
    for ok, what in ((0.0 <= mass_nominal < math.inf, "mass must be finite and >= 0"),
                     (0.0 <= mu < math.inf, "friction_mu must be finite and >= 0"),
                     (0.0 < contact_k < math.inf,
                      "contact_stiffness must be finite and > 0"),
                     (0.0 <= mass_jitter <= 1.0, "mass_jitter_frac must be in [0, 1]")):
        if not ok:
            raise ScenarioConfigError(f"{config.scenario_id}: [bottle] {what}")

    close_s = config.get_float("bottle", "close_s", 1.0)
    ramp_s = config.get_float("bottle", "lift_ramp_s", 0.3)
    cruise_s = config.get_float("bottle", "lift_cruise_s", 0.6)
    hold_s = config.get_float("bottle", "hold_s", 0.5)
    accel = config.get_float("bottle", "lift_accel", 1.0)
    duration = close_s + 2.0 * ramp_s + cruise_s + hold_s

    # operator force servo: close until the felt force reaches the command
    servo_gain = config.get_float("bottle", "operator_servo_gain", 100.0)
    close_rate_max = config.get_float("bottle", "close_rate", 8.0)
    op_kp = config.get_float("bottle", "operator_kp", 8.0)
    op_kd = config.get_float("bottle", "operator_kd", 0.10)

    if use_grasp_force:
        criteria = [Criterion("success_rate", "==", 100.0),
                    Criterion("slippage_rate", "==", 0.0)]
    else:
        criteria = [Criterion("success_rate", "==", 0.0),
                    Criterion("slippage_rate", "==", 100.0)]

    successes, slips = [], []
    episode = None
    for trial in range(config.trials):
        rng = np.random.default_rng(config.seed * 1000 + trial)
        mass = mass_nominal * (1.0 + rng.uniform(-mass_jitter, mass_jitter)) \
            if mass_nominal > 0.0 else 0.0
        width_obj = width_nominal + rng.uniform(-width_jitter, width_jitter)
        contact = GraspContactModel(width_obj, contact_k)

        record = (trial == 0 and out_dir is not None)
        if record:
            episode = Episode(f"{config.scenario_id}_{variant}",
                              [StreamSpec("gripper", 1.0 / dt, BILATERAL_SCHEMA,
                                          "gripper")],
                              config_hash=config.config_hash)

        state = BilateralState()
        theta_cmd = 0.0
        theta_cmd_max = angle_from_width(width_obj - 0.01, params)
        theta_width_only = angle_from_width(width_nominal + width_clearance, params)
        slipped = False
        lift_start = close_s
        n_steps = int(round(duration / dt))
        for i in range(n_steps):
            t = i * dt
            if use_grasp_force:
                felt = estimate_internal_force(state.current_s, params)
                rate = servo_gain * params.r_g * (force_cmd - felt)
                rate = min(max(rate, -close_rate_max), close_rate_max)
                theta_cmd += dt * rate
                theta_cmd = min(max(theta_cmd, 0.0), theta_cmd_max)
            else:
                theta_cmd = min(theta_width_only, theta_cmd + dt * close_rate_max)
            drive = op_kp * (theta_cmd - state.theta_m) - op_kd * state.thetadot_m
            state = step_bilateral(state, drive, contact, params, dt)

            if t >= lift_start and not slipped:
                # a non-positive estimate means no squeeze, not a pulling grasp
                f_int = max(0.0, estimate_internal_force(state.current_s, params))
                accel_z = lift_accel(t, lift_start, ramp_s, cruise_s, accel)
                if grasp_slip_check(f_int, mass, mu, accel_z):
                    slipped = True   # latches: the bottle is gone
            if record:
                episode.record("gripper", t + dt, bilateral_record(state, params))

        successes.append(not slipped)
        slips.append(slipped)

    metrics = {
        "success_rate": float(np.mean(successes) * 100.0),
        "slippage_rate": float(np.mean(slips) * 100.0),
        "object_mass_nominal": mass_nominal,
        "friction_mu": mu,
    }
    report = ScenarioReport(config.scenario_id, config.kind, variant,
                            config.seed, config.trials, metrics,
                            {c.metric: c.describe() for c in criteria},
                            evaluate_criteria(metrics, criteria),
                            config.config_hash,
                            notes=["slip model: two-finger friction inequality "
                                   "2 mu F >= m (g + max(az, 0)), ties hold",
                                   "scripted grasp commands stand in for "
                                   "policy output; not a learned policy"])
    export_report_episode(report, episode, out_dir)
    return report
