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

from dataclasses import fields

import numpy as np

from ..bilateral import (BILATERAL_DT_MAX, BILATERAL_SCHEMA, BilateralState,
                         GraspContactModel, GripperParams, angle_from_width,
                         bilateral_record, estimate_internal_force,
                         step_bilateral)
from ..dynamics import grasp_slip_check
from ..episodes import Episode, StreamSpec
from .base import (SCENARIO_KEYS, Criterion, Key, ScenarioConfig, build_report,
                   field_keys)

GRIPPER_KEYS = field_keys("gripper", GripperParams)   # GripperParams checks them
BILATERAL_DT = f"(0, {BILATERAL_DT_MAX}]"

KEYS = SCENARIO_KEYS + GRIPPER_KEYS + (
    Key("bottle", "dt", float, "0.001", BILATERAL_DT),
    Key("bottle", "mass", float, "0.55", ">= 0"),
    Key("bottle", "friction_mu", float, "0.5", ">= 0"),
    Key("bottle", "width", float, "0.065", "> 0"),
    Key("bottle", "contact_stiffness", float, "5000.0", "> 0"),
    Key("bottle", "force_command", float, "10.0"),
    Key("bottle", "width_clearance", float, "0.001"),
    Key("bottle", "mass_jitter_frac", float, "0.03", "[0, 1]"),
    Key("bottle", "width_jitter", float, "0.001", ">= 0"),
    Key("bottle", "close_s", float, "1.0", ">= 0"),
    Key("bottle", "lift_ramp_s", float, "0.3", ">= 0"),
    Key("bottle", "lift_cruise_s", float, "0.6", ">= 0"),
    Key("bottle", "hold_s", float, "0.5", ">= 0"),
    Key("bottle", "lift_accel", float, "1.0"),
    Key("bottle", "operator_servo_gain", float, "100.0", ">= 0"),
    Key("bottle", "operator_kp", float, "8.0", ">= 0"),
    Key("bottle", "operator_kd", float, "0.1", ">= 0"),
    Key("bottle", "close_rate", float, "8.0", ">= 0"),
)
TICKS_SET_BY = (("bottle", "close_s"), ("bottle", "lift_ramp_s"),
                ("bottle", "lift_cruise_s"), ("bottle", "hold_s"), ("bottle", "dt"))
VARIANTS = {"with_force": "with grasping force", "width_only": "width-only"}
TABLE = ("force-sensitive pick-and-place", {"success rate": "success_rate",
                                           "slippage rate": "slippage_rate"})


def gripper_params(config: ScenarioConfig) -> GripperParams:
    return config.build(GripperParams, **config.values("gripper"))


STATE_COLUMNS = len(fields(BilateralState))


def gripper_episode(episode_id: str, config: ScenarioConfig, log: np.ndarray,
                    params: GripperParams, dt: float) -> Episode:
    """The gripper stream of a recorded bilateral row.

    `log[i]` holds the BilateralState fields, in order, after step i, which
    is recorded at t = (i + 1) dt.
    """
    episode = Episode(episode_id, [StreamSpec("gripper", 1.0 / dt, BILATERAL_SCHEMA,
                                              "gripper")],
                      config_hash=config.config_hash)
    episode.record_block("gripper", np.arange(len(log)) * dt + dt,
                         bilateral_record(BilateralState(*log.T), params))
    return episode


def row_ticks(config: ScenarioConfig) -> int:
    bottle = config.values("bottle")
    return int(round((bottle["close_s"] + 2.0 * bottle["lift_ramp_s"]
                      + bottle["lift_cruise_s"] + bottle["hold_s"]) / bottle["dt"]))


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


def run_bottle_pick(config: ScenarioConfig, out_dir=None) -> list:
    params = gripper_params(config)
    bottle, n_steps = config.values("bottle"), row_ticks(config)
    dt, mu, accel = bottle["dt"], bottle["friction_mu"], bottle["lift_accel"]
    ramp_s, cruise_s = bottle["lift_ramp_s"], bottle["lift_cruise_s"]
    # operator force servo: close until the felt force reaches the command
    force_cmd, servo_gain = bottle["force_command"], bottle["operator_servo_gain"]
    close_rate_max = bottle["close_rate"]
    op_kp, op_kd = bottle["operator_kp"], bottle["operator_kd"]
    mass_jitter = bottle["mass_jitter_frac"]
    theta_width_only = angle_from_width(bottle["width"] + bottle["width_clearance"],
                                        params)
    lift_start = bottle["close_s"]

    reports = []
    for variant in VARIANTS:
        force_aware = variant == "with_force"
        successes, slips = [], []
        episode = None
        for trial in range(config.trials):
            rng = np.random.default_rng(config.seed * 1000 + trial)
            mass = bottle["mass"] * (1.0 + rng.uniform(-mass_jitter, mass_jitter)) \
                if bottle["mass"] > 0.0 else 0.0
            width_obj = bottle["width"] + rng.uniform(-bottle["width_jitter"],
                                                      bottle["width_jitter"])
            contact = GraspContactModel(width_obj, bottle["contact_stiffness"])

            record = (trial == 0 and out_dir is not None)
            log = np.empty((n_steps, STATE_COLUMNS)) if record else None

            state = BilateralState()
            theta_cmd = 0.0
            theta_cmd_max = angle_from_width(width_obj - 0.01, params)
            slipped = False
            for i in range(n_steps):
                t = i * dt
                if force_aware:
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
                    log[i] = (state.theta_m, state.theta_s, state.thetadot_m,
                              state.thetadot_s, state.tau_s_filtered, state.current_s)

            if record:
                episode = gripper_episode(f"{config.scenario_id}_{variant}",
                                          config, log, params, dt)
            successes.append(not slipped)
            slips.append(slipped)

        metrics = {
            "success_rate": float(np.mean(successes) * 100.0),
            "slippage_rate": float(np.mean(slips) * 100.0),
            "object_mass_nominal": bottle["mass"],
            "friction_mu": mu,
        }
        criteria = [Criterion("success_rate", "==", 100.0 if force_aware else 0.0),
                    Criterion("slippage_rate", "==", 0.0 if force_aware else 100.0)]
        reports.append(build_report(
            config, variant, metrics, criteria,
            ["slip model: two-finger friction inequality "
             "2 mu F >= m (g + max(az, 0)), ties hold",
             "scripted grasp commands stand in for "
             "policy output; not a learned policy"], episode, out_dir))
    return reports


RUNNER = run_bottle_pick.__name__
