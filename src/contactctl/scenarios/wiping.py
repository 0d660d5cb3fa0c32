"""Surface-wiping scenario: force-targeted sliding contact on a penalty plane.

A scripted action stream (settle, press, slide, retreat) is recorded, chunked,
compiled through the compliance pipeline, and executed by the impedance
controller against the rigid-body plant. The wrench-aware variant carries a
constant normal-force target during press and slide; the baseline variant
replays the same motion with zero force prediction against a surface that sits
below its nominal height, so it never develops contact. A strip of surface
cells is "erased" wherever the local normal force reaches the erase threshold
during the pass; the residual-marking fraction is the task metric.
"""

import csv
from dataclasses import replace

import numpy as np

from ..compliance import (ACTION_SCHEMA, ActionStep, RecedingHorizonScheduler,
                          StiffnessSchedule, interpolate_commands)
from ..dynamics import (ContactPlane, PayloadSpec, SimState, load_arm_model,
                        read_ft_sensor)
from ..episodes import Episode, StreamSpec, replay_actions
from ..geometry import Pose, Rot6D, rotation_about_axis
from ..impedance import ImpedanceConfig, ImpedanceExecutor
from ..kinematics import solve_ik
from ..sensing import IdentifiedPayload, WrenchFrameModel, compensate_wrench
from .base import (Criterion, ScenarioConfig, ScenarioConfigError,
                   ScenarioReport, evaluate_criteria, export_report_episode)
from .gravity import WRENCH_SCHEMA

POSE_SCHEMA = ("px", "py", "pz", "r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5")


def impedance_config_from(config: ScenarioConfig) -> ImpedanceConfig:
    return ImpedanceConfig(
        k_min=config.get_float("gains", "k_min", 200.0),
        k_max=config.get_float("gains", "k_max", 2000.0),
        zeta=config.get_float("gains", "zeta", 1.0),
        m_eff=config.get_float("gains", "m_eff", 2.0),
        k_rot=config.get_vec("gains", "k_rot", "50 50 50"),
        d_rot=config.get_vec("gains", "d_rot", "5 5 5"),
        kq_floor=config.get_float("gains", "kq_floor", 1.0),
        kqd_floor=config.get_float("gains", "kqd_floor", 0.1),
        ik_damping=config.get_float("gains", "ik_damping", 0.05),
        dt=config.get_float("plant", "dt", 1e-3),
        qd_filter_cutoff=config.get_float("gains", "qd_filter_cutoff", 20.0),
    )


def stiffness_schedule_from(config: ScenarioConfig) -> StiffnessSchedule:
    return StiffnessSchedule(
        k_max=config.get_float("compliance", "k_max", 2000.0),
        k_min=config.get_float("compliance", "k_min", 200.0),
        f_sat=config.get_float("compliance", "f_sat", 20.0),
        per_axis=config.get_bool("compliance", "per_axis", True),
    )


def _scripted_actions(config: ScenarioConfig, start_rotation, force_target: float):
    """Action rows for settle -> press -> slide -> retreat, at the action rate."""
    rate = config.get_float("wiping", "action_rate_hz", 20.0)
    stroke = config.get_float("wiping", "stroke", 0.24)
    phases = [("settle", config.get_float("wiping", "settle_s", 0.4), 0.0, 0.0),
              ("press", config.get_float("wiping", "press_s", 0.5), force_target, 0.0),
              ("slide", config.get_float("wiping", "slide_s", 1.6), force_target, stroke),
              ("retreat", config.get_float("wiping", "retreat_s", 0.3), 0.0, 0.0)]
    rot6d = Rot6D.encode(start_rotation)
    width = config.get_float("wiping", "gripper_width", 0.05)
    steps, labels = [], []
    for label, duration, fz, dx_total in phases:
        n = max(1, int(round(duration * rate)))
        dx = dx_total / n
        for _ in range(n):
            steps.append(ActionStep([dx, 0.0, 0.0], rot6d, [0.0, 0.0, fz], width))
            labels.append(label)
    return steps, labels, rate


def run_wiping(config: ScenarioConfig, use_wrench: bool, out_dir=None) -> ScenarioReport:
    variant = "with_wrench" if use_wrench else "no_wrench"
    chain_path = config.resolve_path(config.get("plant", "chain"))
    model = load_arm_model(chain_path)
    chain = model.chain
    dt = config.get_float("plant", "dt", 1e-3)
    z_nominal = config.get_float("plant", "plane_offset", 0.0)
    try:
        imp_cfg = impedance_config_from(config)
        sched = stiffness_schedule_from(config)
        # per-trial planes differ only in their offset
        nominal_plane = ContactPlane(config.get_vec("plant", "plane_normal", "0 0 1"),
                                     z_nominal,
                                     config.get_float("plant", "plane_stiffness", 1e5),
                                     config.get_float("plant", "plane_damping", 200.0),
                                     config.get_float("plant", "plane_mu", 0.4))
    except ValueError as exc:
        raise ScenarioConfigError(f"{config.scenario_id}: {exc}") from exc

    force_target = config.get_float("wiping", "force_target", 10.0) if use_wrench else 0.0
    x_start = config.get_float("wiping", "x_start", 0.40)
    stroke = config.get_float("wiping", "stroke", 0.24)
    pitch = config.get_float("wiping", "tool_pitch", 0.7)
    erase_threshold = config.get_float("wiping", "erase_threshold", 7.0)
    n_cells = config.get_int("wiping", "cells", 24)
    surface_jitter = config.get_float("plant", "surface_jitter", 0.0005)
    baseline_offset = config.get_float("wiping", "baseline_surface_offset", -0.002)
    chunk_len = config.get_int("compliance", "chunk_len", 16)
    horizon = config.get_int("compliance", "horizon", chunk_len)

    start_rotation = rotation_about_axis(np.array([0.0, 1.0, 0.0]), pitch)
    start_pose = Pose(start_rotation, [x_start, 0.0, z_nominal])
    q_guess = config.get_vec("wiping", "q_init_guess", "0.3 0.9 -0.5")
    ik = solve_ik(chain, q_guess, start_pose, max_iters=300, tol=1e-8)
    if not ik.converged:
        raise ScenarioConfigError(
            f"start pose unreachable from q_init_guess (|xi| = {ik.error_norm:.3g})")

    steps, labels, action_rate = _scripted_actions(config, start_rotation, force_target)
    ticks_per_action = max(1, int(round(1.0 / (action_rate * dt))))

    payload = PayloadSpec(config.get_float("sensor", "payload_mass", 0.2),
                          config.get_vec("sensor", "payload_com", "0 0 0.03"),
                          config.get_vec("sensor", "payload_bias", "0.2 -0.1 0.15 0.01 -0.02 0.005"))
    identified = IdentifiedPayload(payload.mass, payload.com_in_sensor,
                                   payload.sensor_bias)
    frame_model = WrenchFrameModel()
    noise_sigma = config.get_float("sensor", "noise_sigma", 0.02)

    if use_wrench:
        criteria = [
            Criterion("mean_fz_min", ">=", force_target * (1.0 - config.get_float("criteria", "fz_tol_frac", 0.15))),
            Criterion("mean_fz_max", "<=", force_target * (1.0 + config.get_float("criteria", "fz_tol_frac", 0.15))),
            Criterion("frac_above_floor_min", ">=", config.get_float("criteria", "fz_floor_frac", 0.95)),
            Criterion("residual_max", "<", config.get_float("criteria", "residual_max", 0.05)),
            Criterion("success_rate_5pct", "==", 100.0),
        ]
    else:
        criteria = [
            Criterion("mean_fz_max", "<", config.get_float("criteria", "baseline_force_max", 1.0)),
            Criterion("success_rate_5pct", "==", 0.0),
        ]

    mean_fzs, fracs, residuals = [], [], []
    episode = None
    diagnostics_rows = []
    for trial in range(config.trials):
        rng = np.random.default_rng(config.seed * 1000 + trial)
        if use_wrench:
            offset = z_nominal + rng.uniform(-surface_jitter, surface_jitter)
        else:
            offset = z_nominal + baseline_offset
        plane = replace(nominal_plane, offset=offset)
        record = (trial == 0 and out_dir is not None)
        result = _run_trial(config, model, imp_cfg, sched, plane, ik.q, start_pose,
                            steps, labels, ticks_per_action, dt, chunk_len, horizon,
                            x_start, stroke, n_cells, erase_threshold,
                            payload, identified, frame_model, noise_sigma, rng,
                            record, variant)
        mean_fzs.append(result["mean_fz"])
        fracs.append(result["frac_above_floor"])
        residuals.append(result["residual"])
        if record:
            episode = result["episode"]
            diagnostics_rows = result["diagnostics"]

    residuals = np.array(residuals)
    metrics = {
        "mean_fz_min": float(np.min(mean_fzs)),
        "mean_fz_max": float(np.max(mean_fzs)),
        "mean_fz": float(np.mean(mean_fzs)),
        "frac_above_floor_min": float(np.min(fracs)),
        "residual_max": float(np.max(residuals)),
        "success_rate_5pct": float(np.mean(residuals < 0.05) * 100.0),
        "success_rate_50pct": float(np.mean(residuals < 0.50) * 100.0),
    }
    notes = []
    if not use_wrench:
        notes.append("scripted no-wrench baseline tracks the nominal surface "
                     f"height with the surface offset by {baseline_offset*1000:+.1f} mm; "
                     "it is a position-playback proxy, not a learned policy")
    report = ScenarioReport(config.scenario_id, config.kind, variant,
                            config.seed, config.trials, metrics,
                            {c.metric: c.describe() for c in criteria},
                            evaluate_criteria(metrics, criteria),
                            config.config_hash, notes=notes)
    export_report_episode(report, episode, out_dir)
    if episode is not None:
        _write_diagnostics_csv(out_dir / f"diagnostics_{variant}.csv",
                               diagnostics_rows)
    return report


def _write_diagnostics_csv(path, rows) -> None:
    """Per-tick controller diagnostics alongside the recorded episode."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "error_norm", "contact_force_norm",
                         "stiffness_clamped", "limits_clamped"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _run_trial(config, model, imp_cfg, sched, plane, q0, start_pose, steps, labels,
               ticks_per_action, dt, chunk_len, horizon, x_start, stroke, n_cells,
               erase_threshold, payload, identified, frame_model, noise_sigma,
               rng, record, variant):
    # route the scripted stream through the recorded-episode replay path
    scratch = Episode("actions", [StreamSpec("action", 1.0 / (ticks_per_action * dt),
                                             ACTION_SCHEMA, "action")])
    for i, action in enumerate(steps):
        scratch.record("action", i * ticks_per_action * dt, action.as_array())
    chunks = replay_actions(scratch, chunk_len)
    scheduler = RecedingHorizonScheduler(chunks, horizon, start_pose, sched)

    episode = None
    if record:
        episode = Episode(f"{config.scenario_id}_{variant}",
                          [StreamSpec("pose", 200.0, POSE_SCHEMA, "pose"),
                           StreamSpec("wrench_raw", 1.0 / dt, WRENCH_SCHEMA, "wrench"),
                           StreamSpec("wrench_ee", 1.0 / dt, WRENCH_SCHEMA, "wrench"),
                           StreamSpec("action", 1.0 / (ticks_per_action * dt),
                                      ACTION_SCHEMA, "action")],
                          config_hash=config.config_hash)

    executor = ImpedanceExecutor(model, imp_cfg)
    state = SimState(q0.copy(), np.zeros(model.chain.dof))
    cell_edges = np.linspace(x_start, x_start + stroke, n_cells + 1)
    cleared = np.zeros(n_cells, dtype=bool)
    fz_sliding = []
    diagnostics_rows = []
    tick = 0
    pose_stride = max(1, int(round(1.0 / (200.0 * dt))))

    prev_command = None
    for cmd_idx, command in enumerate(scheduler):
        label = labels[cmd_idx] if cmd_idx < len(labels) else "retreat"
        if record:
            episode.record("action", state.time,
                           steps[min(cmd_idx, len(steps) - 1)].as_array())
        base = command if prev_command is None else prev_command
        for k in range(ticks_per_action):
            # upsample the 20 Hz command stream to the control rate
            tick_command = interpolate_commands(base, command,
                                                (k + 1) / ticks_per_action)
            out, new_state, frames = executor.closed_loop_tick(state, tick_command,
                                                               plane)

            # contact force actually applied this step, mapped back to world
            f_world = frames.ee_pose.rotation @ new_state.contact_wrench_ee.force
            f_n = float(plane.normal @ f_world)
            p_ee = frames.ee_pose.translation
            if label == "slide":
                fz_sliding.append(f_n)
                if f_n >= erase_threshold:
                    idx = int(np.searchsorted(cell_edges, p_ee[0], side="right")) - 1
                    if 0 <= idx < n_cells:
                        cleared[idx] = True

            if record:
                raw = read_ft_sensor(new_state, payload, frames.ee_pose,
                                     noise_sigma, rng)
                comp = compensate_wrench(raw, identified, frames.ee_pose.rotation,
                                         frame_model)
                episode.record("wrench_raw", new_state.time, raw.as_array())
                episode.record("wrench_ee", new_state.time, comp.as_array())
                if tick % pose_stride == 0:
                    episode.record("pose", new_state.time,
                                   np.concatenate([p_ee,
                                                   Rot6D.encode(frames.ee_pose.rotation).as_array()]))
                diagnostics_rows.append([new_state.time,
                                         out.diagnostics.error_norm,
                                         out.diagnostics.contact_force_norm,
                                         float(out.diagnostics.stiffness_clamped),
                                         float(out.diagnostics.limits_clamped)])
            state = new_state
            tick += 1
        prev_command = command

    fz_sliding = np.array(fz_sliding)
    return {
        "mean_fz": float(fz_sliding.mean()) if fz_sliding.size else 0.0,
        "frac_above_floor": float(np.mean(fz_sliding >= erase_threshold))
        if fz_sliding.size else 0.0,
        "residual": float(1.0 - cleared.mean()),
        "episode": episode,
        "diagnostics": diagnostics_rows,
    }
