"""Surface-wiping scenario: force-targeted sliding contact on a penalty plane.

A scripted action stream (settle, press, slide, retreat) is recorded, chunked,
compiled through the compliance pipeline, and executed by the impedance
controller against the rigid-body plant; each chunk executes its first
`horizon` rows, which are the rows recorded and scored. The wrench-aware
variant carries a constant normal-force target during press and slide; the
baseline variant replays the same motion with zero force prediction against a
surface that sits below its nominal height, so it never develops contact. A strip of surface
cells is "erased" wherever the local normal force reaches the erase threshold
during the pass; the residual-marking fraction is the task metric.

Every (variant, trial) of a run is one row of a single batched rollout: the
rows share the arm, the gains and the start pose, and differ in plane offset,
rng and action stream, so one closed-loop tick per control step advances
them all. The setup holds one action stream per variant, an (S, n, 13)
array, and the (S, n) mask of its scored (slide) rows; a row names its
stream by index. The executed rows of every stream are compiled in one call
before the loop, upsampled to the control rate in one more, and given their
operational gains in a third, and a tick reads its rows' targets and gains
by stream index. Scores come back as (rows,) arrays.

Recording stays out of the tick. The loop copies the recorded rows' states
(end-effector pose, contact force, pose error, joint-limit clamps) into
preallocated (ticks, rows, ...) arrays. After it, each recorded row's
sensor readings, noise included, are computed in one pass over all its
ticks and written to its episode a stream at a time with
`Episode.record_block`; the bytes are those of reading and recording tick
by tick.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from ..compliance import (ACTION_SCHEMA, RecedingHorizonScheduler,
                          StiffnessSchedule, compile_step, interpolate_commands)
from ..dynamics import (ArmDynamicsModel, ContactPlane, SimState,
                        load_arm_model, read_ft_sensor)
from ..episodes import Episode, StreamSpec, replay_actions, write_float_rows
from ..geometry import (Pose, dot_rows, encode_rot6d_rows, pose_unchecked,
                        rotation_about_axis)
from ..impedance import (ImpedanceConfig, ImpedanceExecutor,
                         build_operational_gains)
from ..kinematics import solve_ik
from ..sensing import Payload, compensate_wrench
from .base import (DOF, SCENARIO_KEYS, Criterion, Key, ScenarioConfig,
                   ScenarioConfigError, ScenarioReport, build_report)
from .gravity import WRENCH_SCHEMA

POSE_SCHEMA = ("px", "py", "pz", "r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5")


KEYS = SCENARIO_KEYS + (
    Key("plant", "chain", str),
    Key("plant", "dt", float, "0.001"),              # ImpedanceConfig checks it
    # ContactPlane checks these
    Key("plant", "plane_normal", 3, "0 0 1"),
    Key("plant", "plane_offset", float, "0.0"),
    Key("plant", "plane_stiffness", float, "100000.0"),
    Key("plant", "plane_damping", float, "200.0"),
    Key("plant", "plane_mu", float, "0.4"),
    Key("plant", "surface_jitter", float, "0.0005", ">= 0"),
    # ImpedanceConfig's fields, which it checks
    Key("gains", "k_min", float, "200.0"),
    Key("gains", "k_max", float, "2000.0"),
    Key("gains", "zeta", float, "1.0"),
    Key("gains", "m_eff", float, "2.0"),
    Key("gains", "k_rot", 3, "50 50 50"),
    Key("gains", "d_rot", 3, "5 5 5"),
    Key("gains", "kq_floor", float, "1.0"),
    Key("gains", "kqd_floor", float, "0.1"),
    Key("gains", "ik_damping", float, "0.05"),
    Key("gains", "qd_filter_cutoff", float, "20.0"),
    # StiffnessSchedule checks these
    Key("compliance", "k_max", float, "2000.0"),
    Key("compliance", "k_min", float, "200.0"),
    Key("compliance", "f_sat", float, "20.0"),
    Key("compliance", "chunk_len", int, "16", ">= 1"),
    Key("compliance", "horizon", int, ("compliance", "chunk_len"), ">= 1"),
    Key("wiping", "force_target", float, "10.0"),
    Key("wiping", "x_start", float, "0.4"),
    Key("wiping", "stroke", float, "0.24", "> 0"),
    Key("wiping", "tool_pitch", float, "0.7"),
    Key("wiping", "q_init_guess", DOF, "0.3 0.9 -0.5"),
    Key("wiping", "action_rate_hz", float, "20.0", "> 0"),
    Key("wiping", "settle_s", float, "0.4", ">= 0"),
    Key("wiping", "press_s", float, "0.5", ">= 0"),
    Key("wiping", "slide_s", float, "1.6", ">= 0"),
    Key("wiping", "retreat_s", float, "0.3", ">= 0"),
    Key("wiping", "cells", int, "24", ">= 1"),
    Key("wiping", "erase_threshold", float, "7.0", "> 0"),
    Key("wiping", "baseline_surface_offset", float, "-0.002"),
    Key("wiping", "gripper_width", float, "0.05", ">= 0"),
    Key("sensor", "payload_mass", float, "0.2", ">= 0"),
    Key("sensor", "payload_com", 3, "0 0 0.03"),
    Key("sensor", "payload_bias", 6, "0.2 -0.1 0.15 0.01 -0.02 0.005"),
    Key("sensor", "noise_sigma", float, "0.02", ">= 0"),
    Key("criteria", "fz_tol_frac", float, "0.15", ">= 0"),
    Key("criteria", "fz_floor_frac", float, "0.95", "[0, 1]"),
    Key("criteria", "residual_max", float, "0.05", "[0, 1]"),
    Key("criteria", "baseline_force_max", float, "1.0", ">= 0"),
)
PHASES = ("settle", "press", "slide", "retreat")
TICKS_SET_BY = tuple(("wiping", f"{phase}_s") for phase in PHASES) \
    + (("wiping", "action_rate_hz"), ("plant", "dt"),
       ("compliance", "chunk_len"), ("compliance", "horizon"))
VARIANTS = {"with_wrench": "with wrench", "no_wrench": "without wrench"}
TABLE = ("surface erasing", {"success@5% residual": "success_rate_5pct",
                             "success@50% residual": "success_rate_50pct"})


def _controller(config: ScenarioConfig) -> tuple:
    """Gains, stiffness schedule and nominal plane, each checked by its class."""
    plant, compliance = config.values("plant"), config.values("compliance")
    gains = config.build(ImpedanceConfig, dt=plant["dt"], **config.values("gains"))
    schedule = config.build(StiffnessSchedule, compliance["k_max"], compliance["k_min"],
                            compliance["f_sat"])
    plane = config.build(ContactPlane, plant["plane_normal"], plant["plane_offset"],
                         plant["plane_stiffness"], plant["plane_damping"],
                         plant["plane_mu"])
    return gains, schedule, plane


def _script(config: ScenarioConfig) -> tuple:
    """The action rate and each phase's command count."""
    rate = config.value("wiping", "action_rate_hz")
    return rate, [max(1, int(round(config.value("wiping", f"{phase}_s") * rate)))
                  for phase in PHASES]


def _ticks_per_action(rate: float, dt: float) -> int:
    return max(1, int(round(1.0 / (rate * dt))))


def row_ticks(config: ScenarioConfig) -> int:
    """Each chunk of `chunk_len` commands, the last one padded, runs its
    first `horizon` commands, each for `_ticks_per_action` ticks."""
    compliance = config.values("compliance")
    if compliance["horizon"] > compliance["chunk_len"]:
        raise ScenarioConfigError("[compliance] horizon must be <= chunk_len")
    rate, commands = _script(config)
    return _ticks_per_action(rate, config.value("plant", "dt")) \
        * -(-sum(commands) // compliance["chunk_len"]) * compliance["horizon"]


def _scripted_actions(config: ScenarioConfig, start_rotation, force_target: float):
    """(n, 13) action rows for settle -> press -> slide -> retreat, and the
    (n,) mask of the slide rows, which are the scored ones."""
    _, commands = _script(config)
    stroke = config.value("wiping", "stroke")
    rot6d = encode_rot6d_rows(start_rotation).tolist()
    width = config.value("wiping", "gripper_width")
    rows = []
    for n, fz, dx_total in zip(commands, (0.0, force_target, force_target, 0.0),
                               (0.0, 0.0, stroke, 0.0)):
        rows += [[dx_total / n, 0.0, 0.0, *rot6d, 0.0, 0.0, fz, width]] * n
    return np.array(rows), np.repeat([phase == "slide" for phase in PHASES], commands)


@dataclass
class WipingSetup:
    """What every row of a wiping run shares: arm, gains, start, sensor."""

    scenario_id: str
    config_hash: str
    model: ArmDynamicsModel
    gains: ImpedanceConfig
    schedule: StiffnessSchedule
    plane: ContactPlane            # nominal plane; rows differ in offset
    q0: np.ndarray                 # start pose IK solution
    start_pose: Pose
    streams: np.ndarray            # (S, n, 13) action rows, one stream per variant
    scored: np.ndarray             # (S, n) bool: the slide rows
    ticks_per_action: int
    chunk_len: int
    horizon: int
    cell_edges: np.ndarray         # x edges of the erase cells
    erase_threshold: float
    payload: Payload
    noise_sigma: float


def wiping_setup(config: ScenarioConfig) -> WipingSetup:
    """Parse the config and solve the start-pose IK once for all rows."""
    gains, schedule, plane = _controller(config)
    x_start = config.value("wiping", "x_start")
    start_pose = Pose(rotation_about_axis(np.array([0.0, 1.0, 0.0]),
                                          config.value("wiping", "tool_pitch")),
                      [x_start, 0.0, plane.offset])
    force_target = config.value("wiping", "force_target")
    streams, scored = zip(*[_scripted_actions(
        config, start_pose.rotation, force_target if variant == "with_wrench" else 0.0)
        for variant in VARIANTS])
    payload = Payload(config.value("sensor", "payload_mass"),
                      config.value("sensor", "payload_com"),
                      config.value("sensor", "payload_bias"))

    model = config.build(load_arm_model, config.resolve_path(config.value("plant", "chain")))
    q_guess = config.value("wiping", "q_init_guess")
    if len(q_guess) != model.chain.dof:
        raise ScenarioConfigError(f"[wiping] q_init_guess needs {model.chain.dof} "
                                  f"numbers, got {len(q_guess)}")
    ik = solve_ik(model.chain, q_guess, start_pose, max_iters=300, tol=1e-8)
    if not ik.converged:
        raise ScenarioConfigError(
            f"start pose unreachable from q_init_guess (|xi| = {ik.error_norm:.3g})")
    return WipingSetup(
        config.scenario_id, config.config_hash, model, gains, schedule, plane, ik.q,
        start_pose, np.array(streams), np.array(scored),
        _ticks_per_action(config.value("wiping", "action_rate_hz"), gains.dt),
        config.value("compliance", "chunk_len"), config.value("compliance", "horizon"),
        np.linspace(x_start, x_start + config.value("wiping", "stroke"),
                    config.value("wiping", "cells") + 1),
        config.value("wiping", "erase_threshold"), payload,
        config.value("sensor", "noise_sigma"))


def run_wiping(config: ScenarioConfig, out_dir=None) -> list:
    """Run every variant as one batch of (variant, trial) rows.

    Row k * trials + t is trial t of the k-th variant. Returns one report
    per variant. Trial 0 of each variant is recorded when `out_dir` is given.
    """
    setup = wiping_setup(config)
    trials, jitter = config.trials, config.value("plant", "surface_jitter")
    plane_offset, recorded = [], {}
    for k, variant in enumerate(VARIANTS):
        for trial in range(trials):
            rng = np.random.default_rng(config.seed * 1000 + trial)
            if variant == "with_wrench":
                offset = rng.uniform(-jitter, jitter)
            else:
                offset = config.value("wiping", "baseline_surface_offset")
            plane_offset.append(setup.plane.offset + offset)
            if trial == 0 and out_dir is not None:
                recorded[k * trials] = (rng, wiping_episode(setup, variant))
    *scores, diagnostics = rollout(setup, np.repeat(np.arange(len(VARIANTS)), trials),
                                   plane_offset, recorded)
    return [_report(config, variant, [s[k * trials:(k + 1) * trials] for s in scores],
                    recorded.get(k * trials, (None, None))[1],
                    diagnostics.get(k * trials), out_dir)
            for k, variant in enumerate(VARIANTS)]


RUNNER = run_wiping.__name__


def _report(config: ScenarioConfig, variant: str, scores: list, episode,
            diagnostics, out_dir) -> ScenarioReport:
    """The report of one variant from its trials' (mean_fz, frac_above_floor,
    residual) arrays, and its recorded trial's episode and diagnostics."""
    notes = []
    if variant == "with_wrench":
        force_target = config.value("wiping", "force_target")
        tol = config.value("criteria", "fz_tol_frac")
        criteria = [
            Criterion("mean_fz_min", ">=", force_target * (1.0 - tol)),
            Criterion("mean_fz_max", "<=", force_target * (1.0 + tol)),
            Criterion("frac_above_floor_min", ">=",
                      config.value("criteria", "fz_floor_frac")),
            Criterion("residual_max", "<", config.value("criteria", "residual_max")),
            Criterion("success_rate_5pct", "==", 100.0),
        ]
    else:
        criteria = [
            Criterion("mean_fz_max", "<", config.value("criteria", "baseline_force_max")),
            Criterion("success_rate_5pct", "==", 0.0),
        ]
        notes.append("scripted no-wrench baseline tracks the nominal surface "
                     f"height with the surface offset by "
                     f"{config.value('wiping', 'baseline_surface_offset')*1000:+.1f} mm; "
                     "it is a position-playback proxy, not a learned policy")

    mean_fzs, frac_above_floor, residuals = scores
    metrics = {
        "mean_fz_min": float(np.min(mean_fzs)),
        "mean_fz_max": float(np.max(mean_fzs)),
        "mean_fz": float(np.mean(mean_fzs)),
        "frac_above_floor_min": float(np.min(frac_above_floor)),
        "residual_max": float(np.max(residuals)),
        "success_rate_5pct": float(np.mean(residuals < 0.05) * 100.0),
        "success_rate_50pct": float(np.mean(residuals < 0.50) * 100.0),
    }
    report = build_report(config, variant, metrics, criteria, notes, episode, out_dir)
    if episode is not None:
        _write_diagnostics_csv(out_dir / f"diagnostics_{variant}.csv", diagnostics)
    return report


def _write_diagnostics_csv(path, rows: np.ndarray) -> None:
    """Per-tick controller diagnostics alongside the recorded episode."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", "error_norm", "contact_force_norm",
                                 "stiffness_clamped", "limits_clamped"])
        write_float_rows(fh, rows.tolist())


def wiping_episode(setup: WipingSetup, variant: str) -> Episode:
    """An empty episode with the streams a recorded row writes."""
    dt = setup.gains.dt
    action_hz = 1.0 / (setup.ticks_per_action * dt)
    return Episode(f"{setup.scenario_id}_{variant}",
                   [StreamSpec("pose", 200.0, POSE_SCHEMA, "pose"),
                    StreamSpec("wrench_raw", 1.0 / dt, WRENCH_SCHEMA, "wrench"),
                    StreamSpec("wrench_ee", 1.0 / dt, WRENCH_SCHEMA, "wrench"),
                    StreamSpec("action", action_hz, ACTION_SCHEMA, "action")],
                   config_hash=setup.config_hash)


def _executed(setup: WipingSetup, actions: np.ndarray) -> tuple:
    """The indices in the replayed stream, and the rows, that an action
    stream executes, through the recorded-episode replay path."""
    scratch = Episode("actions", [StreamSpec("action", 1.0, ACTION_SCHEMA, "action")])
    scratch.record_block("action", np.arange(len(actions)), actions)
    chunks = [np.array([step.as_array() for step in chunk.steps])
              for chunk in replay_actions(scratch, setup.chunk_len)]
    return tuple(zip(*RecedingHorizonScheduler(chunks, setup.horizon)))


def _control_targets(setup: WipingSetup) -> tuple:
    """The executed row indices of the setup's S action streams, and the
    (target, kp) pair of their control-rate commands, (S, ticks) stacks
    compiled in one call.

    Tick k of command c blends command c - 1 (c itself for the first) into c
    by (k + 1) / ticks_per_action, upsampling to the control rate.
    """
    index, rows = zip(*[_executed(setup, actions) for actions in setup.streams])
    executed = np.array(index[0])   # one for all streams of one length
    target, kp = compile_step(np.array(rows), setup.start_pose, setup.schedule)
    per = setup.ticks_per_action
    now = np.repeat(np.arange(len(executed)), per)
    frac = np.tile(np.arange(1, per + 1) / per, len(executed))

    def at(k):
        return pose_unchecked(target.rotation[:, k], target.translation[:, k]), kp[:, k]
    return executed, interpolate_commands(at(np.maximum(now - 1, 0)), at(now), frac)


@dataclass
class RecordLog:
    """What recording reads of the recorded rows, logged per tick.

    Arrays are (ticks, R, ...) over the R recorded rows; `time` is the plant
    time after each tick and `start_time` the time before the first.
    """

    start_time: float
    start_force: np.ndarray    # (R, 3) contact force before the first tick
    time: np.ndarray           # (ticks,)
    rotation: np.ndarray       # end-effector rotation at the start of a tick
    translation: np.ndarray    # end-effector position at the start of a tick
    force: np.ndarray          # end-effector contact force after the tick
    xi: np.ndarray             # the tick's pose error
    clamped: np.ndarray        # (ticks, R, 2): stiffness and joint-limit clamps


def rollout(setup: WipingSetup, stream_of_row, plane_offset, recorded: dict) -> tuple:
    """Run every row in lockstep, one batched closed-loop tick per control step.

    Row i runs action stream `stream_of_row[i]` of the setup against the
    plane at `plane_offset[i]`; `recorded` maps each recorded row to its
    (rng, episode). Returns (rows,) arrays of each row's mean sliding normal
    force, fraction of sliding ticks at or above the erase threshold and
    residual (uncleared) cell fraction, and a dict of each recorded row's
    (ticks, 5) diagnostics. A row's results do not depend on the other rows
    of the batch. The tick loop only logs the recorded rows' states; their
    sensor readings and episode rows are computed after it.
    """
    stream_of_row = np.asarray(stream_of_row)
    n_rows = len(stream_of_row)
    n_cells = len(setup.cell_edges) - 1
    ticks_per_action = setup.ticks_per_action
    plane = replace(setup.plane, offset=np.array(plane_offset, dtype=float))
    executor = ImpedanceExecutor(setup.model, setup.gains)
    state = SimState(np.tile(setup.q0, (n_rows, 1)),
                     np.zeros((n_rows, setup.model.chain.dof)))
    executed, (target, kp) = _control_targets(setup)
    gains, stiffness_clamped = build_operational_gains(kp, setup.gains)
    # per tick and row: whether it slides, the tool's x and the normal force;
    # an index past a stream's end is a padding row, never scored
    n = setup.streams.shape[1]
    scored = setup.scored[:, np.minimum(executed, n - 1)] & (executed < n)
    sliding = np.repeat(scored[stream_of_row].T, ticks_per_action, axis=0)
    x_log = np.empty(sliding.shape)
    fz_log = np.empty(sliding.shape)
    rec = np.array(sorted(recorded), dtype=int)
    n_ticks, n_rec = len(sliding), len(rec)
    log = RecordLog(state.time, state.contact_force_ee[rec],
                    np.empty(n_ticks), np.empty((n_ticks, n_rec, 3, 3)),
                    np.empty((n_ticks, n_rec, 3)), np.empty((n_ticks, n_rec, 3)),
                    np.empty((n_ticks, n_rec, 6)),
                    np.empty((n_ticks, n_rec, 2), dtype=bool))
    for tick in range(n_ticks):
        new_state, frames, xi, limits_clamped = executor.closed_loop_tick(
            state, pose_unchecked(target.rotation[stream_of_row, tick],
                                  target.translation[stream_of_row, tick]),
            gains[stream_of_row, tick], plane)

        rotation = frames.ee_pose.rotation
        p_ee = frames.ee_pose.translation
        # contact force actually applied this step, mapped back to world
        force = new_state.contact_force_ee
        f_world = (rotation @ force[..., None])[..., 0]
        fz_log[tick] = dot_rows(f_world, plane.normal)
        x_log[tick] = p_ee[:, 0]

        log.time[tick] = new_state.time
        log.rotation[tick] = rotation[rec]
        log.translation[tick] = p_ee[rec]
        log.force[tick] = force[rec]
        log.xi[tick] = xi[rec]
        log.clamped[tick, :, 1] = limits_clamped[rec]
        state = new_state
    log.clamped[:, :, 0] = stiffness_clamped[stream_of_row[rec]].T

    cell = np.searchsorted(setup.cell_edges, x_log, side="right") - 1
    pressed = sliding & (fz_log >= setup.erase_threshold)
    erase = pressed & (cell >= 0) & (cell < n_cells)
    cleared = np.zeros((n_rows, n_cells), dtype=bool)
    cleared[np.nonzero(erase)[1], cell[erase]] = True
    slides = sliding.sum(axis=0)
    mean_fz = np.array([fz_log[sliding[:, i], i].mean() if slides[i] else 0.0
                        for i in range(n_rows)])
    frac_above_floor = np.divide(pressed.sum(axis=0), slides, out=np.zeros(n_rows),
                                 where=slides > 0)
    diagnostics = {i: _record(setup, setup.streams[stream_of_row[i]], *recorded[i],
                              executed, log, r)
                   for r, i in enumerate(rec.tolist())}
    return mean_fz, frac_above_floor, 1.0 - cleared.mean(axis=1), diagnostics


def _record(setup: WipingSetup, actions: np.ndarray, rng: np.random.Generator,
            episode: Episode, executed: np.ndarray, log: RecordLog,
            r: int) -> np.ndarray:
    """Write recorded row r's episode from the log; return its diagnostics.

    The sensor noise comes from the row's own rng, one reading per tick, as
    if each had been read inside the loop.
    """
    t = log.time
    rotation, p_ee = log.rotation[:, r], log.translation[:, r]
    # a point contact force (no torque) at the end effector, where the sensor sits
    contact = np.concatenate([log.force[:, r], np.zeros((len(t), 3))], axis=1)
    raw = read_ft_sensor(contact, setup.payload, rotation, setup.noise_sigma, rng)
    comp = compensate_wrench(raw, setup.payload, rotation, Pose.identity())
    # each command's executed row is recorded at the time its first tick
    # starts; a padding row repeats the stream's last row
    starts = np.concatenate(([log.start_time], t[:-1]))[::setup.ticks_per_action]
    episode.record_block("action", starts,
                         actions[np.minimum(executed, len(actions) - 1)])
    episode.record_block("wrench_raw", t, raw)
    episode.record_block("wrench_ee", t, comp)
    stride = max(1, int(round(1.0 / (200.0 * setup.gains.dt))))
    episode.record_block("pose", t[::stride], np.concatenate(
        [p_ee[::stride], encode_rot6d_rows(rotation[::stride])], axis=1))

    xi = log.xi[:, r]
    force = np.concatenate((log.start_force[r][None], log.force[:-1, r]))
    return np.column_stack([t, np.sqrt(dot_rows(xi, xi)),
                            np.sqrt(dot_rows(force, force)),
                            log.clamped[:, r]])
