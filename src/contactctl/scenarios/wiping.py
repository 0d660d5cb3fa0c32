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
rng and command stream, so one closed-loop tick per control step advances
them all. Rows with equal action streams share one compiled command stream.
The executed rows of every distinct stream are compiled in one call before
the loop and upsampled to the control rate in one more, and a tick reads its
rows' targets by stream index.

Recording stays out of the tick. The loop copies the recorded rows' states
(end-effector pose, contact force, pose error, clamp flags) into
preallocated (ticks, rows, ...) arrays. After it, each recorded row's
sensor readings, noise included, are computed in one pass over all its
ticks and written to its episode a stream at a time with
`Episode.record_block`; the bytes are those of reading and recording tick
by tick.
"""

import csv
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..compliance import (ACTION_SCHEMA, ComplianceCommand,
                          RecedingHorizonScheduler, StiffnessSchedule,
                          compile_step, interpolate_commands)
from ..dynamics import (ArmDynamicsModel, ContactPlane, SimState,
                        load_arm_model, read_ft_sensor)
from ..episodes import Episode, StreamSpec, replay_actions, write_float_rows
from ..geometry import (Pose, Rot6D, dot_rows, pose_unchecked,
                        rotation_about_axis)
from ..impedance import ImpedanceConfig, ImpedanceExecutor
from ..kinematics import solve_ik
from ..sensing import Payload, compensate_wrench
from .base import (DOF, SCENARIO_KEYS, Criterion, Key, ScenarioConfig,
                   ScenarioConfigError, ScenarioReport, evaluate_criteria,
                   export_report_episode)
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
    Key("compliance", "per_axis", bool, "true"),
    Key("compliance", "chunk_len", int, "16", ">= 1"),
    Key("compliance", "horizon", int, ("compliance", "chunk_len"), ">= 1"),
    Key("wiping", "force_target", float, "10.0"),
    Key("wiping", "x_start", float, "0.4"),
    Key("wiping", "stroke", float, "0.24"),
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
    + (("wiping", "action_rate_hz"), ("plant", "dt"))


def _controller(config: ScenarioConfig) -> tuple:
    """Gains, stiffness schedule and nominal plane, each checked by its class."""
    plant, compliance = config.values("plant"), config.values("compliance")
    gains = config.build(ImpedanceConfig, dt=plant["dt"], **config.values("gains"))
    schedule = config.build(StiffnessSchedule, compliance["k_max"], compliance["k_min"],
                            compliance["f_sat"], compliance["per_axis"])
    plane = config.build(ContactPlane, plant["plane_normal"], plant["plane_offset"],
                         plant["plane_stiffness"], plant["plane_damping"],
                         plant["plane_mu"])
    return gains, schedule, plane


def _script(config: ScenarioConfig) -> tuple:
    """The action rate, the stroke, and each phase's command count."""
    rate = config.value("wiping", "action_rate_hz")
    return rate, config.value("wiping", "stroke"), \
        [max(1, int(round(config.value("wiping", f"{phase}_s") * rate)))
         for phase in PHASES]


def _ticks_per_action(rate: float, dt: float) -> int:
    return max(1, int(round(1.0 / (rate * dt))))


def row_ticks(config: ScenarioConfig) -> int:
    rate, _, commands = _script(config)
    return _ticks_per_action(rate, config.value("plant", "dt")) * sum(commands)


def _scripted_actions(config: ScenarioConfig, start_rotation, force_target: float):
    """(n, 13) action rows for settle -> press -> slide -> retreat, and phases."""
    _, stroke, commands = _script(config)
    rot6d = Rot6D.encode(start_rotation).as_array().tolist()
    width = config.value("wiping", "gripper_width")
    rows, labels = [], []
    for label, n, fz, dx_total in zip(PHASES, commands,
                                      (0.0, force_target, force_target, 0.0),
                                      (0.0, 0.0, stroke, 0.0)):
        rows += [[dx_total / n, 0.0, 0.0, *rot6d, 0.0, 0.0, fz, width]] * n
        labels += [label] * n
    return np.array(rows), labels


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
    scripts: dict                  # variant flag -> (action rows, phase labels)
    force_target: float            # normal force the wrench variant presses with
    baseline_offset: float         # no-wrench surface offset from nominal
    dt: float
    ticks_per_action: int
    chunk_len: int
    horizon: int
    cell_edges: np.ndarray         # x edges of the erase cells
    erase_threshold: float
    surface_jitter: float          # half-width of a row's plane offset draw
    payload: Payload
    noise_sigma: float


@dataclass
class WipingRow:
    """One (variant, trial) of a batched rollout."""

    actions: np.ndarray            # (n, 13) action rows
    labels: list                   # phase per action row ("slide" is scored)
    plane_offset: float
    rng: np.random.Generator       # sensor noise of a recorded row
    episode: Optional[Episode] = None   # set on rows that are recorded


def wiping_setup(config: ScenarioConfig) -> WipingSetup:
    """Parse the config and solve the start-pose IK once for all rows."""
    gains, schedule, plane = _controller(config)
    chunk_len = config.value("compliance", "chunk_len")
    if config.value("compliance", "horizon") > chunk_len:
        raise ScenarioConfigError("[compliance] horizon must be <= chunk_len")
    rate, stroke, _ = _script(config)
    x_start = config.value("wiping", "x_start")
    start_pose = Pose(rotation_about_axis(np.array([0.0, 1.0, 0.0]),
                                          config.value("wiping", "tool_pitch")),
                      [x_start, 0.0, plane.offset])
    force_target = config.value("wiping", "force_target")
    scripts = {flag: _scripted_actions(config, start_pose.rotation,
                                       force_target if flag else 0.0)
               for flag in (True, False)}
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
        start_pose, scripts, force_target,
        config.value("wiping", "baseline_surface_offset"), gains.dt,
        _ticks_per_action(rate, gains.dt), chunk_len, config.value("compliance", "horizon"),
        np.linspace(x_start, x_start + stroke, config.value("wiping", "cells") + 1),
        config.value("wiping", "erase_threshold"),
        config.value("plant", "surface_jitter"), payload,
        config.value("sensor", "noise_sigma"))


def _variant(use_wrench: bool) -> str:
    return "with_wrench" if use_wrench else "no_wrench"


def run_wiping(config: ScenarioConfig, use_wrench, out_dir=None):
    """Run wiping variants as one batch of (variant, trial) rows.

    `use_wrench` is one variant flag, which returns that variant's report,
    or a sequence of flags, which returns one report per flag. Trial 0 of
    each variant is recorded when `out_dir` is given.
    """
    flags = [use_wrench] if isinstance(use_wrench, bool) else list(use_wrench)
    setup = wiping_setup(config)
    z_nominal = setup.plane.offset
    rows = []
    for flag in flags:
        actions, labels = setup.scripts[flag]
        for trial in range(config.trials):
            rng = np.random.default_rng(config.seed * 1000 + trial)
            if flag:
                offset = z_nominal + rng.uniform(-setup.surface_jitter,
                                                 setup.surface_jitter)
            else:
                offset = z_nominal + setup.baseline_offset
            episode = None
            if trial == 0 and out_dir is not None:
                episode = wiping_episode(setup, _variant(flag))
            rows.append(WipingRow(actions, labels, offset, rng, episode))
    results = rollout(setup, rows)

    reports = []
    for k, flag in enumerate(flags):
        trials = results[k * config.trials:(k + 1) * config.trials]
        reports.append(_report(config, setup, flag, trials, out_dir))
    return reports[0] if isinstance(use_wrench, bool) else reports


def _report(config: ScenarioConfig, setup: WipingSetup, use_wrench: bool,
            trials: list, out_dir) -> ScenarioReport:
    variant = _variant(use_wrench)
    if use_wrench:
        tol = config.value("criteria", "fz_tol_frac")
        criteria = [
            Criterion("mean_fz_min", ">=", setup.force_target * (1.0 - tol)),
            Criterion("mean_fz_max", "<=", setup.force_target * (1.0 + tol)),
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

    mean_fzs = [t["mean_fz"] for t in trials]
    residuals = np.array([t["residual"] for t in trials])
    metrics = {
        "mean_fz_min": float(np.min(mean_fzs)),
        "mean_fz_max": float(np.max(mean_fzs)),
        "mean_fz": float(np.mean(mean_fzs)),
        "frac_above_floor_min": float(np.min([t["frac_above_floor"] for t in trials])),
        "residual_max": float(np.max(residuals)),
        "success_rate_5pct": float(np.mean(residuals < 0.05) * 100.0),
        "success_rate_50pct": float(np.mean(residuals < 0.50) * 100.0),
    }
    notes = []
    if not use_wrench:
        notes.append("scripted no-wrench baseline tracks the nominal surface "
                     f"height with the surface offset by "
                     f"{setup.baseline_offset*1000:+.1f} mm; "
                     "it is a position-playback proxy, not a learned policy")
    report = ScenarioReport(config.scenario_id, config.kind, variant,
                            config.seed, config.trials, metrics,
                            {c.metric: c.describe() for c in criteria},
                            evaluate_criteria(metrics, criteria),
                            config.config_hash, notes=notes)
    episode = trials[0]["episode"]
    export_report_episode(report, episode, out_dir)
    if episode is not None:
        _write_diagnostics_csv(out_dir / f"diagnostics_{variant}.csv",
                               trials[0]["diagnostics"])
    return report


def _write_diagnostics_csv(path, rows: np.ndarray) -> None:
    """Per-tick controller diagnostics alongside the recorded episode."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", "error_norm", "contact_force_norm",
                                 "stiffness_clamped", "limits_clamped"])
        write_float_rows(fh, rows.tolist())


def wiping_episode(setup: WipingSetup, variant: str) -> Episode:
    """An empty episode with the streams a recorded row writes."""
    action_hz = 1.0 / (setup.ticks_per_action * setup.dt)
    return Episode(f"{setup.scenario_id}_{variant}",
                   [StreamSpec("pose", 200.0, POSE_SCHEMA, "pose"),
                    StreamSpec("wrench_raw", 1.0 / setup.dt, WRENCH_SCHEMA, "wrench"),
                    StreamSpec("wrench_ee", 1.0 / setup.dt, WRENCH_SCHEMA, "wrench"),
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


def _control_targets(setup: WipingSetup, streams: list) -> tuple:
    """The executed row indices of S action streams of one length, and the
    (S, ticks) stack of their control-rate targets, compiled in one call.

    Tick k of command c blends command c - 1 (c itself for the first) into c
    by (k + 1) / ticks_per_action, upsampling to the control rate.
    """
    index, rows = zip(*[_executed(setup, actions) for actions in streams])
    executed = np.array(index[0])   # one for all streams of one length
    compiled = compile_step(np.array(rows), setup.start_pose, setup.schedule)
    per = setup.ticks_per_action
    now = np.repeat(np.arange(len(executed)), per)
    frac = np.tile(np.arange(1, per + 1) / per, len(executed))

    def at(k):
        target = compiled.virtual_target
        return ComplianceCommand(pose_unchecked(target.rotation[:, k],
                                                target.translation[:, k]),
                                 compiled.kp_diag[:, k])
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


def rollout(setup: WipingSetup, rows: list) -> list:
    """Run every row in lockstep, one batched closed-loop tick per control step.

    Returns per row its mean sliding normal force, the fraction of sliding
    ticks at or above the erase threshold, the residual (uncleared) cell
    fraction, and, for recorded rows, the episode and the (ticks, 5)
    diagnostics. A row's results do not depend on the other rows of the
    batch. The tick loop only logs the recorded rows' states; their sensor
    readings and episode rows are computed after it.
    """
    if len({len(row.actions) for row in rows}) != 1:
        raise ValueError("a rollout needs rows with action streams of one length")
    n_rows = len(rows)
    n_cells = len(setup.cell_edges) - 1
    ticks_per_action = setup.ticks_per_action
    plane = replace(setup.plane, offset=np.array([row.plane_offset for row in rows]))
    executor = ImpedanceExecutor(setup.model, setup.gains)
    state = SimState(np.tile(setup.q0, (n_rows, 1)),
                     np.zeros((n_rows, setup.model.chain.dof)))
    # rows whose action streams are bitwise equal share one compiled stream
    distinct = {}   # action bytes -> (stream index, actions)
    stream_of_row = np.array([distinct.setdefault(row.actions.tobytes(),
                                                  (len(distinct), row.actions))[0]
                              for row in rows])
    executed, target = _control_targets(setup, [a for _, a in distinct.values()])
    rotation_t = target.virtual_target.rotation
    translation_t = target.virtual_target.translation
    kp_t = target.kp_diag
    # per tick and row: whether it slides, the tool's x and the normal force
    sliding = np.repeat([[k < len(row.labels) and row.labels[k] == "slide"
                          for row in rows] for k in executed.tolist()],
                        ticks_per_action, axis=0)
    x_log = np.empty(sliding.shape)
    fz_log = np.empty(sliding.shape)
    recorded = np.array([i for i, row in enumerate(rows)
                         if row.episode is not None], dtype=int)
    n_ticks, n_rec = len(sliding), len(recorded)
    log = RecordLog(state.time, state.contact_force_ee[recorded],
                    np.empty(n_ticks), np.empty((n_ticks, n_rec, 3, 3)),
                    np.empty((n_ticks, n_rec, 3)), np.empty((n_ticks, n_rec, 3)),
                    np.empty((n_ticks, n_rec, 6)),
                    np.empty((n_ticks, n_rec, 2), dtype=bool))
    for tick in range(n_ticks):
        command = ComplianceCommand(
            pose_unchecked(rotation_t[stream_of_row, tick],
                           translation_t[stream_of_row, tick]),
            kp_t[stream_of_row, tick])
        out, new_state, frames = executor.closed_loop_tick(state, command, plane)

        rotation = frames.ee_pose.rotation
        p_ee = frames.ee_pose.translation
        # contact force actually applied this step, mapped back to world
        force = new_state.contact_force_ee
        f_world = (rotation @ force[..., None])[..., 0]
        fz_log[tick] = dot_rows(f_world, plane.normal)
        x_log[tick] = p_ee[:, 0]

        log.time[tick] = new_state.time
        log.rotation[tick] = rotation[recorded]
        log.translation[tick] = p_ee[recorded]
        log.force[tick] = force[recorded]
        log.xi[tick] = out.xi[recorded]
        log.clamped[tick, :, 0] = out.stiffness_clamped[recorded]
        log.clamped[tick, :, 1] = out.limits_clamped[recorded]
        state = new_state

    cell = np.searchsorted(setup.cell_edges, x_log, side="right") - 1
    erase = sliding & (fz_log >= setup.erase_threshold) & (cell >= 0) \
        & (cell < n_cells)
    cleared = np.zeros((n_rows, n_cells), dtype=bool)
    cleared[np.nonzero(erase)[1], cell[erase]] = True
    diagnostics = {i: _record(setup, rows[i], executed, log, r)
                   for r, i in enumerate(recorded.tolist())}
    results = []
    for i, row in enumerate(rows):
        fz = fz_log[sliding[:, i], i]
        results.append({
            "mean_fz": float(fz.mean()) if fz.size else 0.0,
            "frac_above_floor": float(np.mean(fz >= setup.erase_threshold))
            if fz.size else 0.0,
            "residual": float(1.0 - cleared[i].mean()),
            "episode": row.episode,
            "diagnostics": diagnostics.get(i),
        })
    return results


def _record(setup: WipingSetup, row: WipingRow, executed: np.ndarray,
            log: RecordLog, r: int) -> np.ndarray:
    """Write recorded row r's episode from the log; return its diagnostics.

    The sensor noise comes from the row's own rng, one reading per tick, as
    if each had been read inside the loop.
    """
    episode, t = row.episode, log.time
    rotation, p_ee = log.rotation[:, r], log.translation[:, r]
    # a point contact force (no torque) at the end effector, where the sensor sits
    contact = np.concatenate([log.force[:, r], np.zeros((len(t), 3))], axis=1)
    raw = read_ft_sensor(contact, setup.payload, rotation, setup.noise_sigma,
                         row.rng)
    comp = compensate_wrench(raw, setup.payload, rotation, Pose.identity())
    # each command's executed row is recorded at the time its first tick
    # starts; a padding row repeats the stream's last row
    starts = np.concatenate(([log.start_time], t[:-1]))[::setup.ticks_per_action]
    episode.record_block("action", starts,
                         row.actions[np.minimum(executed, len(row.actions) - 1)])
    episode.record_block("wrench_raw", t, raw)
    episode.record_block("wrench_ee", t, comp)
    stride = max(1, int(round(1.0 / (200.0 * setup.dt))))
    episode.record_block("pose", t[::stride], np.concatenate(
        [p_ee[::stride], rotation[::stride, :, :2].swapaxes(-1, -2)
         .reshape(-1, 6)], axis=1))   # rot6d: the first two columns

    xi = log.xi[:, r]
    force = np.concatenate((log.start_force[r][None], log.force[:-1, r]))
    return np.column_stack([t, np.sqrt(dot_rows(xi, xi)),
                            np.sqrt(dot_rows(force, force)),
                            log.clamped[:, r]])
