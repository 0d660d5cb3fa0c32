import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contactctl.cli import main
from contactctl.scenarios import (KINDS, load_scenario_config, run_bottle_pick,
                                  run_gravity_verification,
                                  run_selective_release, run_scenario,
                                  run_wiping, summary_table)
from contactctl.scenarios.base import Criterion, ScenarioConfigError, build_report
from contactctl.scenarios.bilateral_quality import run_bilateral_signal_quality
from contactctl.scenarios.gravity import calibration_orientations
from contactctl.sensing import gravity_model, identify_payload
from conftest import load_edited


def load(name, **kw):
    return load_scenario_config(f"configs/{name}.ini", **kw)


def load_with(name, tmp_path, edits, **kw):
    return load_edited(f"configs/{name}.ini", tmp_path, edits, **kw)


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
    config = load("gravity_verification")
    crits = [Criterion("a", ">=", 1.0), Criterion("b", "<", 0.5)]

    def success(metrics):
        return build_report(config, "default", metrics, crits).success
    assert success({"a": 1.0, "b": 0.4})
    assert not success({"a": 0.9, "b": 0.4})
    assert not success({"a": 1.0})   # missing metric fails


def test_report_keeps_every_criterion_of_a_metric():
    # two criteria on one metric are both checked, and both shown
    config = load("gravity_verification")
    crits = [Criterion("a", ">=", 1.0), Criterion("a", "<=", 2.0),
             Criterion("b", "<", 0.5)]
    report = build_report(config, "default", {"a": 2.5, "b": 0.4}, crits)
    assert report.thresholds == {"a": ">= 1 and <= 2", "b": "< 0.5"}
    assert not report.success
    assert "a = 2.5   (required >= 1 and <= 2)" in "\n".join(report.summary_lines())


def test_calibration_orientations_distinct():
    poses = calibration_orientations(10)
    assert len(poses) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.max(np.abs(poses[i] - poses[j])) > 1e-6


# ---------------------------------------------------------------------------
# gravity

def test_gravity_noise_free_exact(tmp_path):
    config = load_with("gravity_verification", tmp_path,
                       {("gravity", "noise_sigma"): "0.0"}, trials_override=1)
    report, = run_gravity_verification(config)
    assert report.metrics["compensated_span_max"] < 1e-6
    assert report.metrics["residual_rms_max"] < 1e-9


def test_gravity_too_few_poses_fail_at_load(tmp_path):
    # three poses cannot identify the ten payload parameters: a config error,
    # not a report. Every accepted count fits, since each pose set extends
    # the one before it and so keeps its rank
    bad = tmp_path / "gravity.ini"
    bad.write_text(Path("configs/gravity_verification.ini").read_text()
                   .replace("n_poses = 10", "n_poses = 3"))
    with pytest.raises(ScenarioConfigError, match=r"\[gravity\] n_poses"):
        load_scenario_config(bad)
    for n in [*range(4, 16), 100]:
        poses = np.array(calibration_orientations(n + 1))
        assert np.array_equal(poses[:n], calibration_orientations(n))
        identify_payload(poses[:n], gravity_model(0.3, np.zeros(3), np.zeros(6),
                                                  poses[:n]))
    config = load_with("gravity_verification", tmp_path, {("gravity", "n_poses"): "4"},
                       trials_override=1)
    report, = run_gravity_verification(config)
    assert set(report.metrics) == set(report.thresholds) | {"payload_mass_true"}


def test_gravity_reproducible_bit_exact():
    config = load("gravity_verification", trials_override=5)
    a, = run_gravity_verification(config)
    b, = run_gravity_verification(config)
    assert a.metrics == b.metrics


def test_gravity_seed_changes_noise_metrics_only():
    config_a = load("gravity_verification", seed_override=1, trials_override=3)
    config_b = load("gravity_verification", seed_override=2, trials_override=3)
    a, = run_gravity_verification(config_a)
    b, = run_gravity_verification(config_b)
    assert a.metrics["compensated_span_max"] != b.metrics["compensated_span_max"]
    assert a.metrics["payload_mass_true"] == b.metrics["payload_mass_true"]


# ---------------------------------------------------------------------------
# wiping

def test_wiping_single_trial_passes_core_metrics():
    config = load("wiping", trials_override=1)
    report, _ = run_wiping(config)
    assert report.metrics["mean_fz_min"] >= 8.5
    assert report.metrics["mean_fz_max"] <= 11.5
    assert report.metrics["frac_above_floor_min"] >= 0.95
    assert report.metrics["residual_max"] < 0.05
    # golden for seed 7, one trial: a refactor keeps these bits or declares drift
    assert config.seed == 7
    assert math.isclose(report.metrics["mean_fz"], 9.070765960989986, rel_tol=1e-9)


def test_wiping_baseline_misses_surface():
    config = load("wiping", trials_override=1)
    _, report = run_wiping(config)
    assert report.metrics["mean_fz_max"] < 1.0
    assert report.metrics["success_rate_5pct"] == 0.0
    assert report.metrics["residual_max"] == 1.0


def test_wiping_stiffer_plane_same_force(tmp_path):
    # compliance absorbs a doubled surface stiffness
    config = load_with("wiping", tmp_path, {("plant", "plane_stiffness"): "4e4"},
                       trials_override=1)
    report, _ = run_wiping(config)
    assert abs(report.metrics["mean_fz"] - 10.0) / 10.0 < 0.15


def test_wiping_deterministic():
    config = load("wiping", trials_override=1)
    a, _ = run_wiping(config)
    b, _ = run_wiping(config)
    assert a.metrics == b.metrics


def test_wiping_replay_second_generation(tmp_path):
    # re-execute a recorded episode's action stream: the second-generation
    # contact-force trace must match the first within 5% RMS
    from contactctl.episodes import load_episode, replay_actions
    from contactctl.scenarios.wiping import rollout, wiping_episode, wiping_setup

    config = load("wiping", trials_override=1)
    report, _ = run_wiping(config, tmp_path / "gen1")
    episode1 = load_episode(report.episode_dir)

    # generation 2: action rows rebuilt from the recorded stream, whose
    # padding rows are not scored
    chunks = replay_actions(episode1, 16)
    actions2 = np.array([s.as_array() for c in chunks for s in c.steps])
    setup = wiping_setup(config)
    scored2 = np.pad(setup.scored[0], (0, len(actions2) - setup.streams.shape[1]))
    # same jittered plane and noise stream as the recorded trial (seed, trial 0)
    rng = np.random.default_rng(config.seed * 1000)
    jitter = config.value("plant", "surface_jitter")
    offset = rng.uniform(-jitter, jitter)
    episode2 = wiping_episode(setup, "gen2")
    mean_fz, *_ = rollout(replace(setup, streams=actions2[None], scored=scored2[None]),
                          [0], [offset], {0: (rng, episode2)})
    fz1 = episode1.values("wrench_ee")[:, 2]
    fz2 = episode2.values("wrench_ee")[:, 2]
    n = min(len(fz1), len(fz2))
    scale = np.sqrt(np.mean(fz1[:n] ** 2))
    rms_diff = np.sqrt(np.mean((fz1[:n] - fz2[:n]) ** 2))
    assert scale > 1.0   # the wipe really pressed
    assert rms_diff / scale < 0.05
    assert abs(mean_fz[0] - report.metrics["mean_fz"]) \
        / report.metrics["mean_fz"] < 0.05


def test_wiping_rows_bitwise_independent_of_batch(monkeypatch, tmp_path):
    # each (variant, trial) row of a batched rollout gives the same bits alone
    # (batch of 1, its stream alone in the setup) as inside a mixed batch:
    # both variants, rows in and out of contact, recorded and unrecorded
    # rows, and a row whose orientation error sits at a half turn
    # (rotation_log's near-pi branch)
    from contactctl import kinematics
    from contactctl.geometry import rotation_about_axis
    from contactctl.scenarios.wiping import (_scripted_actions, rollout,
                                             wiping_episode, wiping_setup)

    config = load_with("wiping", tmp_path,   # every phase, fewer ticks
                       {("wiping", "settle_s"): "0.1", ("wiping", "press_s"): "0.2",
                        ("wiping", "slide_s"): "0.3", ("wiping", "retreat_s"): "0.1"},
                       trials_override=1)
    setup = wiping_setup(config)
    start = setup.start_pose.rotation
    # planar3 turns about y only, so a half turn about x is never undone
    half_turn = rotation_about_axis(np.array([1.0, 0.0, 0.0]), np.pi) @ start
    pressing, scored = _scripted_actions(config, start, 10.0)
    hovering, _ = _scripted_actions(config, start, 0.0)
    flipped, _ = _scripted_actions(config, half_turn, 10.0)
    mixed = replace(setup, streams=np.array([pressing, hovering, flipped]),
                    scored=np.array([scored] * 3))
    stream_of_row = [0, 1, 0, 2]
    plane_offset = [-0.0003, -0.002, 0.0004, 0.0]

    def recorded():   # rows 0, 1 and 3, each with its own noise stream
        return {i: (np.random.default_rng(i + 1), wiping_episode(setup, name))
                for i, name in ((0, "pressing"), (1, "hovering"), (3, "flipped"))}

    near_pi = []
    real_log = kinematics.rotation_log

    def spy(r):
        trace = np.trace(r, axis1=-2, axis2=-1)
        near_pi.append(np.pi - np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))
                       < 1e-6)
        return real_log(r)

    monkeypatch.setattr(kinematics, "rotation_log", spy)
    together_recorded = recorded()
    *together, together_diagnostics = rollout(mixed, stream_of_row, plane_offset,
                                              together_recorded)
    monkeypatch.undo()
    assert np.all(np.array(near_pi)[:, 3]) and not np.any(np.array(near_pi)[:, :3])
    assert together[0][0] > 1.0 and together[0][1] == 0.0

    for i, stream in enumerate(stream_of_row):
        alone_recorded = {0: recorded()[i]} if i in together_recorded else {}
        *alone, alone_diagnostics = rollout(
            replace(mixed, streams=mixed.streams[[stream]], scored=mixed.scored[[stream]]),
            [0], plane_offset[i:i + 1], alone_recorded)
        for got, want in zip(together, alone):   # mean_fz, frac_above_floor, residual
            assert got[i].tobytes() == want[0].tobytes()
        assert (i in together_diagnostics) == (0 in alone_diagnostics)
        if i not in together_recorded:
            continue
        got, want = together_recorded[i][1], alone_recorded[0][1]
        for name in got.streams:
            assert len(got.times(name)) > 0
            assert got.times(name).tobytes() == want.times(name).tobytes()
            assert got.values(name).tobytes() == want.values(name).tobytes()
        assert together_diagnostics[i].tobytes() == alone_diagnostics[0].tobytes()


def output_hashes(out) -> dict:
    """sha256 of every file under `out`.

    A report names its episode directory, so the output root is written as
    "<out>" in it before hashing.
    """
    return {path.relative_to(out).as_posix(): hashlib.sha256(
                path.read_bytes().replace(str(out).encode(), b"<out>")).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize(("seed", "trials"),
                         [("1", "1"), ("7", "1"), ("1", "3"), ("7", "3")],
                         ids=["1", "7", "1-trials3", "7-trials3"])
def test_wiping_trial_outputs_keep_their_bytes(tmp_path, seed, trials):
    # sha256 of every file a wiping run writes: the episode files and
    # diagnostics CSVs as written when each tick sensed and recorded its own
    # rows, and the reports, metrics CSVs and summary table; three trials
    # pin each (variant, trial) row's place in the scores
    want = json.loads(Path(f"tests/data/wiping_trial{trials}_sha256.json").read_text())
    assert main(["run", "--config", "configs/wiping.ini", "--trials", trials,
                 "--seed", seed, "--out", str(tmp_path), "--quiet"]) == 0
    assert output_hashes(tmp_path) == want[seed]


# (config, --trials) of the gripper scenarios, at the benchmark's trial counts
GRIPPER_RUNS = (("bottle_pick", "10"), ("selective_release", "10"),
                ("bilateral_quality", "1"), ("gravity_verification", "100"))


def gripper_output_hashes(out, seed) -> dict:
    """sha256 of every file the gripper runs write under `out`."""
    for name, trials in GRIPPER_RUNS:
        assert main(["run", "--config", f"configs/{name}.ini", "--trials", trials,
                     "--seed", seed, "--out", str(out / name), "--quiet"]) == 0
    return output_hashes(out)


@pytest.mark.parametrize("seed", ["1", "7"])
def test_gripper_outputs_keep_their_bytes(tmp_path, seed):
    # as written when each recorded step went through Episode.record and each
    # CSV row through csv.writer
    want = json.loads(Path("tests/data/gripper_sha256.json").read_text())
    assert gripper_output_hashes(tmp_path, seed) == want[seed]


def test_wiping_compiles_each_distinct_stream_once(monkeypatch):
    # the 20 rows of the shipped run share two action streams (one per
    # variant), whose 2 x 48 executed rows are compiled in one call before
    # the first tick
    from contactctl.impedance import ImpedanceExecutor
    from contactctl.scenarios import wiping
    calls = []
    real = wiping.compile_step

    def spy(*args):
        calls.append(args)
        return real(*args)

    class FirstTick(Exception):
        pass

    def first_tick(*args):
        raise FirstTick

    monkeypatch.setattr(wiping, "compile_step", spy)
    monkeypatch.setattr(ImpedanceExecutor, "closed_loop_tick", first_tick)
    config = load("wiping")
    assert config.trials == 10
    with pytest.raises(FirstTick):
        run_wiping(config)
    assert len(calls) == 1
    assert np.shape(calls[0][0]) == (2, 48, 13)


@pytest.mark.parametrize("name, chunking", [
    ("wiping", "shipped"), ("wiping_arm6", "shipped"), ("wiping", "16/8"),
    ("wiping", "5/3"), ("wiping", "44/44")])
def test_wiping_row_ticks_count_the_ticks_a_row_runs(tmp_path, name, chunking):
    # the load bound counts every chunk, the last one padded, running its
    # first `horizon` commands: 48 x 50 ticks for the shipped 44 commands
    from contactctl.scenarios.wiping import _control_targets, row_ticks, wiping_setup
    edits = {} if chunking == "shipped" else dict(
        zip((("compliance", "chunk_len"), ("compliance", "horizon")), chunking.split("/")))
    config = load_with(name, tmp_path, edits, trials_override=1)
    setup = wiping_setup(config)
    executed, (_, kp) = _control_targets(setup)
    assert row_ticks(config) == len(executed) * setup.ticks_per_action == kp.shape[1]


def horizon_8_config(tmp_path):
    return load_with("wiping", tmp_path, {("compliance", "horizon"): "8"},
                     trials_override=1)


def test_wiping_records_the_executed_rows(tmp_path):
    # with horizon 8 of chunk_len 16, command k executes row
    # (k // 8) * 16 + k % 8 of the replayed stream, and the episode records
    # it; at the full horizon every row of the padded stream is recorded
    from contactctl.episodes import load_episode
    padded = load_episode(run_wiping(load("wiping", trials_override=1),
                                     tmp_path / "h16")[0].episode_dir).values("action")
    recorded = load_episode(run_wiping(horizon_8_config(tmp_path),
                                       tmp_path / "h8")[0].episode_dir).values("action")
    executed = [(k // 8) * 16 + k % 8 for k in range(len(padded) // 2)]
    assert recorded.tobytes() == padded[executed].tobytes()
    # commands 8-13 run slide rows 16-21, where stream rows 8-13 are press rows
    assert np.all(padded[8:14, 0] == 0.0) and np.all(recorded[8:14, 0] > 0.0)


def test_wiping_scores_the_executed_rows(tmp_path):
    # only rows that no command executes are scored: nothing is scored
    from contactctl.scenarios.wiping import rollout, wiping_setup
    setup = wiping_setup(horizon_8_config(tmp_path))
    k = np.arange(setup.streams.shape[1])
    skipped = replace(setup, scored=np.tile(k % 16 >= 8, (2, 1)))
    mean_fz, frac_above_floor, _, _ = rollout(skipped, [0], [0.0], {})
    assert mean_fz[0] == 0.0 and frac_above_floor[0] == 0.0
    executed = replace(setup, scored=np.tile(k % 16 < 8, (2, 1)))
    mean_fz, _, _, _ = rollout(executed, [0], [0.0], {})
    assert mean_fz[0] > 1.0


def test_run_scenario_wiping_is_one_batch(monkeypatch, tmp_path):
    # both variants run as one batched rollout, one report per variant
    from contactctl.scenarios import wiping
    batches = []
    real = wiping.rollout

    def counting(setup, stream_of_row, *args):
        batches.append(len(stream_of_row))
        return real(setup, stream_of_row, *args)

    monkeypatch.setattr(wiping, "rollout", counting)
    config = load_with("wiping", tmp_path, {("wiping", "slide_s"): "0.2"},
                       trials_override=1)
    reports = run_scenario(config)
    assert batches == [2]
    assert [r.variant for r in reports] == ["with_wrench", "no_wrench"]


# ---------------------------------------------------------------------------
# bottle / release / quality edge cases

def test_bottle_massless_both_variants_succeed(tmp_path):
    config = load_with("bottle_pick", tmp_path, {("bottle", "mass"): "0.0"},
                       trials_override=3)
    for report in run_bottle_pick(config):
        assert report.metrics["slippage_rate"] == 0.0


def test_release_without_outer_gap_fails_at_load(tmp_path):
    # inner and outer widths that coincide leave no selective release to
    # run: a config error, not a criteria failure
    for gap in ("0.0", "-0.001"):
        bad = tmp_path / "release.ini"
        bad.write_text(Path("configs/selective_release.ini").read_text()
                       .replace("outer_gap = 0.006", f"outer_gap = {gap}"))
        with pytest.raises(ScenarioConfigError, match=r"\[release\] outer_gap"):
            load_scenario_config(bad)


def test_release_baseline_exact_split():
    config = load("selective_release")
    _, report = run_selective_release(config)
    assert report.metrics["selective_rate"] == 20.0
    assert report.metrics["both_retained_rate"] == 80.0


def test_quality_zero_motion_profile(tmp_path):
    config = load_with("bilateral_quality", tmp_path,
                       {("quality", "hold_force"): "0.0", ("quality", "wipe_amp"): "0.0"})
    report, = run_bilateral_signal_quality(config)
    assert report.metrics["rms_bilateral"] < 1e-9
    assert report.metrics["rms_no_reflection"] < 1e-9


# ---------------------------------------------------------------------------
# runner and tables

def test_run_scenario_dispatch_unknown_kind(monkeypatch):
    config = load("wiping")
    monkeypatch.delitem(KINDS, "wiping")
    with pytest.raises(ScenarioConfigError):
        run_scenario(config)


# each kind's runner by the name the benchmark's tracer rebinds on its module
RUNNERS = {"gravity_verification": "run_gravity_verification", "wiping": "run_wiping",
           "bottle_pick": "run_bottle_pick", "selective_release": "run_selective_release",
           "bilateral_quality": "run_bilateral_signal_quality"}


@pytest.mark.parametrize("kind", KINDS)
def test_run_scenario_calls_the_runner_bound_on_the_kind_module(monkeypatch, kind):
    # run_scenario looks the runner up on its module when called, so a runner
    # rebound there (by a spy or a tracer) is the one that runs
    assert set(RUNNERS) == set(KINDS)
    calls = []

    def spy(config, out_dir=None):
        calls.append((config, out_dir))
        return ["spied"]

    monkeypatch.setattr(KINDS[kind], RUNNERS[kind], spy)
    config = load(kind)
    assert run_scenario(config, "out") == ["spied"]
    assert calls == [(config, Path("out"))]


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_reports_its_declared_variants_in_order(tmp_path, kind):
    edits = {("wiping", "slide_s"): "0.2"} if kind == "wiping" else {}
    config = load_with(kind, tmp_path, edits, trials_override=1)
    reports = run_scenario(config)
    variants = KINDS[kind].VARIANTS
    assert [rep.variant for rep in reports] == list(variants)
    table = summary_table(reports)
    assert summary_table(reports[::-1]) == table   # rows in declared order
    for label in variants.values():
        assert label in table


def test_summary_table_shape():
    config = load("bottle_pick", trials_override=2)
    reports = run_bottle_pick(config)
    table = summary_table(reports)
    assert "with grasping force" in table
    assert "width-only" in table
    assert "success rate" in table
