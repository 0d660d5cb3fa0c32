import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import episode_csv_oracle
import plot_oracle
from contactctl import cli
from contactctl.cli import main
from contactctl.compliance import StiffnessSchedule, compile_step
from contactctl.dynamics import load_arm_model
from contactctl.episodes import Episode, StreamSpec, export_csv, load_episode
from contactctl.geometry import GeometryError, Pose, encode_rot6d_rows
from contactctl.kinematics import ChainConfigError
from contactctl.sensing import load_payload
from conftest import random_rotation
from test_geometry import near_parallel_rows


GOLDEN_CAL = "tests/data/calibration_golden.csv"
# sha256 of the payload file `calibrate` writes from GOLDEN_CAL: the fit's bits
GOLDEN_PAYLOAD_SHA256 = "1bfe77b566c97ecc59f2b9d6b9cc38055f19936a4f5877008df357f3d6fb1024"


def run_cli(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# run

@pytest.mark.parametrize("config", ["gravity_verification", "bilateral_quality"])
def test_run_prints_each_report_once(tmp_path, capsys, config):
    # a kind without a comparison table prints its report lines once; its
    # summary.txt holds those same lines
    assert run_cli("run", "--config", f"configs/{config}.ini",
                   "--out", str(tmp_path), "--trials", "1") == 0
    out = capsys.readouterr().out
    assert out.count(f"scenario {config} [default]") == 1
    assert out.endswith((tmp_path / "summary.txt").read_text())


def test_run_gravity_succeeds(tmp_path, capsys):
    code = run_cli("run", "--config", "configs/gravity_verification.ini",
                   "--out", str(tmp_path), "--trials", "5")
    out = capsys.readouterr().out
    assert code == 0
    assert "seed=42" in out
    assert (tmp_path / "report_default.json").exists()
    assert (tmp_path / "summary.txt").exists()
    report = json.loads((tmp_path / "report_default.json").read_text())
    assert report["success"] is True
    assert 6.3 < report["metrics"]["raw_span_mean"] < 7.1


def test_run_missing_config(tmp_path, capsys):
    code = run_cli("run", "--config", "configs/absent.ini", "--out", str(tmp_path))
    assert code == 2
    assert "absent.ini" in capsys.readouterr().err


def test_run_unknown_kind_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nid = x\nkind = mystery\n")
    code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"))
    assert code == 2


def test_run_seed_override_changes_noise_metrics(tmp_path):
    for seed, sub in (("7", "a"), ("8", "b")):
        code = run_cli("run", "--config", "configs/gravity_verification.ini",
                       "--out", str(tmp_path / sub), "--trials", "3",
                       "--seed", seed, "--quiet")
        assert code == 0
    a = json.loads((tmp_path / "a" / "report_default.json").read_text())
    b = json.loads((tmp_path / "b" / "report_default.json").read_text())
    assert a["metrics"]["compensated_span_max"] != b["metrics"]["compensated_span_max"]
    assert a["metrics"]["payload_mass_true"] == b["metrics"]["payload_mass_true"]


def test_run_selective_release_pair_and_table(tmp_path, capsys):
    code = run_cli("run", "--config", "configs/selective_release.ini",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "with tactile" in out and "fixed width" in out
    assert (tmp_path / "report_with_tactile.json").exists()
    assert (tmp_path / "report_fixed_width.json").exists()


@pytest.mark.parametrize(
    "config, old, new",
    [("wiping", "[gains]\nk_min = 200", "[gains]\nk_min = 3000"),
     ("wiping", "ik_damping = 0.05", "ik_damping = 0"),
     ("wiping", "dt = 0.001", "dt = 0.02"),
     ("bottle_pick", "dt = 0.001", "dt = 0.01"),
     ("bilateral_quality", "dt = 0.001", "dt = 0.01"),
     ("bottle_pick", "kp = 5.0", "kp = -1"),
     ("bilateral_quality", "kp = 5.0", "kp = -1"),
     ("bottle_pick", "filter_cutoff = 20", "filter_cutoff = 0"),
     ("wiping", "m_eff = 2.0", "m_eff = -2"),
     ("wiping", "m_eff = 2.0", "m_eff = 0"),
     ("wiping", "zeta = 1.0", "zeta = -1"),
     ("wiping", "k_rot = 50 50 50", "k_rot = 50 -50 50"),
     ("wiping", "d_rot = 5 5 5", "d_rot = 5 5 -5"),
     ("wiping", "kq_floor = 1.0", "kq_floor = -1"),
     ("wiping", "kqd_floor = 0.1", "kqd_floor = -0.1"),
     ("wiping", "plane_mu = 0.4", "plane_mu = nan"),
     ("wiping", "plane_stiffness = 2e4", "plane_stiffness = nan"),
     ("wiping", "plane_damping = 250", "plane_damping = nan"),
     ("wiping", "erase_threshold = 7", "erase_threshold = nan"),
     ("wiping", "cells = 20", "cells = 0"),
     ("wiping", "f_sat = 20", "f_sat = nan"),
     ("wiping", "action_rate_hz = 20", "action_rate_hz = 0"),
     ("wiping", "chunk_len = 16", "chunk_len = 0"),
     ("wiping", "horizon = 16", "horizon = 0"),
     ("wiping", "surface_jitter = 0.0005", "surface_jitter = nan"),
     ("bottle_pick", "mass = 0.55", "mass = nan"),
     ("bottle_pick", "mass = 0.55", "mass = -0.1"),
     ("bottle_pick", "mass = 0.55", "mass = inf"),
     ("bottle_pick", "friction_mu = 0.5", "friction_mu = nan"),
     ("bottle_pick", "friction_mu = 0.5", "friction_mu = -0.5"),
     ("bottle_pick", "contact_stiffness = 5000", "contact_stiffness = nan"),
     ("bottle_pick", "contact_stiffness = 5000", "contact_stiffness = 0"),
     ("bottle_pick", "contact_stiffness = 5000", "contact_stiffness = inf"),
     ("bottle_pick", "mass_jitter_frac = 0.03", "mass_jitter_frac = nan"),
     ("bottle_pick", "mass_jitter_frac = 0.03", "mass_jitter_frac = 1.5"),
     ("bottle_pick", "mass_jitter_frac = 0.03", "mass_jitter_frac = -0.03"),
     ("wiping", "noise_sigma = 0.02", "noise_sigma = nan"),
     ("wiping", "noise_sigma = 0.02", "noise_sigma = -1"),
     ("wiping", "payload_mass = 0.2", "payload_mass = nan"),
     ("wiping", "payload_mass = 0.2", "payload_mass = -1"),
     ("wiping", "payload_com = 0 0 0.03", "payload_com = 0 nan 0.03"),
     ("wiping", "payload_bias = 0.2 -0.1 0.15", "payload_bias = 0.2 -0.1 nan"),
     ("wiping", "force_target = 10", "force_target = nan"),
     ("wiping", "stroke = 0.20", "stroke = nan"),
     ("wiping", "press_s = 0.4", "press_s = nan"),
     ("wiping", "settle_s = 0.3", "settle_s = -1"),
     ("wiping", "gripper_width = 0.05", "gripper_width = -1"),
     ("wiping", "tool_pitch = 0.7", "tool_pitch = nan"),
     ("wiping", "x_start = 0.40", "x_start = nan"),
     ("wiping", "baseline_surface_offset = -0.002",
      "baseline_surface_offset = nan")],
    ids=["k_min_above_k_max", "zero_ik_damping", "plant_dt_above_step_bound",
         "bottle_dt_above_step_bound", "quality_dt_above_step_bound",
         "bottle_negative_gripper_kp", "quality_negative_gripper_kp",
         "zero_gripper_filter_cutoff",
         "negative_m_eff", "zero_m_eff", "negative_zeta", "negative_k_rot",
         "negative_d_rot", "negative_kq_floor", "negative_kqd_floor",
         "nan_plane_mu", "nan_plane_stiffness", "nan_plane_damping",
         "nan_erase_threshold", "zero_cells", "nan_f_sat", "zero_action_rate",
         "zero_chunk_len", "zero_horizon", "nan_surface_jitter",
         "nan_bottle_mass", "negative_bottle_mass", "inf_bottle_mass",
         "nan_bottle_mu", "negative_bottle_mu", "nan_bottle_stiffness",
         "zero_bottle_stiffness", "inf_bottle_stiffness", "nan_mass_jitter",
         "mass_jitter_above_one", "negative_mass_jitter", "nan_noise_sigma",
         "negative_noise_sigma", "nan_payload_mass", "negative_payload_mass",
         "nan_payload_com", "nan_payload_bias", "nan_force_target", "nan_stroke",
         "nan_press_s", "negative_settle_s", "negative_gripper_width",
         "nan_tool_pitch", "nan_x_start", "nan_baseline_surface_offset"])
def test_run_bad_gain_config_is_usage_error(tmp_path, capsys, config, old, new):
    # a gain or step the controller cannot use is a config error, not a
    # runtime fault
    src = Path(f"configs/{config}.ini").read_text()
    assert src.count(old) == 1
    chains = Path("configs/chains").resolve()
    bad = tmp_path / f"{config}.ini"
    bad.write_text(src.replace(old, new)
                   .replace("chain = chains", f"chain = {chains}"))
    code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"),
                   "--quiet")
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert new.split(" = ")[0].split()[-1] in err   # the key


@pytest.mark.parametrize("config", ["wiping", "bottle_pick"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_run_trials_below_one_is_usage_error(tmp_path, capsys, config, trials):
    # from --trials, and from the config file
    code = run_cli("run", "--config", f"configs/{config}.ini", "--trials", trials,
                   "--out", str(tmp_path / "cli"), "--quiet")
    assert code == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    src = Path(f"configs/{config}.ini").read_text()
    assert src.count("trials = 10") == 1
    bad = tmp_path / f"{config}.ini"
    bad.write_text(src.replace("trials = 10", f"trials = {trials}"))
    code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "file"),
                   "--quiet")
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, old, new, key",
    [("bottle_pick", "trials = 10", "trials = ten", "[scenario] trials"),
     ("bottle_pick", "seed = 11", "seed = 1.5", "[scenario] seed"),
     ("wiping", "x_start = 0.40", "x_start = abc", "[wiping] x_start"),
     ("wiping", "cells = 20", "cells = 2O", "[wiping] cells"),
     ("wiping", "k_rot = 50 50 50", "k_rot = 50 fifty 50", "[gains] k_rot"),
     ("wiping", "fz_tol_frac = 0.15", "fz_tol_frac = nan", "[criteria] fz_tol_frac"),
     ("wiping", "plane_stiffness = 2e4", "plane_stifness = 2e7",
      "[plant] plane_stifness"),
     ("wiping", "slide_s = 1.3", "slide_s = 1e9", "[wiping] slide_s"),
     ("bottle_pick", "hold_s = 0.5", "hold_s = nan", "[bottle] hold_s"),
     ("bottle_pick", "dt = 0.001", "dt_typo = 0.001", "[bottle] dt_typo"),
     ("selective_release", "dt = 0.01", "dt = 0", "[release] dt"),
     ("selective_release", "tactile_rate_hz = 30", "tactile_rate_hz = 0",
      "[release] tactile_rate_hz"),
     ("selective_release", "duration_s = 6.0", "duration_s = nan",
      "[release] duration_s"),
     ("gravity_verification", "n_poses = 10", "n_poses = 0", "[gravity] n_poses"),
     ("gravity_verification", "sample_rate_hz = 100", "sample_rate_hz = 0",
      "[gravity] sample_rate_hz"),
     ("gravity_verification", "payload_com = 0.01 0.02 0.05", "payload_com = 1 2",
      "[gravity] payload_com"),
     ("gravity_verification", "residual_rms_max = 0.15", "residual_rms_max = nan",
      "[criteria] residual_rms_max"),
     ("bilateral_quality", "duration_s = 5.0", "duration_s = -1",
      "[quality] duration_s"),
     ("wiping", "chains/planar3.ini", "chains/absent.ini", "absent.ini"),
     ("bottle_pick", "seed = 11", "seed = -1", "[scenario] seed")],
    ids=["trials", "seed", "get_float", "get_int", "get_vec", "nan_criterion",
         "misspelt_key", "phase_too_long", "nan_hold_s", "unknown_bottle_key",
         "zero_release_dt", "zero_tactile_rate", "nan_release_duration",
         "zero_poses", "zero_sample_rate", "short_payload_com",
         "nan_residual_criterion", "negative_quality_duration", "absent_chain",
         "negative_seed"])
def test_run_non_numeric_config_value_is_usage_error(tmp_path, capsys, config,
                                                     old, new, key):
    # a value that is not a number, that lies outside its declared range, or
    # that makes a row too long to run, and a key its kind does not declare,
    # are config errors naming the key, not runtime faults or criteria
    # failures
    src = Path(f"configs/{config}.ini").read_text()
    assert src.count(old) == 1
    chains = Path("configs/chains").resolve()
    bad = tmp_path / f"{config}.ini"
    bad.write_text(src.replace(old, new)
                   .replace("chain = chains", f"chain = {chains}"))
    code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"),
                   "--quiet")
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("mass = 1.6", "mass = nan", "joint.2 mass"),
    ("axis = 0 1 0", "axis = nan 1 0", "joint.2 axis"),
    ("limits = -2.8 2.8", "limits = nan nan", "joint.2 limits"),
    ("com = 0.16 0 0", "com = 0.16 0", "joint.2 com"),
    ("inertia_diag = 0.002 0.034 0.034", "inertia_diag = 0.002 0.034 inf",
     "joint.2 inertia_diag"),
    ("offset_rot6d = 1 0 0 0 1 0", "offset_rot6d = 1 0 0 1 0 0",
     "joint.2 offset_rot6d: degenerate 6D rotation"),
    ("com = 0.16 0 0\ninertia_diag", "cmo = 0.16 0 0\ninertia_dag",
     "planar3.ini [joint.2] cmo is not a chain file key")],
    ids=["nan_mass", "nan_axis", "nan_limits", "short_com", "inf_inertia",
         "parallel_offset_rot6d", "misspelt_keys"])
def test_run_bad_arm_file_value_is_usage_error_naming_joint_and_key(
        tmp_path, capsys, old, new, key):
    # a value of the arm file that is not a finite number, a vector of the
    # wrong length, a degenerate rotation, and a key the format does not
    # declare are config errors naming the joint and key, not a runtime
    # fault, an unreachable start pose or a silently defaulted value
    chain = Path("configs/chains/planar3.ini").read_text()
    head, joint2 = chain.split("[joint.2]")
    joint2, tail = joint2.split("[joint.3]")
    assert joint2.count(old) == 1
    code = run_wiping_on_chain(
        tmp_path, f"{head}[joint.2]{joint2.replace(old, new)}[joint.3]{tail}")
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "unreachable" not in err


def run_wiping_on_chain(tmp_path, chain_text: str) -> int:
    """The exit code of a one-trial wiping run on an arm file of this text."""
    bad_chain = tmp_path / "planar3.ini"
    bad_chain.write_text(chain_text)
    src = Path("configs/wiping.ini").read_text()
    assert src.count("chains/planar3.ini") == 1
    bad = tmp_path / "wiping.ini"
    bad.write_text(src.replace("chains/planar3.ini", str(bad_chain)))
    return run_cli("run", "--config", str(bad), "--trials", "1",
                   "--out", str(tmp_path / "out"), "--quiet")


@pytest.mark.parametrize("edit, section", [
    (lambda chain, joint2: chain.replace("[joint.3]", "[joint.4]"), "[joint.4]"),
    (lambda chain, joint2: chain.replace("[joint.2]", "[joint.02]"), "[joint.02]"),
    (lambda chain, joint2: chain.replace("[joint.3]", f"[joint.02]{joint2}[joint.3]"),
     "[joint.02]")],
    ids=["gap", "leading_zero", "repeated_number"])
def test_run_misnumbered_arm_joint_is_usage_error_naming_its_section(
        tmp_path, capsys, edit, section):
    # the chain and the dynamics read the same joint sections, [joint.1] to
    # [joint.N]; any other [joint.*] section is a config error naming it
    chain = Path("configs/chains/planar3.ini").read_text()
    joint2 = chain.split("[joint.2]")[1].split("[joint.3]")[0]
    bad = edit(chain, joint2)
    assert bad != chain and bad.count(section) == 1
    assert run_wiping_on_chain(tmp_path, bad) == 2
    assert section in capsys.readouterr().err


def test_run_failure_exit_code(tmp_path):
    # a config that runs but fails its criteria: the baseline opens past
    # every outer width, releasing both objects in every trial
    src = Path("configs/selective_release.ini").read_text()
    bad = tmp_path / "wide.ini"
    bad.write_text(src.replace("fixed_width = 0.062", "fixed_width = 0.1"))
    code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "out"),
                   "--quiet")
    assert code == 1


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_golden_fixture(tmp_path, capsys):
    out_path = tmp_path / "payload.ini"
    code = run_cli("calibrate", "--samples", GOLDEN_CAL, "--out", str(out_path))
    assert code == 0
    printed = capsys.readouterr().out
    assert "0.342" in printed
    payload = load_payload(out_path)
    assert abs(payload.mass - 0.342) < 1e-9
    assert np.allclose(payload.com, [0.01, 0.02, 0.05], atol=1e-9)
    assert np.allclose(payload.bias, [0.3, -0.2, 0.1, 0.0, 0.0, 0.0], atol=1e-9)


def test_calibrate_golden_fixture_keeps_its_bytes(tmp_path):
    out_path = tmp_path / "payload.ini"
    assert run_cli("calibrate", "--samples", GOLDEN_CAL, "--out", str(out_path)) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN_PAYLOAD_SHA256


@pytest.mark.parametrize("line,column,value", [
    (3, "fz", "nan"), (5, "fz", "inf"), (4, "r6_0", "nan"), (6, "tx", "abc")])
def test_calibrate_bad_sample_is_usage_error_naming_its_line(tmp_path, capsys,
                                                             line, column, value):
    lines = Path(GOLDEN_CAL).read_text().splitlines()
    row = lines[line - 1].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(row)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "p.ini"
    code = run_cli("calibrate", "--samples", str(path), "--out", str(out_path))
    assert code == 2
    assert f"{path}:{line}:" in capsys.readouterr().err
    assert not out_path.exists()


def test_calibrate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = run_cli("calibrate", "--samples", str(empty),
                   "--out", str(tmp_path / "p.ini"))
    assert code == 2


def test_calibrate_unreadable_samples_path_is_usage_error(tmp_path, capsys):
    # a directory cannot be read as a samples file: exit 2 naming it, as a
    # missing file does, not a runtime fault
    code = run_cli("calibrate", "--samples", str(tmp_path),
                   "--out", str(tmp_path / "p.ini"))
    assert code == 2
    assert f"cannot read samples file {tmp_path}: " in capsys.readouterr().err
    assert not (tmp_path / "p.ini").exists()


def test_calibrate_rank_deficient(tmp_path, capsys):
    from contactctl.sensing import gravity_model, save_calibration_csv
    orients = np.array([np.eye(3)] * 6)
    path = tmp_path / "flat.csv"
    save_calibration_csv(path, orients, gravity_model(0.3, [0.01, 0, 0], np.zeros(6),
                                                      orients))
    code = run_cli("calibrate", "--samples", str(path),
                   "--out", str(tmp_path / "p.ini"))
    assert code == 1
    assert "unobservable" in capsys.readouterr().err


def test_calibrate_minimum_four_poses(tmp_path):
    from contactctl.geometry import rotation_about_axis
    from contactctl.sensing import gravity_model, save_calibration_csv
    x, y = np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])
    orients = np.array([np.eye(3), rotation_about_axis(x, np.pi / 2),
                        rotation_about_axis(y, np.pi / 2),
                        rotation_about_axis(x, np.pi / 4) @ rotation_about_axis(y, np.pi / 3)])
    path = tmp_path / "four.csv"
    save_calibration_csv(path, orients, gravity_model(0.4, [0.01, 0.02, 0.03],
                                                      np.zeros(6), orients))
    code = run_cli("calibrate", "--samples", str(path),
                   "--out", str(tmp_path / "p.ini"))
    assert code == 0


# ---------------------------------------------------------------------------
# validate / inspect

def test_validate_good_episode(tmp_path, capsys):
    code = run_cli("run", "--config", "configs/selective_release.ini",
                   "--out", str(tmp_path), "--trials", "2", "--quiet")
    assert code == 0
    episode_dir = tmp_path / "episode_with_tactile"
    assert run_cli("validate", "--episode", str(episode_dir)) == 0


def test_validate_tampered_episode(tmp_path, capsys):
    run_cli("run", "--config", "configs/selective_release.ini",
            "--out", str(tmp_path), "--trials", "2", "--quiet")
    episode_dir = tmp_path / "episode_with_tactile"
    path = episode_dir / "gripper.csv"
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli("validate", "--episode", str(episode_dir))
    out = capsys.readouterr().out
    assert code == 1
    assert "gripper" in out and "non-monotonic" in out
    # inspect and plot-data read the episode the same way
    assert run_cli("inspect", "--episode", str(episode_dir)) == 1
    assert "non-monotonic" in capsys.readouterr().err
    assert run_cli("plot-data", "--episode", str(episode_dir), "--kind",
                   "tactile-norm", "--out", str(tmp_path / "plots")) == 1


def test_validate_missing_dir(tmp_path):
    assert run_cli("validate", "--episode", str(tmp_path / "nope")) == 2


def test_inspect_episode(capsys):
    code = run_cli("inspect", "--episode", "tests/data/golden_episode")
    out = capsys.readouterr().out
    assert code == 0
    assert "golden" in out and "pose" in out and "gripper" in out


def test_header_only_episode_validates_and_inspects(tmp_path, capsys):
    episode_dir = tmp_path / "empty"
    shutil.copytree("tests/data/golden_episode", episode_dir)
    for path in episode_dir.glob("*.csv"):
        path.write_text(path.read_text().splitlines()[0] + "\n")
    assert run_cli("validate", "--episode", str(episode_dir)) == 0
    capsys.readouterr()
    assert run_cli("inspect", "--episode", str(episode_dir)) == 0
    out = capsys.readouterr().out
    assert "span: empty" in out
    assert out.count("rows=0") == 2


# ---------------------------------------------------------------------------
# plot-data

def test_plot_data_tactile_norm(tmp_path, capsys):
    run_cli("run", "--config", "configs/selective_release.ini",
            "--out", str(tmp_path), "--trials", "2", "--quiet")
    episode_dir = tmp_path / "episode_with_tactile"
    code = run_cli("plot-data", "--episode", str(episode_dir),
                   "--kind", "tactile-norm", "--out", str(tmp_path / "plots"))
    assert code == 0
    data = (tmp_path / "plots" / "tactile_norm.csv").read_text().splitlines()
    assert data[0] == "t,marker_norm"
    # recompute oracle: norms equal marker_motion_magnitude of the stream rows
    from contactctl.sensing import marker_motion_magnitude
    episode = load_episode(episode_dir)
    rows = episode.values("tactile")
    for line, row in zip(data[1:], rows):
        t, norm = (float(v) for v in line.split(","))
        assert abs(norm - marker_motion_magnitude(row)) < 1e-12


def test_plot_data_grasp_force(tmp_path):
    run_cli("run", "--config", "configs/bilateral_quality.ini",
            "--out", str(tmp_path), "--quiet")
    code = run_cli("plot-data", "--episode", str(tmp_path / "episode_default"),
                   "--kind", "grasp-force")
    assert code == 0
    assert (tmp_path / "episode_default" / "grasp_force.csv").exists()


def test_plot_data_grasp_force_of_a_reference_stream_is_criteria_failure(
        tmp_path, capsys):
    # a gripper stream of image references has no numbers to plot, even
    # with an f_int column; the figure is refused, not written as text
    episode = Episode("refs", [StreamSpec("gripper", 100.0, ("f_int",), "image_ref")])
    episode.record("gripper", 0.0, ["a.png"])
    export_csv(episode, tmp_path / "ep")
    code = run_cli("plot-data", "--episode", str(tmp_path / "ep"),
                   "--kind", "grasp-force", "--out", str(tmp_path / "plots"))
    assert code == 1
    assert "cannot make the grasp-force figure" in capsys.readouterr().err
    assert not (tmp_path / "plots" / "grasp_force.csv").exists()


def test_plot_data_gravity_comp(tmp_path):
    run_cli("run", "--config", "configs/gravity_verification.ini",
            "--out", str(tmp_path), "--trials", "2", "--quiet")
    code = run_cli("plot-data", "--episode", str(tmp_path / "episode_default"),
                   "--kind", "gravity-comp")
    assert code == 0
    header = (tmp_path / "episode_default" / "gravity_comp.csv").read_text().splitlines()[0]
    assert header == "t,fx_raw,fy_raw,fz_raw,fx_comp,fy_comp,fz_comp"


def test_plot_data_fz_wiping(tmp_path):
    code = run_cli("run", "--config", "configs/wiping.ini",
                   "--out", str(tmp_path), "--trials", "1", "--quiet")
    assert code == 0
    episode_dir = tmp_path / "episode_with_wrench"
    code = run_cli("plot-data", "--episode", str(episode_dir),
                   "--kind", "fz-wiping", "--out", str(tmp_path / "plots"))
    assert code == 0
    lines = (tmp_path / "plots" / "fz_wiping.csv").read_text().splitlines()
    assert lines[0] == "t,fz_raw,fz_compensated"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # mid-wipe the compensated world-frame normal force sits near the target
    mid = data[len(data) // 2]
    assert 6.0 < mid[2] < 13.0
    # controller diagnostics stream written alongside the episode
    diag = (tmp_path / "diagnostics_with_wrench.csv").read_text().splitlines()
    assert diag[0] == "t,error_norm,contact_force_norm,stiffness_clamped,limits_clamped"
    assert len(diag) == len(data) + 1   # one row per control tick


def test_plot_data_writes_the_csv_writer_bytes(tmp_path, rng):
    # every figure kind writes the bytes csv.writer writes for its plotter's
    # rows, each value as repr(float(v)); a numpy float left in a row would
    # be written as "np.float64(...)" in numpy 2
    wrench = ("fx", "fy", "fz", "tx", "ty", "tz")
    episode = Episode("plots", [
        StreamSpec("pose", 200.0, ("px", "py", "pz") + tuple(f"r6_{i}" for i in range(6)),
                   "pose"),
        StreamSpec("wrench_raw", 1000.0, wrench, "wrench"),
        StreamSpec("wrench_ee", 1000.0, wrench, "wrench"),
        StreamSpec("tactile", 30.0, tuple(f"m{i}" for i in range(126)), "tactile"),
        StreamSpec("gripper", 100.0, ("width", "f_int"), "gripper")])
    t = np.arange(50) / 1000.0
    episode.record_block("pose", t[::5], np.hstack([
        rng.normal(size=(10, 3)),
        [encode_rot6d_rows(random_rotation(rng)) for _ in range(10)]]))
    raw = rng.normal(size=(50, 6))
    raw[3] = [-0.0, 1.0, 2.0, 0.0, 3.0, -4.0]   # signed zero, integral values
    episode.record_block("wrench_raw", t, raw)
    episode.record_block("wrench_ee", t, rng.normal(size=(50, 6)))
    episode.record_block("tactile", t[::10], rng.normal(size=(5, 126)))
    episode.record_block("gripper", t[::5], np.column_stack([np.zeros(10), t[::5] * 1e3]))
    export_csv(episode, tmp_path / "ep")
    loaded = load_episode(tmp_path / "ep")
    for kind, plotter in cli._PLOTTERS.items():
        assert run_cli("plot-data", "--episode", str(tmp_path / "ep"), "--kind", kind,
                       "--out", str(tmp_path / "plots")) == 0
        name, header, rows = plotter(loaded)
        assert (tmp_path / "plots" / f"{name}.csv").read_bytes() \
            == episode_csv_oracle.float_table_bytes(header, rows)


def test_plot_data_tactile_of_wrong_width_is_criteria_failure(tmp_path, capsys):
    episode = Episode("narrow", [StreamSpec("tactile", 30.0,
                                            tuple(f"m{i}" for i in range(125)),
                                            "tactile")])
    episode.record_block("tactile", [0.0, 0.1], np.ones((2, 125)))
    export_csv(episode, tmp_path / "ep")
    assert run_cli("validate", "--episode", str(tmp_path / "ep")) == 0
    capsys.readouterr()
    code = run_cli("plot-data", "--episode", str(tmp_path / "ep"),
                   "--kind", "tactile-norm", "--out", str(tmp_path / "plots"))
    assert code == 1
    assert "126" in capsys.readouterr().err
    assert not (tmp_path / "plots" / "tactile_norm.csv").exists()


@pytest.mark.parametrize("kind,streams,header", [
    ("tactile-norm", [StreamSpec("tactile", 30.0, tuple(f"m{i}" for i in range(126)),
                                 "tactile")], "t,marker_norm"),
    ("gravity-comp", [StreamSpec(name, 100.0, ("fx", "fy", "fz", "tx", "ty", "tz"),
                                 "wrench") for name in ("wrench_raw", "wrench_ee")],
     "t,fx_raw,fy_raw,fz_raw,fx_comp,fy_comp,fz_comp")])
def test_plot_data_of_header_only_streams_writes_the_header(tmp_path, kind, streams,
                                                            header):
    export_csv(Episode("empty", streams), tmp_path / "ep")
    assert run_cli("plot-data", "--episode", str(tmp_path / "ep"), "--kind", kind,
                   "--out", str(tmp_path / "plots")) == 0
    (written,) = (tmp_path / "plots").iterdir()
    assert written.read_text().splitlines() == [header]


def test_plot_data_wrench_before_first_pose_is_criteria_failure(tmp_path, capsys):
    wrench = ("fx", "fy", "fz", "tx", "ty", "tz")
    episode = Episode("late_pose", [
        StreamSpec("pose", 200.0, ("px", "py", "pz") + tuple(f"r6_{i}" for i in range(6)),
                   "pose"),
        StreamSpec("wrench_raw", 1000.0, wrench, "wrench"),
        StreamSpec("wrench_ee", 1000.0, wrench, "wrench")])
    t = np.arange(10) / 1000.0
    episode.record_block("pose", t[5:], np.tile([0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
                                                 0.0, 1.0, 0.0], (5, 1)))
    episode.record_block("wrench_raw", t, np.ones((10, 6)))
    episode.record_block("wrench_ee", t, np.ones((10, 6)))
    export_csv(episode, tmp_path / "ep")
    assert run_cli("validate", "--episode", str(tmp_path / "ep")) == 0
    capsys.readouterr()
    code = run_cli("plot-data", "--episode", str(tmp_path / "ep"),
                   "--kind", "fz-wiping", "--out", str(tmp_path / "plots"))
    assert code == 1
    assert "precedes first sample" in capsys.readouterr().err
    assert not (tmp_path / "plots" / "fz_wiping.csv").exists()


POSE_SCHEMA = ("px", "py", "pz") + tuple(f"r6_{i}" for i in range(6))
WRENCH_SCHEMA = ("fx", "fy", "fz", "tx", "ty", "tz")


def fz_episode(pose_t, pose, raw_t, raw, comp_t, comp) -> Episode:
    """An episode with the three streams fz-wiping reads, from (times, rows)."""
    episode = Episode("fz", [StreamSpec("pose", 200.0, POSE_SCHEMA, "pose"),
                             StreamSpec("wrench_raw", 1000.0, WRENCH_SCHEMA, "wrench"),
                             StreamSpec("wrench_ee", 1000.0, WRENCH_SCHEMA, "wrench")])
    for name, t, rows, width in (("pose", pose_t, pose, 9), ("wrench_raw", raw_t, raw, 6),
                                 ("wrench_ee", comp_t, comp, 6)):
        episode.record_block(name, t, np.reshape(np.asarray(rows, dtype=float),
                                                 (len(t), width)))
    return episode


def _fz_outcome(plot, episode):
    """float.hex of a plotter's rows, or the exception it raises."""
    try:
        with np.errstate(all="ignore"):   # inf and nan wrench values
            return [[v.hex() for v in row] for row in plot(episode)]
    except Exception as exc:   # the oracle's exception, whatever it is
        return (type(exc).__name__, str(exc))


def _new_fz_rows(episode):
    name, header, rows = cli._plot_fz_wiping(episode)
    assert (name, header) == ("fz_wiping", ["t", "fz_raw", "fz_compensated"])
    return rows


VEC3 = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)
WRENCH_VALUE = st.one_of(st.floats(-1e3, 1e3),
                         st.sampled_from([math.nan, math.inf, -0.0, 1e300]))


@st.composite
def pose_rows(draw):
    """A pose row whose 6D rotation may be degenerate either way."""
    a1 = draw(VEC3)
    kind = draw(st.sampled_from(["free", "free", "free", "zero", "parallel"]))
    if kind == "zero":
        a1 = [0.0, 0.0, draw(st.sampled_from([0.0, 1e-9]))]
    a2 = [-2.5 * v for v in a1] if kind == "parallel" else draw(VEC3)
    return [0.0, 0.0, 0.0] + a1 + a2


@st.composite
def fz_streams(draw):
    """Arguments of fz_episode; wrench_ee has at least wrench_raw's rows."""
    ticks = st.lists(st.integers(0, 60), unique=True)
    pose_t = sorted(draw(ticks.filter(bool)))[:8]
    raw_t = sorted(draw(ticks))[:30]
    comp_n = len(raw_t) + draw(st.integers(0, 2))
    wrench = st.lists(WRENCH_VALUE, min_size=6, max_size=6)
    return ([t / 1000.0 for t in pose_t], [draw(pose_rows()) for _ in pose_t],
            [t / 1000.0 for t in raw_t], [draw(wrench) for _ in raw_t],
            [t / 1000.0 for t in range(comp_n)], [draw(wrench) for _ in range(comp_n)])


@settings(max_examples=75, deadline=None)
@given(fz_streams())
def test_fz_wiping_gets_the_per_row_oracle_bits(streams):
    # the same bits, or the same error, as one wrench row at a time: the
    # hold, the first degenerate pose's message and each product
    episode = fz_episode(*streams)
    assert _fz_outcome(_new_fz_rows, episode) \
        == _fz_outcome(plot_oracle.fz_wiping_rows, episode)


def test_fz_wiping_of_a_long_episode_gets_the_per_row_oracle_bits(rng):
    n = 4000
    poses = [encode_rot6d_rows(random_rotation(rng)) for _ in range(n // 5)]
    t = np.arange(n) / 1000.0
    scale = 10.0 ** rng.integers(-3, 4, (n, 1))   # forces over seven decades
    episode = fz_episode(t[::5] - 2e-4, np.hstack([rng.normal(size=(n // 5, 3)), poses]),
                         t, rng.normal(0.0, 5.0, (n, 6)),
                         t, rng.normal(0.0, 5.0, (n, 6)) * scale)
    assert _fz_outcome(_new_fz_rows, episode) \
        == _fz_outcome(plot_oracle.fz_wiping_rows, episode)


@pytest.mark.parametrize("comp_rows", [3, 1, 5, 8])
def test_plot_data_fz_wiping_pairs_wrench_rows_by_index(tmp_path, capsys, comp_rows):
    # wrench_ee row i goes with wrench_raw row i; a wrench_ee stream with
    # fewer rows cannot make the figure, and a longer one has rows left over
    t = np.arange(8) / 1000.0
    identity = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    episode = fz_episode(t[:1], [identity], t[:5], np.arange(30.0).reshape(5, 6),
                         t[:comp_rows], -np.arange(comp_rows * 6.0).reshape(comp_rows, 6))
    export_csv(episode, tmp_path / "ep")
    code = run_cli("plot-data", "--episode", str(tmp_path / "ep"),
                   "--kind", "fz-wiping", "--out", str(tmp_path / "plots"))
    written = tmp_path / "plots" / "fz_wiping.csv"
    if comp_rows < 5:
        assert code == 1
        assert f"wrench_ee has fewer rows ({comp_rows}) than wrench_raw (5)" \
            in capsys.readouterr().err
        assert not written.exists()
    else:
        assert code == 0
        assert written.read_bytes() == episode_csv_oracle.float_table_bytes(
            ["t", "fz_raw", "fz_compensated"], plot_oracle.fz_wiping_rows(episode))
        assert written.read_text().splitlines()[-1] == "0.004,26.0,-26.0"


def test_plot_data_fz_wiping_of_a_narrow_pose_is_criteria_failure(tmp_path, capsys):
    t = np.arange(2) / 1000.0
    episode = Episode("narrow", [
        StreamSpec("pose", 200.0, ("px", "py", "pz"), "pose"),
        StreamSpec("wrench_raw", 1000.0, WRENCH_SCHEMA, "wrench"),
        StreamSpec("wrench_ee", 1000.0, WRENCH_SCHEMA, "wrench")])
    episode.record_block("pose", t, np.ones((2, 3)))
    for name in ("wrench_raw", "wrench_ee"):
        episode.record_block(name, t, np.ones((2, 6)))
    export_csv(episode, tmp_path / "ep")
    code = run_cli("plot-data", "--episode", str(tmp_path / "ep"),
                   "--kind", "fz-wiping", "--out", str(tmp_path / "plots"))
    assert code == 1
    assert "pose has 3 columns, fewer than the 9" in capsys.readouterr().err


def test_plot_data_fz_wiping_names_the_first_degenerate_pose(tmp_path, capsys):
    # a near-parallel pose before a pose with a zero first vector: the
    # earlier pose names its own fault, as a row-by-row decode would
    t = np.arange(3) / 1000.0
    poses = [[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 4.0, 6.0],
             [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]
    episode = fz_episode(t, poses, t, np.ones((3, 6)), t, np.ones((3, 6)))
    export_csv(episode, tmp_path / "ep")
    code = run_cli("plot-data", "--episode", str(tmp_path / "ep"),
                   "--kind", "fz-wiping", "--out", str(tmp_path / "plots"))
    assert code == 1
    err = capsys.readouterr().err
    assert "vectors near parallel" in err and "first vector near zero" not in err
    assert _fz_outcome(_new_fz_rows, episode) \
        == _fz_outcome(plot_oracle.fz_wiping_rows, episode)


# ---------------------------------------------------------------------------
# a 6D pair that decodes to no rotation, through every reader

NOT_A_ROTATION = r"rotation (not orthonormal|determinant)"


def _read_chain_key(tmp_path, capsys, pair, section, key):
    text = Path("configs/chains/planar3.ini").read_text()
    head, rest = text.split(f"[{section}]")
    old = f"{key} = 1 0 0 0 1 0"
    assert old in rest
    path = tmp_path / "planar3.ini"
    path.write_text(f"{head}[{section}]"
                    + rest.replace(old, f"{key} = " + " ".join(map(repr, pair)), 1))
    with pytest.raises(ChainConfigError, match=f"{section} {key}: {NOT_A_ROTATION}"):
        load_arm_model(path)


def _read_action_row(tmp_path, capsys, pair):
    rows = np.zeros((3, 13))
    rows[:, 3:9], rows[:, 12] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0], 0.05
    rows[1, 3:9] = pair
    with pytest.raises(GeometryError, match=NOT_A_ROTATION):
        compile_step(rows, Pose.identity(), StiffnessSchedule())


def _read_calibration_row(tmp_path, capsys, pair):
    lines = Path(GOLDEN_CAL).read_text().splitlines()
    lines[3] = ",".join(list(map(repr, pair)) + lines[3].split(",")[6:])
    path = tmp_path / "cal.csv"
    path.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "p.ini"
    assert run_cli("calibrate", "--samples", str(path), "--out", str(out_path)) == 2
    assert re.search(f"{path}:4: {NOT_A_ROTATION}", capsys.readouterr().err)
    assert not out_path.exists()


def _read_episode_pose(tmp_path, capsys, pair):
    t = np.arange(2) / 1000.0
    poses = [[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, *pair]]
    export_csv(fz_episode(t, poses, t, np.ones((2, 6)), t, np.ones((2, 6))),
               tmp_path / "ep")
    code = run_cli("plot-data", "--episode", str(tmp_path / "ep"),
                   "--kind", "fz-wiping", "--out", str(tmp_path / "plots"))
    assert code == 1
    assert re.search(f"cannot make the fz-wiping figure: {NOT_A_ROTATION}",
                     capsys.readouterr().err)
    assert not (tmp_path / "plots" / "fz_wiping.csv").exists()


@pytest.mark.parametrize("read", [
    partial(_read_chain_key, section="chain", key="tool_rot6d"),
    partial(_read_chain_key, section="joint.2", key="offset_rot6d"),
    _read_action_row, _read_calibration_row, _read_episode_pose],
    ids=["chain_tool_rot6d", "chain_offset_rot6d", "action_row", "calibration_row",
         "episode_pose"])
def test_every_reader_rejects_a_6d_pair_that_is_no_rotation(tmp_path, capsys, rng,
                                                             read):
    # the pair passes decode's near-zero and near-parallel tests but decodes
    # to a matrix off orthonormal by more than 1e-9; every reader of 6D
    # pairs rejects it where it decodes it
    read(tmp_path, capsys, near_parallel_rows(rng, 1)[0].tolist())


def test_plot_data_unknown_kind(tmp_path, capsys):
    code = run_cli("plot-data", "--episode", "tests/data/golden_episode",
                   "--kind", "hologram")
    assert code == 2


def test_plot_data_missing_stream(tmp_path, capsys):
    code = run_cli("plot-data", "--episode", "tests/data/golden_episode",
                   "--kind", "tactile-norm")
    assert code == 1
    assert "tactile" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# list

def test_list_configs(capsys):
    code = run_cli("list", "--configs", "configs")
    out = capsys.readouterr().out
    assert code == 0
    for name in ("gravity_verification", "wiping", "bottle_pick",
                 "selective_release", "bilateral_quality"):
        assert name in out


def test_list_names_configs_it_skips(tmp_path, capsys):
    # a config that fails to load is named on stderr, not silently left out
    shutil.copy("configs/selective_release.ini", tmp_path / "good.ini")
    (tmp_path / "typo.ini").write_text(
        Path("configs/selective_release.ini").read_text()
        .replace("dt = 0.01", "dt_typo = 0.01"))
    assert run_cli("list", "--configs", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "good.ini" in captured.out and "typo.ini" not in captured.out
    assert f"skipped {tmp_path / 'typo.ini'}: " in captured.err
    assert "[release] dt_typo" in captured.err


def test_list_missing_reports_directory_is_usage_error(tmp_path, capsys):
    # as for --configs: a missing directory exits 2, an empty one exits 0
    missing = tmp_path / "nonexistent"
    assert run_cli("list", "--reports", str(missing)) == 2
    assert f"reports directory not found: {missing}" in capsys.readouterr().err
    assert run_cli("list", "--reports", str(tmp_path)) == 0
    assert f"no reports under {tmp_path}" in capsys.readouterr().out


def test_python_m_contactctl_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "contactctl", "list",
                           "--configs", "configs"],
                          capture_output=True, text=True, timeout=120, cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert "wiping" in proc.stdout and "bottle_pick" in proc.stdout


def test_list_reports_prints_the_summary_that_run_writes(tmp_path, capsys):
    # the report files sort by name, width_only before with_force; the table
    # lists the variants in the order run wrote them to summary.txt
    assert run_cli("run", "--config", "configs/bottle_pick.ini",
                   "--out", str(tmp_path / "r"), "--trials", "2", "--quiet") == 0
    capsys.readouterr()
    assert run_cli("list", "--reports", str(tmp_path)) == 0
    assert (tmp_path / "r" / "summary.txt").read_text() in capsys.readouterr().out


def test_list_reports_prints_one_table_per_directory(tmp_path, capsys):
    # two seeds of one config in two directories are two tables, each headed
    # by its directory, not one table of four unlabelled rows
    for seed in ("1", "2"):
        assert run_cli("run", "--config", "configs/bottle_pick.ini", "--seed", seed,
                       "--out", str(tmp_path / seed), "--trials", "2", "--quiet") == 0
    capsys.readouterr()
    assert run_cli("list", "--reports", str(tmp_path)) == 0
    out = capsys.readouterr().out
    for seed in ("1", "2"):
        summary = (tmp_path / seed / "summary.txt").read_text()
        assert f"== bottle_pick in {tmp_path / seed} ==\n{summary}" in out
    assert out.count("with grasping force") == 2


def test_list_reports_names_a_report_of_no_declared_variant(tmp_path, capsys):
    assert run_cli("run", "--config", "configs/gravity_verification.ini",
                   "--out", str(tmp_path), "--trials", "2", "--quiet") == 0
    report = json.loads((tmp_path / "report_default.json").read_text())
    report["variant"] = "other"
    (tmp_path / "report_other.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert run_cli("list", "--reports", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "[default]" in captured.out and "[other]" not in captured.out
    assert f"skipped {tmp_path / 'report_other.json'}: " in captured.err


def test_list_reports_names_and_skips_a_malformed_report(tmp_path, capsys):
    assert run_cli("run", "--config", "configs/gravity_verification.ini",
                   "--out", str(tmp_path), "--trials", "2", "--quiet") == 0
    report = json.loads((tmp_path / "report_default.json").read_text())
    bad = {"extra": json.dumps({**report, "extra": 1}),
           "no_metrics": json.dumps({k: v for k, v in report.items() if k != "metrics"}),
           "list": json.dumps([report]),
           "text": "not json"}
    for name, text in bad.items():
        (tmp_path / f"report_{name}.json").write_text(text)
    capsys.readouterr()
    assert run_cli("list", "--reports", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "[default]" in captured.out
    for name in bad:
        assert f"skipped {tmp_path / f'report_{name}.json'}: " in captured.err


def test_list_reports_renders_table(tmp_path, capsys):
    run_cli("run", "--config", "configs/selective_release.ini",
            "--out", str(tmp_path / "r"), "--trials", "2", "--quiet")
    capsys.readouterr()
    code = run_cli("list", "--configs", "configs", "--reports", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "selective" in out
