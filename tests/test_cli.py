import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contactctl.cli import main
from contactctl.episodes import load_episode
from contactctl.sensing import load_payload


GOLDEN_CAL = "tests/data/calibration_golden.csv"


def run_cli(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# run

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
     ("bilateral_quality", "kp = 5.0", "kp = -1")],
    ids=["k_min_above_k_max", "zero_ik_damping", "plant_dt_above_step_bound",
         "bottle_dt_above_step_bound", "quality_dt_above_step_bound",
         "bottle_negative_gripper_kp", "quality_negative_gripper_kp"])
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
    assert "error:" in capsys.readouterr().err


def test_run_failure_exit_code(tmp_path):
    # impossible criterion: baseline forced to require selective success
    src = Path("configs/selective_release.ini").read_text()
    bad = tmp_path / "degenerate.ini"
    bad.write_text(src.replace("outer_gap = 0.006", "outer_gap = 0.0"))
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


def test_calibrate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = run_cli("calibrate", "--samples", str(empty),
                   "--out", str(tmp_path / "p.ini"))
    assert code == 2


def test_calibrate_rank_deficient(tmp_path, capsys):
    from contactctl.sensing import CalibrationSample, gravity_model, save_calibration_csv
    samples = [CalibrationSample(np.eye(3),
                                 gravity_model(0.3, [0.01, 0, 0], np.zeros(6),
                                               np.eye(3)))
               for _ in range(6)]
    path = tmp_path / "flat.csv"
    save_calibration_csv(path, samples)
    code = run_cli("calibrate", "--samples", str(path),
                   "--out", str(tmp_path / "p.ini"))
    assert code == 1
    assert "unobservable" in capsys.readouterr().err


def test_calibrate_minimum_four_poses(tmp_path):
    from contactctl.geometry import rotation_about_axis
    from contactctl.sensing import CalibrationSample, gravity_model, save_calibration_csv
    x, y = np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])
    orients = [np.eye(3), rotation_about_axis(x, np.pi / 2),
               rotation_about_axis(y, np.pi / 2),
               rotation_about_axis(x, np.pi / 4) @ rotation_about_axis(y, np.pi / 3)]
    samples = [CalibrationSample(r, gravity_model(0.4, [0.01, 0.02, 0.03],
                                                  np.zeros(6), r))
               for r in orients]
    path = tmp_path / "four.csv"
    save_calibration_csv(path, samples)
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


def test_python_m_contactctl_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "contactctl", "list",
                           "--configs", "configs"],
                          capture_output=True, text=True, timeout=120, cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert "wiping" in proc.stdout and "bottle_pick" in proc.stdout


def test_list_reports_renders_table(tmp_path, capsys):
    run_cli("run", "--config", "configs/selective_release.ini",
            "--out", str(tmp_path / "r"), "--trials", "2", "--quiet")
    capsys.readouterr()
    code = run_cli("list", "--configs", "configs", "--reports", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "selective" in out
