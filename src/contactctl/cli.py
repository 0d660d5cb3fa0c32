"""Command-line front end: run scenarios, calibrate payloads, inspect data.

Exit codes are a stable contract: 0 success, 1 criteria/validation failure,
2 usage or config error, 3 runtime fault. All outputs are deterministic
given config and seed; the seed used is printed in every run header.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .episodes import (EpisodeError, load_episode, validate_episode_dir,
                       write_float_rows)
from .geometry import GeometryError, decode_rot6d_rows
from .sensing import (IdentificationError, identify_payload,
                      load_calibration_csv, marker_motion_magnitude,
                      save_payload)
from .scenarios import (KINDS, ScenarioConfigError, load_report,
                        load_scenario_config, run_scenario, summary_table)

OUTPUT_ROOT_ENV = "CONTACTCTL_OUT"

EXIT_OK = 0
EXIT_CRITERIA = 1
EXIT_USAGE = 2
EXIT_FAULT = 3


def _default_out_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "out"))


def _cmd_run(args) -> int:
    try:
        config = load_scenario_config(args.config, args.seed, args.trials)
    except (ScenarioConfigError, OSError) as exc:
        print(f"error: cannot load scenario config {args.config}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out) if args.out else _default_out_root() / config.scenario_id
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.quiet:
        print(f"running {config.scenario_id} (kind={config.kind}, "
              f"seed={config.seed}, trials={config.trials})")
    reports = run_scenario(config, out_dir)
    for report in reports:
        report.save(out_dir)
        if not args.quiet:
            print("\n".join(report.summary_lines()))
    table = summary_table(reports)
    (out_dir / "summary.txt").write_text(table + "\n")
    if not args.quiet and KINDS[config.kind].TABLE is not None:
        print(table)   # without one, the table is the lines printed above
    return EXIT_OK if all(r.success for r in reports) else EXIT_CRITERIA


def _cmd_calibrate(args) -> int:
    try:
        orientations, readings = load_calibration_csv(args.samples)
    except FileNotFoundError:
        print(f"error: samples file not found: {args.samples}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:   # a directory, or no permission to read
        print(f"error: cannot read samples file {args.samples}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except (IdentificationError, ValueError) as exc:
        print(f"error: cannot parse {args.samples}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload = identify_payload(orientations, readings)
    except IdentificationError as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        return EXIT_CRITERIA
    save_payload(args.out, payload)
    print(f"identified payload from {len(readings)} poses:")
    print(f"  mass      = {payload.mass:.6f} kg")
    print(f"  com       = {payload.com[0]:.6f} {payload.com[1]:.6f} "
          f"{payload.com[2]:.6f} m")
    print("  bias      = " + " ".join(f"{v:.6f}" for v in payload.bias))
    print("  residual  = " + " ".join(f"{v:.6g}" for v in payload.residual_rms))
    print(f"written to {args.out}")
    return EXIT_OK


def _read_episode_arg(args, read):
    """Return (read(--episode dir), EXIT_OK), or (None, EXIT_USAGE) for a
    missing directory and (None, EXIT_CRITERIA) for an invalid episode."""
    episode_dir = Path(args.episode)
    if not episode_dir.exists():
        print(f"error: episode directory not found: {episode_dir}", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        return read(episode_dir), EXIT_OK
    except EpisodeError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return None, EXIT_CRITERIA


def _cmd_validate(args) -> int:
    violations, code = _read_episode_arg(args, validate_episode_dir)
    if code != EXIT_OK:
        return code
    if violations:
        for v in violations:
            print(f"violation: {v}")
        print(f"{len(violations)} violation(s) in {args.episode}")
        return EXIT_CRITERIA
    print(f"{args.episode}: valid")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    episode, code = _read_episode_arg(args, load_episode)
    if code != EXIT_OK:
        return code
    print(f"episode {episode.episode_id}  config_hash={episode.config_hash}")
    try:
        start, end = episode.span()
        print(f"span: {start:.6f} .. {end:.6f} s")
    except EpisodeError:   # no stream holds a row
        print("span: empty")
    for name, spec in episode.streams.items():
        rows = len(episode.rows(name))
        print(f"  {name:12s} kind={spec.kind:9s} rate={spec.rate_hz:g} Hz "
              f"rows={rows} columns={len(spec.schema)}")
    return EXIT_OK


def _plot_fz_wiping(episode) -> tuple:
    for required in ("wrench_raw", "wrench_ee", "pose"):
        if required not in episode.streams:
            raise KeyError(required)
    header = ["t", "fz_raw", "fz_compensated"]
    t = episode.times("wrench_raw")
    raw = episode.values("wrench_raw")
    comp = episode.values("wrench_ee")
    if not len(t):
        return "fz_wiping", header, []
    episode.align(float(t[0]), ["pose"])   # raises if no pose comes first
    if len(comp) < len(t):
        raise ValueError(f"wrench_ee has fewer rows ({len(comp)}) than "
                         f"wrench_raw ({len(t)})")
    pose = episode.values("pose")
    if pose.shape[1] < 9:
        raise ValueError(f"pose has {pose.shape[1]} columns, fewer than the 9 of "
                         "a position and a 6D rotation")
    # each wrench row takes the last pose at or before it (zero-order hold)
    held = np.searchsorted(episode.times("pose"), t, side="right") - 1
    used, row_pose = np.unique(held, return_inverse=True)
    r6 = pose[used, 3:9]
    try:
        rotations = decode_rot6d_rows(r6[:, :3], r6[:, 3:])
    except GeometryError:
        for a in r6:   # the first bad pose in time order names its own fault
            decode_rot6d_rows(a[:3], a[3:])
        raise
    forces = np.stack([raw[:, :3], comp[:len(t), :3]])[..., None]
    fz = (rotations[row_pose] @ forces)[..., 2, 0]   # a row's bits of r @ f alone
    return "fz_wiping", header, np.column_stack([t, fz[0], fz[1]]).tolist()


def _plot_tactile_norm(episode) -> tuple:
    if "tactile" not in episode.streams:
        raise KeyError("tactile")
    rows = np.column_stack([episode.times("tactile"),
                            marker_motion_magnitude(episode.values("tactile"))])
    return "tactile_norm", ["t", "marker_norm"], rows.tolist()


def _plot_grasp_force(episode) -> tuple:
    if "gripper" not in episode.streams:
        raise KeyError("gripper")
    spec = episode.streams["gripper"]
    if "f_int" not in spec.schema:
        raise KeyError("gripper.f_int")
    idx = spec.schema.index("f_int")
    rows = [[t, row[idx]] for t, row
            in zip(episode.times("gripper").tolist(), episode.rows("gripper"))]
    return "grasp_force", ["t", "f_int"], rows


def _plot_gravity_comp(episode) -> tuple:
    for required in ("wrench_raw", "wrench_ee"):
        if required not in episode.streams:
            raise KeyError(required)
    rows = np.column_stack([episode.times("wrench_raw"),
                            episode.values("wrench_raw")[:, :3],
                            episode.values("wrench_ee")[:, :3]]).tolist()
    return "gravity_comp", ["t", "fx_raw", "fy_raw", "fz_raw",
                            "fx_comp", "fy_comp", "fz_comp"], rows


# figure kind -> plotter returning (file stem, header, rows of Python floats,
# since numpy 2 reprs a float64 as "np.float64(...)")
_PLOTTERS = {
    "fz-wiping": _plot_fz_wiping,
    "tactile-norm": _plot_tactile_norm,
    "grasp-force": _plot_grasp_force,
    "gravity-comp": _plot_gravity_comp,
}


def _cmd_plot_data(args) -> int:
    if args.kind not in _PLOTTERS:
        print(f"error: unknown figure kind {args.kind!r}; "
              f"choose from {', '.join(_PLOTTERS)}", file=sys.stderr)
        return EXIT_USAGE
    episode, code = _read_episode_arg(args, load_episode)
    if code != EXIT_OK:
        return code
    out_dir = Path(args.out or args.episode)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        name, header, rows = _PLOTTERS[args.kind](episode)
    except KeyError as exc:
        print(f"error: episode is missing stream {exc}", file=sys.stderr)
        return EXIT_CRITERIA
    except ValueError as exc:   # e.g. a stream too narrow or starting too late
        print(f"error: episode cannot make the {args.kind} figure: {exc}",
              file=sys.stderr)
        return EXIT_CRITERIA
    path = out_dir / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        write_float_rows(fh, rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_list(args) -> int:
    if args.reports:
        reports_dir = Path(args.reports)
        if not reports_dir.exists():
            print(f"error: reports directory not found: {reports_dir}", file=sys.stderr)
            return EXIT_USAGE
        paths = sorted(reports_dir.glob("**/report_*.json"))
        if not paths:
            print(f"no reports under {reports_dir}")
            return EXIT_OK
        by_run = {}   # one table per directory, as `run` wrote it
        for path in paths:
            rep = load_report(path)
            if rep.variant not in getattr(KINDS.get(rep.kind), "VARIANTS", ()):
                print(f"skipped {path}: {rep.kind} has no variant {rep.variant!r}",
                      file=sys.stderr)
                continue
            by_run.setdefault((path.parent, rep.scenario_id, rep.kind), []).append(rep)
        for (directory, scenario_id, _kind), reps in sorted(by_run.items()):
            print(f"== {scenario_id} in {directory} ==")
            print(summary_table(reps))
            print()
        return EXIT_OK
    configs_dir = Path(args.configs)
    if not configs_dir.exists():
        print(f"error: configs directory not found: {configs_dir}", file=sys.stderr)
        return EXIT_USAGE
    found = False
    for path in sorted(configs_dir.glob("*.ini")):
        try:
            config = load_scenario_config(path)
        except ScenarioConfigError as exc:
            print(f"skipped {path}: {exc}", file=sys.stderr)
            continue
        found = True
        print(f"{config.scenario_id:22s} kind={config.kind:20s} "
              f"seed={config.seed:<6d} trials={config.trials:<4d} {path}")
    if not found:
        print(f"no scenario configs under {configs_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactctl",
        description="Run contact-manipulation scenarios, calibrate payloads, "
                    "and inspect recorded episodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True, help="scenario .ini path")
    p_run.add_argument("--out", help="output directory "
                       f"(default ${OUTPUT_ROOT_ENV} or ./out/<id>)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--trials", type=int, help="override the trial count")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_cal = sub.add_parser("calibrate", help="identify a payload from samples")
    p_cal.add_argument("--samples", required=True, help="calibration CSV")
    p_cal.add_argument("--out", required=True, help="payload file to write")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_val = sub.add_parser("validate", help="validate an episode directory")
    p_val.add_argument("--episode", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_ins = sub.add_parser("inspect", help="summarize an episode directory")
    p_ins.add_argument("--episode", required=True)
    p_ins.set_defaults(func=_cmd_inspect)

    p_plot = sub.add_parser("plot-data", help="emit plot-ready CSVs")
    p_plot.add_argument("--episode", required=True)
    p_plot.add_argument("--kind", required=True,
                        help=f"one of {', '.join(_PLOTTERS)}")
    p_plot.add_argument("--out", help="output directory (default: episode dir)")
    p_plot.set_defaults(func=_cmd_plot_data)

    p_list = sub.add_parser("list", help="list scenario configs or summarize reports")
    p_list.add_argument("--configs", default="configs")
    p_list.add_argument("--reports", help="render summary tables from report files")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ScenarioConfigError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # runtime fault contract
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
