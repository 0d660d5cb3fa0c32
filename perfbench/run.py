#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of contactctl.

Run from the root of a contactctl checkout:

    python3 perfbench/run.py --workload wiping --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One run sets up the program several times in fresh interpreters (`setup_s`),
then runs operations of one workload in a closed loop, one at a time, until
`--seconds` have passed. Every operation's output is checked: scenario runs
against the goldens in `goldens.json`, synthetic episodes against the
value-exact round trip. `--trace 1` alternates untraced and traced operations
on the same inputs and reports the per-layer table of `tracing.PROBES` plus
the tracing overhead. The last line of standard output is one JSON object
with the run's metrics.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import COUNT, PROBES, Tracer, replace_everywhere

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("wiping", "gripper", "episode_io")

# (config, --trials) per `contactctl run` of an operation
WIPING_RUNS = (("configs/wiping.ini", 1),)
GRIPPER_RUNS = (("configs/bottle_pick.ini", 10),
                ("configs/selective_release.ini", 10),
                ("configs/bilateral_quality.ini", 1),
                ("configs/gravity_verification.ini", 100))
SCENARIO_RUNS = {"wiping": WIPING_RUNS, "gripper": GRIPPER_RUNS}

# scenario seeds with goldens; a workload seed picks an order over them
SEED_POOLS = {"wiping": range(1, 25), "gripper": range(1, 65)}

# synthetic episode of the episode_io workload
EPISODE_ROWS = 12000           # 1 kHz rows in each of the two wrench streams
POSE_STRIDE = 5                # 200 Hz pose stream
ACTION_STRIDE = 50             # 20 Hz action stream
CHUNK_LEN = 16
EPISODE_READS = 4              # load_episode, validate, inspect, plot-data

SETUP_PROBES = 7
SETUP_TIMEOUT_S = 120
# report metrics may drift by a few ulps through a refactor, never more
REL_TOL = 1e-9
ABS_TOL = 1e-12
P90_MIN_SAMPLES = 100          # p90 needs ten samples beyond it

# name -> first call into the workload's loop, which ends set-up
LOOP_ENTRY = {"wiping": ("contactctl.dynamics", "step"),
              "gripper": ("contactctl.bilateral", "step_bilateral"),
              "episode_io": ("contactctl.episodes", "Episode.record")}


def import_program():
    """Import contactctl from this checkout's src/, never from elsewhere."""
    if not (SRC / "contactctl" / "__init__.py").is_file():
        raise SystemExit(f"error: no contactctl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import contactctl.cli   # imports every module the probes name


def quiet_cli(argv):
    """contactctl.cli.main(argv) with its standard output captured."""
    cli = sys.modules["contactctl.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def run_argv(config, seed, trials, out_dir):
    return ["run", "--config", config, "--out", out_dir, "--seed", seed,
            "--trials", trials, "--quiet"]


def golden_key(config, seed, trials):
    return f"{config}|seed={seed}|trials={trials}"


def episode_rows(out_dir: Path) -> int:
    """Data rows in every episode CSV a scenario run exported."""
    rows = 0
    for path in sorted(out_dir.glob("episode_*/*.csv")):
        with open(path) as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


def scenario_outputs(out_dir: Path, code: int) -> dict:
    reports = {}
    for path in sorted(out_dir.glob("report_*.json")):
        with open(path) as fh:
            data = json.load(fh)
        reports[data["variant"]] = {"success": data["success"],
                                    "metrics": data["metrics"]}
    return {"exit": code, "reports": reports, "rows": episode_rows(out_dir)}


def compare_outputs(got: dict, want: dict) -> list:
    """Differences between a scenario run's outputs and its golden."""
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"exit {got['exit']} != {want['exit']}")
    if got["rows"] != want["rows"]:
        problems.append(f"episode rows {got['rows']} != {want['rows']}")
    if sorted(got["reports"]) != sorted(want["reports"]):
        problems.append(f"variants {sorted(got['reports'])} != {sorted(want['reports'])}")
        return problems
    for variant, ref in want["reports"].items():
        rep = got["reports"][variant]
        if rep["success"] != ref["success"]:
            problems.append(f"{variant}: success {rep['success']} != {ref['success']}")
        if sorted(rep["metrics"]) != sorted(ref["metrics"]):
            problems.append(f"{variant}: metric names differ")
            continue
        for name, value in ref["metrics"].items():
            if not math.isclose(rep["metrics"][name], value,
                                rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"{variant}: {name} {rep['metrics'][name]!r} != {value!r}")
    return problems


# ---------------------------------------------------------------------------
# operations

class ScenarioOp:
    """One operation: `contactctl run` on each config of the workload."""

    def __init__(self, workload, goldens, seed):
        self.runs = SCENARIO_RUNS[workload]
        self.goldens = goldens
        pool = list(SEED_POOLS[workload])
        random.Random(seed).shuffle(pool)
        self.pool = pool
        self.steps = sum(goldens["steps"][f"{cfg}|trials={trials}"]
                         for cfg, trials in self.runs)

    def inputs(self, i):
        return self.pool[i % len(self.pool)]

    def run(self, scenario_seed, work: Path):
        codes = []
        for k, (config, trials) in enumerate(self.runs):
            code, _ = quiet_cli(run_argv(config, scenario_seed, trials, work / str(k)))
            codes.append(code)
        return codes

    def check(self, scenario_seed, codes, work: Path):
        """(problems, episode rows written)."""
        problems, rows = [], 0
        for k, ((config, trials), code) in enumerate(zip(self.runs, codes)):
            got = scenario_outputs(work / str(k), code)
            want = self.goldens["runs"][golden_key(config, scenario_seed, trials)]
            problems += [f"{config} seed {scenario_seed}: {p}"
                         for p in compare_outputs(got, want)]
            rows += got["rows"]
        return problems, rows


def synthetic_episode_data(seed, i, n=EPISODE_ROWS):
    """Seeded n rows of 1 kHz wrench, with 200 Hz pose and 20 Hz action rows."""
    import numpy as np
    rng = np.random.default_rng([seed % 2**32, i])
    t = (np.arange(n) + 1) / 1000.0
    raw = rng.normal(0.0, 2.0, (n, 6)) + np.array([0.0, 0.0, -10.0, 0.0, 0.0, 0.0])
    comp = raw + rng.normal(0.0, 0.05, (n, 6))

    def rotations(m):
        q, r = np.linalg.qr(rng.normal(size=(m, 3, 3)))
        return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]

    n_pose = len(range(0, n, POSE_STRIDE))
    rot = rotations(n_pose)
    pose = np.hstack([0.4 + np.cumsum(rng.normal(0.0, 1e-4, (n_pose, 3)), axis=0),
                      rot[:, :, 0], rot[:, :, 1]])
    n_act = len(range(0, n, ACTION_STRIDE))
    arot = rotations(n_act)
    action = np.hstack([rng.normal(0.0, 1e-3, (n_act, 3)), arot[:, :, 0], arot[:, :, 1],
                        rng.normal(0.0, 5.0, (n_act, 3)),
                        rng.uniform(0.0, 0.08, (n_act, 1))])
    return {"t": t, "wrench_raw": raw, "wrench_ee": comp, "pose": pose,
            "action": action}


class EpisodeOp:
    """One operation: record, export, load, validate, inspect, plot, replay."""

    def __init__(self, seed):
        self.seed = seed
        self.steps = EPISODE_ROWS

    def inputs(self, i):
        return synthetic_episode_data(self.seed, i)

    def run(self, data, work: Path):
        from contactctl import episodes as ep_mod
        from contactctl.compliance import ACTION_SCHEMA
        wrench_schema = ("fx", "fy", "fz", "tx", "ty", "tz")
        pose_schema = ("px", "py", "pz", "r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5")
        episode = ep_mod.Episode(
            "synthetic", [ep_mod.StreamSpec("pose", 200.0, pose_schema, "pose"),
                          ep_mod.StreamSpec("wrench_raw", 1000.0, wrench_schema, "wrench"),
                          ep_mod.StreamSpec("wrench_ee", 1000.0, wrench_schema, "wrench"),
                          ep_mod.StreamSpec("action", 20.0, ACTION_SCHEMA, "action")],
            config_hash="synthetic")
        t = data["t"]
        for k in range(len(t)):
            tk = float(t[k])
            if k % ACTION_STRIDE == 0:
                episode.record("action", tk, data["action"][k // ACTION_STRIDE])
            if k % POSE_STRIDE == 0:
                episode.record("pose", tk, data["pose"][k // POSE_STRIDE])
            episode.record("wrench_raw", tk, data["wrench_raw"][k])
            episode.record("wrench_ee", tk, data["wrench_ee"][k])
        ep_dir = work / "episode"
        ep_mod.export_csv(episode, ep_dir)
        loaded = ep_mod.load_episode(ep_dir)
        violations = ep_mod.validate_episode_dir(ep_dir)
        inspect = quiet_cli(["inspect", "--episode", ep_dir])
        plot = quiet_cli(["plot-data", "--episode", ep_dir, "--kind", "fz-wiping",
                          "--out", work / "plot"])
        chunks = ep_mod.replay_actions(loaded, CHUNK_LEN)
        return episode, loaded, violations, inspect, plot, chunks

    def check(self, data, result, work: Path):
        episode, loaded, violations, inspect, plot, chunks = result
        problems = []
        for name in episode.streams:
            if list(loaded.times(name)) != list(episode.times(name)) \
                    or loaded.rows(name) != episode.rows(name):
                problems.append(f"stream {name}: CSV round trip is not value-exact")
        problems += [f"validate: {v}" for v in violations]
        if inspect[0] != 0:
            problems.append(f"inspect exit {inspect[0]}")
        for name in episode.streams:
            if f"rows={len(episode.rows(name))} " not in inspect[1]:
                problems.append(f"inspect: wrong row count for {name}")
        if plot[0] != 0:
            problems.append(f"plot-data exit {plot[0]}")
        else:
            problems += check_fz_plot(data, work / "plot" / "fz_wiping.csv")
        actions = data["action"]
        if len(chunks) != math.ceil(len(actions) / CHUNK_LEN):
            problems.append(f"replay: {len(chunks)} chunks")
        else:
            replayed = [s.as_array().tolist() for c in chunks for s in c.steps]
            if replayed[:len(actions)] != actions.tolist():
                problems.append("replay: actions differ from the recorded stream")
        rows = sum(len(episode.rows(name)) for name in episode.streams)
        return problems, rows * (1 + EPISODE_READS)


def check_fz_plot(data, path) -> list:
    """fz-wiping rows against an independent zero-order-hold projection."""
    import numpy as np
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    got = np.array(rows, dtype=float)
    if got.shape != (len(data["t"]), 3):
        return [f"plot-data wrote {got.shape} values, want {(len(data['t']), 3)}"]
    pose = data["pose"][np.arange(len(data["t"])) // POSE_STRIDE]
    a1, a2 = pose[:, 3:6], pose[:, 6:9]
    z_row = np.stack([a1[:, 2], a2[:, 2], np.cross(a1, a2)[:, 2]], axis=1)
    want = np.stack([data["t"],
                     np.einsum("ij,ij->i", z_row, data["wrench_raw"][:, :3]),
                     np.einsum("ij,ij->i", z_row, data["wrench_ee"][:, :3])], axis=1)
    if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
        return ["plot-data fz values differ from the aligned pose projection"]
    return []


def make_op(workload, seed):
    if workload == "episode_io":
        return EpisodeOp(seed)
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    return ScenarioOp(workload, goldens, seed)


# ---------------------------------------------------------------------------
# measurement

class Run:
    """Times operations one after another and checks every output."""

    def __init__(self, op, work: Path):
        self.op = op
        self.work = work
        self.walls = {False: [], True: []}     # traced? -> op wall seconds
        self.rows = 0
        self.steps = 0
        self.attempted = 0
        self.failed = 0

    def one(self, i, data, tracer=None):
        op_dir = self.work / f"op{i}{'t' if tracer else ''}"
        op_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.op_id = i
            tracer.install()
        self.attempted += 1
        try:
            start = perf_counter()
            result = self.op.run(data, op_dir)
            wall = perf_counter() - start
        except Exception:   # a crashed operation counts as failed; keep going
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            problems, rows = self.op.check(data, result, op_dir)
        except Exception as exc:   # unreadable output fails the operation
            problems, rows = [f"output check raised {type(exc).__name__}: {exc}"], 0
        shutil.rmtree(op_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"check failed: op {i}: {p}", file=sys.stderr)
            return None
        self.walls[tracer is not None].append(wall)
        if tracer is None:
            self.rows += rows
            self.steps += self.op.steps
        return wall


def measure_setup(workload, seed):
    """Median seconds from interpreter start to the first loop call."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
             "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        finally:
            # the probe exits at its first loop call, before it can clean up
            shutil.rmtree(probe_dir(proc.pid), ignore_errors=True)
        lines = out.split()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"setup probe failed ({proc.returncode}): {err[-2000:]}")
        times.append(float(lines[-1]) - start)
    return statistics.median(times), times


def probe_dir(pid) -> Path:
    return WORK / f"setup-{pid}"


def setup_probe(workload, seed):
    """Child side of measure_setup: run until the first loop call, then exit."""
    import_program()

    def first_call(fn):
        def stop(*args, **kwargs):
            # fd 1 directly: the CLI may be running under redirect_stdout
            os.write(1, f"{perf_counter()!r}\n".encode())
            os._exit(0)
        return stop

    module_name, path = LOOP_ENTRY[workload]
    if replace_everywhere(module_name, path, first_call) is None:
        raise SystemExit(f"error: {module_name}.{path} not found")
    work = probe_dir(os.getpid())
    if workload == "episode_io":
        EpisodeOp(seed).run(synthetic_episode_data(seed, 0, ACTION_STRIDE), work)
    else:
        config, trials = SCENARIO_RUNS[workload][0]
        quiet_cli(run_argv(config, SEED_POOLS[workload][0], trials, work))
    raise SystemExit(f"error: {workload} never reached its loop")


def quantile_lines(values) -> list:
    n = len(values)
    lines = [f"op_s.p50 {statistics.median(values):.6f} s (n={n})"]
    if n >= P90_MIN_SAMPLES:
        lines.append(f"op_s.p90 {statistics.quantiles(values, n=10)[-1]:.6f} s (n={n})")
    else:
        lines.append(f"op_s.p90 not reported: n={n}, needs >= {P90_MIN_SAMPLES} samples")
    return lines


def untraced_run(workload, op, run, seconds, seed):
    setup, setup_all = measure_setup(workload, seed)
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        run.one(i, op.inputs(i))
        i += 1
    wall = perf_counter() - start
    walls = run.walls[False]
    if not walls:
        raise SystemExit("error: no operation passed its output check")
    busy = sum(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup, "s"),
        "steps_per_s": (run.steps / busy, "1/s"),
        "rows_per_s": (run.rows / busy, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"  setup_s samples: {' '.join(f'{t:.4f}' for t in setup_all)}")
    print(f"  op_s samples: {' '.join(f'{t:.4f}' for t in walls)}")
    for line in quantile_lines(walls):
        print(f"  {line}")
    print(f"  wall_s {wall:.4f} s (ops plus output checks)")
    print(f"  steps {run.steps}, rows {run.rows}, over {busy:.4f} s of operations")
    return metrics


def traced_run(workload, op, run, seconds):
    tracer = Tracer()
    start = perf_counter()
    i = 0
    pairs = []
    while i == 0 or perf_counter() - start < seconds:
        data = op.inputs(i)
        plain = run.one(i, data)
        traced = run.one(i, data, tracer)
        if plain is not None and traced is not None:
            pairs.append((plain, traced))
        i += 1
    if not pairs:
        raise SystemExit("error: no operation pair passed its output check")
    n_ops = len(run.walls[True])
    traced_wall = sum(run.walls[True])
    table = tracer.table
    metrics, rows = {}, []
    for name, _module, _path, kind in PROBES:
        if name in tracer.absent:
            continue
        if kind == COUNT:
            metrics[f"{name}.calls"] = (tracer.counts[name] / n_ops, "count")
            rows.append((name, tracer.counts[name] / n_ops, None, None))
            continue
        calls, incl, own = table.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n_ops, "count")
        metrics[f"{name}.self_share"] = (own / traced_wall, "share")
        rows.append((name, calls / n_ops, incl / calls * 1e6 if calls else None,
                     own / traced_wall))
    ticks = table.get("dynamics.step", (0,))[0]
    if "kinematics.chain_frames" not in tracer.absent:
        frames = table.get("kinematics.chain_frames", (0,))[0]
        metrics["kinematics.chain_frames.calls_per_tick"] = \
            (frames / ticks if ticks else 0.0, "count")
    if "geometry.cross3" not in tracer.absent:
        metrics["geometry.cross3.calls_per_tick"] = \
            (tracer.counts["geometry.cross3"] / ticks if ticks else 0.0, "count")
    ik_calls = table.get("kinematics.solve_ik", (0,))[0]
    metrics["kinematics.solve_ik.iterations"] = (
        tracer.counts["kinematics.solve_ik.iterations"] / ik_calls if ik_calls else 0.0,
        "count")
    metrics["episodes.bytes_written"] = (tracer.counts["episodes.bytes_written"] / n_ops, "B")
    metrics["episodes.bytes_read"] = (tracer.counts["episodes.bytes_read"] / n_ops, "B")
    overhead = statistics.median(t / p - 1.0 for p, t in pairs)
    metrics["trace.overhead_frac"] = (overhead, "share")

    covered = sum(own for _calls, _incl, own in table.values())
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace_{workload}.csv.gz"
    tracer.write_spans(trace_path)
    print(f"  traced ops {n_ops}, traced wall_s {traced_wall:.4f} s, "
          f"spans {tracer.span_count()} written to {trace_path.relative_to(ROOT)}")
    print(f"  tracing overhead per op: median {overhead:+.2%}, "
          f"{statistics.median(t - p for p, t in pairs):+.4f} s (pairs={len(pairs)})")
    print(f"  span self time covers {covered / traced_wall:.2%} of traced wall_s")
    if tracer.absent:
        print(f"  absent probes (name no longer exists): {', '.join(tracer.absent)}")
    print(f"  {'probe':42s} {'calls/op':>12s} {'us/call':>10s} {'self share':>10s}")
    for name, calls, us, share in sorted(rows, key=lambda r: -(r[3] or 0.0)):
        us_text = "-" if us is None else f"{us:.2f}"
        share_text = "count" if share is None else f"{share:.2%}"
        print(f"  {name:42s} {calls:12.1f} {us_text:>10s} {share_text:>10s}")
    return metrics


def bench(workload, seed, seconds, trace):
    import_program()
    op = make_op(workload, seed)
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(op, work)
    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace}")
    try:
        if trace:
            metrics = traced_run(workload, op, run, seconds)
        else:
            metrics = untraced_run(workload, op, run, seconds, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_frac = run.failed / run.attempted
    print(f"  ops_failed_frac {failed_frac:.4f} ({run.failed}/{run.attempted})")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_share")):   # those are in the table
            print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(seed, seconds):
    """Every workload, untraced then traced, one process at a time."""
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT)
            code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    bench(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
