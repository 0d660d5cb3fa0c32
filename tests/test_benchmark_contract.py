"""The names perfbench traces must exist, and must be the names that
BENCHMARK.json declares.

perfbench/tracing.py wraps public contactctl names by module and attribute
path, and silently skips a name that is gone. A skipped probe drops its
`.calls` and `.self_share` metrics from the traced result line, which then
no longer matches the `per_layer` list of BENCHMARK.json. Removing or
renaming a probed name therefore needs a benchmark change first. The
same holds for what the benchmark's operations read of contactctl's
results, such as the replayed action chunks, and for the loop entry whose
first call ends each workload's set-up timing. These tests read perfbench/
and BENCHMARK.json and change neither.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import contactctl.cli  # noqa: F401  (imports every module a probe names)
from contactctl.compliance import ACTION_SCHEMA
from contactctl.episodes import (Episode, StreamSpec, export_csv, load_episode,
                                 replay_actions)

ROOT = Path(__file__).resolve().parent.parent

# counters a traced run reports besides the per-probe metrics
EXTRA_METRICS = ("kinematics.chain_frames.calls_per_tick",
                 "geometry.cross3.calls_per_tick",
                 "kinematics.solve_ik.iterations",
                 "episodes.bytes_written", "episodes.bytes_read",
                 "trace.overhead_frac")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves():
    tracing = _tracing()
    absent = [name for name, module, path, _kind in tracing.PROBES
              if tracing._resolve(module, path) is None]
    assert absent == []


def test_traced_metric_names_match_benchmark_json():
    tracing = _tracing()
    reported = list(EXTRA_METRICS)
    for name, _module, _path, kind in tracing.PROBES:
        reported.append(f"{name}.calls")
        if kind != tracing.COUNT:
            reported.append(f"{name}.self_share")
    declared = [metric["name"] for metric in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(reported) == sorted(declared)


def _bench(monkeypatch):
    """perfbench/run.py as a module, with its directory importable."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_replay_passes_the_episode_io_check(tmp_path, monkeypatch):
    # perfbench's episode_io operation reads the replayed action stream back
    # through ActionChunk.steps and ActionStep.as_array, and counts the
    # operation failed otherwise. This is that check on its synthetic data,
    # so a change to what replay_actions returns fails here first.
    bench = _bench(monkeypatch)
    for n in (bench.EPISODE_ROWS, 1234):   # whole chunks, then a padded one
        data = bench.synthetic_episode_data(5, 0, n)
        actions = data["action"]
        episode = Episode("synthetic", [StreamSpec("action", 20.0, ACTION_SCHEMA,
                                                   "action")])
        for k, row in enumerate(actions):
            episode.record("action", float(data["t"][k * bench.ACTION_STRIDE]), row)
        export_csv(episode, tmp_path / str(n))
        chunks = replay_actions(load_episode(tmp_path / str(n)), bench.CHUNK_LEN)
        assert len(chunks) == math.ceil(len(actions) / bench.CHUNK_LEN)
        replayed = [s.as_array().tolist() for c in chunks for s in c.steps]
        assert replayed[:len(actions)] == actions.tolist()


@pytest.mark.parametrize("workload", ["wiping", "gripper", "episode_io"])
def test_each_workload_reaches_its_loop_entry(workload, tmp_path, monkeypatch):
    # perfbench times set-up up to the first call of the workload's
    # LOOP_ENTRY and fails with "never reached its loop" when no call comes.
    # One operation, with the entry counted the way the set-up probe wraps
    # it, must call it and pass the operation's output check (for the
    # scenario workloads, against one golden).
    bench = _bench(monkeypatch)
    monkeypatch.chdir(ROOT)
    module_name, path = bench.LOOP_ENTRY[workload]
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)
        return wrapper

    patches = bench.replace_everywhere(module_name, path, counted)
    assert patches, f"{module_name}.{path} is not bound anywhere"
    op = bench.make_op(workload, 1)
    data = op.inputs(0)
    try:
        result = op.run(data, tmp_path)
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    assert calls
    problems, _ = op.check(data, result, tmp_path)
    assert problems == []
