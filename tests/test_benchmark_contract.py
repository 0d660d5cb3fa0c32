"""The names perfbench traces must exist, and must be the names that
BENCHMARK.json declares.

perfbench/tracing.py wraps public contactctl names by module and attribute
path, and silently skips a name that is gone. A skipped probe drops its
`.calls` and `.self_share` metrics from the traced result line, which then
no longer matches the `per_layer` list of BENCHMARK.json. Removing or
renaming a probed name therefore needs a benchmark change first. These
tests read perfbench/tracing.py and BENCHMARK.json and change neither.
"""

import importlib.util
import json
from pathlib import Path

import contactctl.cli  # noqa: F401  (imports every module a probe names)

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
