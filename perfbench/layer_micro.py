#!/usr/bin/env python3
"""Untraced microseconds per call of the arm-loop layers, with machine facts.

Run from the root of a checkout:

    python3 perfbench/layer_micro.py

It runs one `wiping` operation while recording the arguments of every tenth
call to each function in FUNCTIONS, then replays those recorded calls with no
wrapper installed and reports the median over REPEATS passes of the mean
microseconds per call. This is the reference for the traced `us/call` column
of `run.py --trace 1`, which includes wrapper cost.
"""

import json
import os
import platform
import shutil
import statistics
import sys
from time import perf_counter

from run import (SCENARIO_RUNS, SEED_POOLS, WORK, import_program, quiet_cli,
                 run_argv)
from tracing import replace_everywhere

FUNCTIONS = (("kinematics.chain_frames", "contactctl.kinematics", "chain_frames"),
             ("dynamics.inverse_dynamics_terms", "contactctl.dynamics",
              "inverse_dynamics_terms"),
             ("impedance.execute_tick", "contactctl.impedance",
              "ImpedanceExecutor.execute_tick"),
             ("dynamics.step", "contactctl.dynamics", "step"))
SAMPLE_EVERY = 10
REPEATS = 5


def machine_facts() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip()}


def main():
    import_program()
    samples = {name: [] for name, _m, _p in FUNCTIONS}
    originals, patches = {}, []

    for name, module_name, path in FUNCTIONS:
        def recorder(fn, name=name):
            originals[name] = fn
            seen = [0]

            def record(*args, **kwargs):
                if seen[0] % SAMPLE_EVERY == 0:
                    samples[name].append((args, kwargs))
                seen[0] += 1
                return fn(*args, **kwargs)
            return record
        patches += replace_everywhere(module_name, path, recorder)

    work = WORK / f"micro-{os.getpid()}"
    config, trials = SCENARIO_RUNS["wiping"][0]
    try:
        code, _ = quiet_cli(run_argv(config, SEED_POOLS["wiping"][0], trials, work))
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"error: wiping run exited {code}")

    us_per_call = {}
    for name, calls in samples.items():
        fn = originals[name]
        passes = []
        for _ in range(REPEATS):
            start = perf_counter()
            for args, kwargs in calls:
                fn(*args, **kwargs)
            passes.append((perf_counter() - start) / len(calls) * 1e6)
        us_per_call[name] = {"us_per_call": statistics.median(passes),
                             "calls_timed": len(calls)}
    print(json.dumps({"machine": machine_facts(), "planar3": us_per_call}, indent=1))


if __name__ == "__main__":
    sys.exit(main())
