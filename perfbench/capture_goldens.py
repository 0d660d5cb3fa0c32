#!/usr/bin/env python3
"""Capture the goldens that `run.py` checks every scenario operation against.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/capture_goldens.py

For every (config, scenario seed, trials) an operation of the `wiping` and
`gripper` workloads can run, it records the exit code, each variant's success
flag and report metrics, and the episode rows exported. It also counts the
plant steps of one run per (config, trials): arm `dynamics.step` calls plus
gripper `bilateral.step_bilateral` calls. Step counts do not depend on the
scenario seed.
"""

import json
import shutil
import subprocess

from run import (GOLDENS, ROOT, SCENARIO_RUNS, SEED_POOLS, WORK, golden_key,
                 import_program, quiet_cli, run_argv, scenario_outputs)
from tracing import Tracer

STEP_PROBES = ("dynamics.step", "bilateral.step_bilateral")


def main():
    import_program()
    work = WORK / "goldens"
    shutil.rmtree(work, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=ROOT).stdout.strip() or "unknown"
    runs, steps = {}, {}
    try:
        for workload, configs in SCENARIO_RUNS.items():
            for config, trials in configs:
                tracer = Tracer()
                tracer.install()
                try:
                    quiet_cli(run_argv(config, SEED_POOLS[workload][0], trials, work))
                finally:
                    tracer.uninstall()
                table = tracer.table
                steps[f"{config}|trials={trials}"] = sum(
                    table.get(name, (0,))[0] for name in STEP_PROBES)
                shutil.rmtree(work)
                for seed in SEED_POOLS[workload]:
                    code, _ = quiet_cli(run_argv(config, seed, trials, work))
                    runs[golden_key(config, seed, trials)] = scenario_outputs(work, code)
                    shutil.rmtree(work)
                    print(f"{config} seed {seed}: exit {code}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDENS, "w") as fh:
        json.dump({"commit": commit, "steps": steps, "runs": runs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
