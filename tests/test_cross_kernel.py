"""Report metrics do not depend on the host's SIMD kernels beyond rounding.

The sha256 pins in test_scenarios.py hold only where OpenBLAS and numpy pick
the kernels this host picks. Here one wiping and one gravity run go through
`contactctl run` twice: under the default kernels, and with both libraries
fixed at the x86-64-v3 (AVX2) level. Every report metric must agree to
1e-12 relative. Drift at the ulp level passes; a change that makes a metric
depend on summation order far beyond it fails.
"""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXED_KERNELS = {"OPENBLAS_CORETYPE": "Haswell",
                 "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _report_metrics(out: Path, args: tuple, kernels: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in FIXED_KERNELS}
    env.update(kernels, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "contactctl", "run", "--config",
                           *args, "--out", str(out), "--quiet"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    return {path.name: json.loads(path.read_text())["metrics"]
            for path in sorted(out.glob("report_*.json"))}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the fixed kernels (OpenBLAS Haswell, numpy AVX2) "
                           "exist only on x86-64")
@pytest.mark.parametrize("args", [("configs/wiping.ini", "--trials", "1"),
                                  ("configs/gravity_verification.ini",)],
                         ids=["wiping", "gravity"])
def test_report_metrics_agree_across_kernels(tmp_path, args):
    default = _report_metrics(tmp_path / "default", args, {})
    fixed = _report_metrics(tmp_path / "fixed", args, FIXED_KERNELS)
    assert default and default.keys() == fixed.keys()
    for report, metrics in default.items():
        assert metrics.keys() == fixed[report].keys()
        for name, value in metrics.items():
            assert math.isclose(value, fixed[report][name], rel_tol=1e-12, abs_tol=0.0), \
                (report, name, value, fixed[report][name])
