"""The benchmark's four workloads run and pass their own checks.

Each runs once through perfbench/worker.py, as perfbench/run.py runs it: a
fresh interpreter, one iteration, no tracing, a scratch directory of its
own.  A change that would lower a workload's ok_frac fails here first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["mc_flip_full", "mc_erasure_scan", "exact_window", "rate_laws"])
def test_workload_passes_its_checks(workload, tmp_path):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", "7", "--threads", "1", "--trace", "0",
           "--tmp", str(tmp_path / "tmp")]
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ok"] is True, result["checks"]
