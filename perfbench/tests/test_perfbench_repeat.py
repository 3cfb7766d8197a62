"""Every iteration starts cold and counts the same work: two traced worker
processes of one workload and seed agree on every count, pay for the
calibration pass and the cutoff-table pass each time, and pass their checks."""

import json
import os
import subprocess
import sys

import pytest

import tracer
from conftest import BENCH


def traced_iteration(workload, threads, tmp_path, index):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "11",
         "--threads", str(threads), "--trace", "1", "--tmp", str(tmp_path / f"w{index}")],
        capture_output=True, text=True, timeout=170,
        env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload,threads", [("mc_flip_full", 2), ("mc_erasure_scan", 1), ("exact_window", 1), ("rate_laws", 1)]
)
def test_counts_repeat_exactly_across_cold_iterations(workload, threads, tmp_path):
    first, second = (traced_iteration(workload, threads, tmp_path, i) for i in range(2))
    assert first["ok"] and second["ok"], (first["checks"], second["checks"])
    for name in tracer.COUNT_METRICS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["digest"] == second["digest"]
    if workload == "mc_erasure_scan":
        cal = [r["layers"]["montecarlo.calibrate.s"] for r in (first, second)]
        assert min(cal) > 0.0 and max(cal) < 3.0 * min(cal), cal
        assert first["layers"]["topology.memory_size.calls"] > 0
    if workload == "exact_window":
        # the reference pass and the cutoff-table pass behind the window kernel
        assert first["layers"]["exact_dp.exact_error_series.calls"] == 2
        assert first["layers"]["exact_dp.table_mb"] > 0
