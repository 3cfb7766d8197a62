"""One-shot sweep over every preset: wall time and peak RSS of each, not gated.

Each preset runs in its own fresh process with two Monte Carlo threads, as
``noisycast run --threads 2`` would run it, so the package's caches start
cold.  From the repository root:

    python3 perfbench/sweep_presets.py [--out perfbench/results/preset_sweep.json]

It shows what the four gated workloads leave out.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

RUNNER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from noisycast import Overrides, run_preset
verdict = run_preset(sys.argv[2], sys.argv[3], Overrides(threads=int(sys.argv[4])))
print(json.dumps({"passed": verdict["passed"]}))
"""


def run_one(name: str, threads: int) -> dict:
    """Run one preset in a child reaped with wait4, which gives the child's own peak RSS."""
    cmd = [sys.executable, "-c", RUNNER, str(run.SRC.parent), name, "", str(threads)]
    with tempfile.TemporaryDirectory(dir=run.OUT) as out_dir, \
            tempfile.TemporaryFile("w+", dir=run.OUT) as out, tempfile.TemporaryFile("w+", dir=run.OUT) as err:
        cmd[5] = out_dir
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=dict(os.environ, **run.BLAS_ENV))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().strip(), err.read().strip()
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "passed": json.loads(stdout.splitlines()[-1])["passed"] if code == 0 else None,
        "returncode": code,
        "stderr_tail": stderr[-300:] if code else "",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=run.HERE / "results" / "preset_sweep.json")
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC.parent))
    from noisycast import list_presets

    threads = min(2, len(os.sched_getaffinity(0)))
    run.OUT.mkdir(exist_ok=True)
    rows = {}
    for name in list_presets():
        rows[name] = r = run_one(name, threads)
        print(f"{name}: {r['wall_s']:.2f} s, {r['peak_rss_mb']:.0f} MB, passed={r['passed']}", file=sys.stderr)
    summary = {
        "total_wall_s": sum(r["wall_s"] for r in rows.values()),
        "max_peak_rss_mb": max(r["peak_rss_mb"] for r in rows.values()),
    }
    doc = {"threads": threads, "environment": run.environment(), "summary": summary, "presets": rows}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
