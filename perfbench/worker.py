"""One benchmark iteration in a fresh interpreter.

A fresh process per iteration keeps every process-wide cache of the package
(the cutoff tables and the calibration marginals) cold, as in a CLI run.
The worker prints one JSON line: the CLOCK_MONOTONIC time at which set-up
(interpreter start, package import, building the inputs) ended, which the
parent compares with the time it started the process; the job's wall time;
the peak RSS; the output checks; a digest of the Monte Carlo series; and,
when traced, the per-layer metrics of the iteration.

run.py starts it; by hand, from the repository root:

    python3 perfbench/worker.py --workload rate_laws --seed 7 --threads 1 --trace 0 --tmp perfbench/out/tmp
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tmp", type=Path, required=True, help="scratch directory, removed at the end")
    p.add_argument("--spans", type=Path, help="where a traced iteration writes its spans")
    p.add_argument("--iteration", type=int, default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)

    tr = tracer.Tracer(args.iteration) if args.trace else None
    args.tmp.mkdir(parents=True, exist_ok=True)
    try:
        if tr is not None:
            tr.install()
        try:
            t0 = time.perf_counter()
            outputs = wl.run(inputs, args.threads, args.tmp)
            wall = time.perf_counter() - t0
        finally:
            if tr is not None:
                tr.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        checks = wl.check(inputs, outputs)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)

    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ok": all(c["passed"] for c in checks),
        "checks": checks,
        "digest": workloads.series_digest(outputs["series"]),
    }
    if tr is not None:
        layers, not_measured = tracer.layer_metrics(tr.spans, tr.installed)
        if wl.probe is not None:
            layers["montecarlo.calibrate.s"] = wl.probe(inputs)
        result["layers"] = layers
        result["not_measured"] = not_measured
        result["missing_attributes"] = tr.missing
        result["spans"] = len(tr.spans)
        if args.spans is not None:
            tr.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
