"""Run the benchmark over several seeds and report each metric's median and spread.

From the repository root:

    python3 perfbench/spread.py --seeds 401-410 [--workloads mc_flip_full,rate_laws] [--trace 0]
        [--out perfbench/results/baseline.json]

For each workload and metric it prints the median over the seeds and the
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  With --out it also writes every
run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, required=True, help="a range such as 401-410")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']}", file=sys.stderr)
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            summary[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                             "bound": bounds.get(name), "values": values}
            print(f"{workload} {name}: median {median:.6g}, spread {summary[name]['spread']:.3f}"
                  f" (bound {bounds.get(name)})")
        doc["workloads"][workload] = {
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in results),
            "metrics": summary,
        }
    if args.out is not None:
        doc["environment"] = run.environment()
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
