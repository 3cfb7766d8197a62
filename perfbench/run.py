"""The noisycast benchmark.  From the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in workloads.py, the wrapped layers in tracer.py.  A
run is a closed loop with one client: each iteration is a fresh worker
process (so the package's caches start cold), started only after the
previous one has exited, until --seconds have passed; at least one of each
kind of iteration runs.  No iteration uses more program threads than the
CPUs available to it.

--trace 0 prints the end-to-end metrics, each the median over the run's
iterations:

  wall_s       the job of one iteration, import excluded
  setup_s      interpreter start, package import and building the inputs
  peak_rss_mb  peak resident set of the worker process
  ok_frac      iterations that ran and passed their output checks, over
               iterations attempted (1 - failed_frac; kept nonzero)

--trace 1 alternates untraced and traced iterations (and, where the
workload runs on two threads, single-thread ones) and prints every
per-layer metric: the medians over traced iterations, the tracing overhead
(traced minus untraced wall time) and the 1-vs-2-thread speedup.  The
1-thread and 2-thread series must be bit-identical, and every count must
repeat exactly across traced iterations; either failure marks the run
incorrect.  The presets and CLI layers (argument handling and the verdict
write) are not timed by these workloads.

The last line of standard output is the JSON result; the run record,
with every iteration's raw numbers, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "noisycast"
OUT = HERE / "out"

# Worker threads passed to estimate_error_series.  mc_flip_full runs two so
# that the scaling of the Monte Carlo blocks shows in its wall time.
THREADS = {"mc_flip_full": 2, "mc_erasure_scan": 1, "exact_window": 1, "rate_laws": 1}
DEFAULT_SEED = 7
WORKER_TIMEOUT_S = 120
# one-thread BLAS keeps the program's thread count at the Monte Carlo workers
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def spawn(workload: str, seed: int, threads: int, trace: int, index: int) -> dict:
    """Run one worker to completion and return its result, or a failure record."""
    tmp = OUT / f"tmp-{os.getpid()}-{index}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--threads", str(threads),
        "--trace", str(trace), "--tmp", str(tmp), "--iteration", str(index),
    ]
    if trace:
        cmd += ["--spans", str(OUT / "spans" / f"{workload}-seed{seed}-iter{index}.jsonl")]
    env = dict(os.environ, **BLAS_ENV)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"worker exceeded {WORKER_TIMEOUT_S} s", "threads": threads, "trace": trace}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"ok": False, "error": "\n".join(tail), "threads": threads, "trace": trace}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - started
    result["threads"] = threads
    result["trace"] = trace
    return result


def run_loop(workload: str, seed: int, seconds: float, kinds: list[tuple[int, int]]) -> list[dict]:
    """Closed loop over (threads, trace) kinds in turn until every kind has
    run once and the next iteration would end more than half an iteration
    past the deadline, so that a run lasts --seconds on average."""
    iterations = []
    durations = []
    start = time.monotonic()
    while len(iterations) < len(kinds) or time.monotonic() + statistics.median(durations) / 2 < start + seconds:
        threads, trace = kinds[len(iterations) % len(kinds)]
        t0 = time.monotonic()
        iterations.append(spawn(workload, seed, threads, trace, len(iterations)))
        durations.append(time.monotonic() - t0)
    return iterations


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def end_to_end(iterations: list[dict]) -> dict:
    measured = [r for r in iterations if "wall_s" in r]
    return {
        "wall_s": _median(measured, "wall_s"),
        "setup_s": _median(measured, "setup_s"),
        "peak_rss_mb": _median(measured, "peak_rss_mb"),
        "ok_frac": sum(r["ok"] for r in iterations) / len(iterations),
    }


def per_layer(iterations: list[dict], threads: int, tracer) -> tuple[dict, list[str]]:
    traced = [r for r in iterations if r["trace"] and "layers" in r]
    plain = [r for r in iterations if not r["trace"] and r["threads"] == threads and "wall_s" in r]
    one = [r for r in iterations if not r["trace"] and r["threads"] == 1 and "wall_s" in r]
    problems = []
    metrics = tracer.median_metrics([r["layers"] for r in traced])
    for name in tracer.COUNT_METRICS:
        if len({r["layers"][name] for r in traced}) > 1:
            problems.append(f"{name} differs between traced iterations")
    metrics.setdefault("montecarlo.calibrate.s", 0.0)
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    if threads > 1:
        metrics["montecarlo.speedup_2t"] = _median(one, "wall_s") / _median(plain, "wall_s")
        if len({r["digest"] for r in plain + one}) > 1:
            problems.append("the 1-thread and 2-thread series are not bit-identical")
    else:
        metrics["montecarlo.speedup_2t"] = 0.0
    return metrics, problems


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def machine() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        caches[f"L{level}{kind[0].lower() if kind and kind != 'Unified' else ''}"] = size
    return {"cpu_model": model, "caches": caches, "nproc": os.cpu_count(), "cpus_available": _cpus()}


def environment() -> dict:
    """What ran and on what: package source, library versions, machine, threads."""
    return {
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        **machine(),
        "threads_per_workload": {w: min(t, _cpus()) for w, t in THREADS.items()},
        "blas_env": BLAS_ENV,
    }


def record(args, threads: int) -> dict:
    return {
        **environment(),
        "threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="noisycast benchmark")
    p.add_argument("--workload", required=True, choices=sorted(THREADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    threads = min(THREADS[args.workload], _cpus())
    OUT.mkdir(exist_ok=True)
    if args.trace:
        shutil.rmtree(OUT / "spans", ignore_errors=True)
        (OUT / "spans").mkdir()
        kinds = [(threads, 0), (threads, 1)] + ([(1, 0)] if threads > 1 else [])
    else:
        kinds = [(threads, 0)]
    iterations = run_loop(args.workload, args.seed, args.seconds, kinds)
    if {(r["threads"], r["trace"]) for r in iterations if "wall_s" in r} != set(kinds):
        for r in iterations:
            print(r.get("error", ""), file=sys.stderr)
        print("some kind of iteration never completed; no result", file=sys.stderr)
        return 1

    if args.trace:
        sys.path.insert(0, str(SRC.parent))
        import tracer

        metrics, problems = per_layer(iterations, threads, tracer)
        units = tracer.UNITS
    else:
        metrics, problems = end_to_end(iterations), []
        units = E2E_UNITS
    failed = sum(not r["ok"] for r in iterations)
    for r in iterations:
        for c in r.get("checks", []):
            if not c["passed"]:
                problems.append(f"iteration check {c['name']} failed: {c['value']!r} vs {c['target']!r}")
        if "error" in r:
            problems.append(f"iteration failed: {r['error']}")

    rec = record(args, threads)
    rec["iterations"] = iterations
    rec["problems"] = problems
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1) + "\n", encoding="utf-8"
    )
    n = len(iterations)
    medianed = sum(r["trace"] == args.trace for r in iterations)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}  (median of {medianed} of {n} iterations)")
    print(f"failed_frac = {failed / n!r} fraction  ({failed} of {n} iterations failed)")
    if args.trace:
        not_measured = sorted({m for r in iterations for m in r.get("not_measured", [])})
        print(f"not measured (wrapped name gone): {not_measured or 'none'}")
        idle = [name for name, value in metrics.items() if value == 0 and name not in not_measured]
        print(f"read 0 (layer not called by this workload): {idle or 'none'}")
        print("presets and cli: argument handling and the verdict write only; not timed by these workloads")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("record " + json.dumps({k: v for k, v in rec.items() if k not in ("iterations", "problems")}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
