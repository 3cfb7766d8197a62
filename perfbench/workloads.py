"""The four benchmark workloads: inputs made from a seed, the timed job, and its output checks.

Every job calls the package through module attributes looked up at call time
(``montecarlo.estimate_error_series``, ``recursions.iterate_recursion``, ...),
so the tracer can wrap those attributes from outside and see every call.

Shapes are scaled so that one cold iteration takes 1.5 to 3 s on a 2-core
Xeon; a run then holds several iterations and reports their medians.

False-failure rates of the statistical checks, per seed:

* ``mc_flip_full`` and ``mc_erasure_scan``: the error at stage 10 and at the
  last stage are more than 15 standard errors apart at these trial counts,
  and the 95% bands must merely not overlap, so a false failure needs a
  fluctuation of more than 10 standard errors: below 1e-20 under the normal
  approximation.
* ``exact_window``: the gate is ``max |MC - exact| / sigma <= 5.5`` over the
  199 grid stages, sigma taken from the exact series.  By the union bound over
  stages, with exact binomial tails, the false-failure rate is at most 5.8e-5
  whatever the correlation between stages.  The share of stages within
  3 sigma is reported but does not gate: stage estimates come from the same
  trials and move together, so that share fell below 0.95 on 2 of 60 seeds
  at 5000 trials, and more trials do not remove that.
* ``rate_laws`` has no statistical check: it is deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import noisycast as nc
from noisycast import analysis, exact_dp, montecarlo, recursions, topology

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-9

MC_STAGES = 2000
MC_TRIALS = 2000
CALIBRATION_TRIALS = 2000

WINDOW_CAPACITY = 9
WINDOW_STAGES = 500
WINDOW_TRIALS = 5000
WINDOW_MAX_Z = 5.5

PLATEAU_STAGES = 2_000_000
SANDWICH_STAGES = 1_000_000
SANDWICH_K_MIN = 1000
DEPTH_KS = 20_000
DEPTH_K_MAX = 10**7
CSV_EXTRA_ROWS = 20_000


@dataclass(frozen=True)
class Workload:
    build: Callable  # seed -> inputs
    run: Callable  # (inputs, threads, tmp_dir) -> outputs
    check: Callable  # (inputs, outputs) -> list of check records
    probe: Callable | None = None  # inputs -> seconds, run after the traced job


def _check(name, passed, value, target, informational=False):
    return {
        "name": name,
        "passed": bool(passed) or informational,
        "value": value,
        "target": target,
        "informational": informational,
    }


def _config_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1, np.uint64)[0])


def _estimate(config, threads: int):
    """Pass the worker count only while estimate_error_series takes one."""
    if "threads" in inspect.signature(montecarlo.estimate_error_series).parameters:
        return montecarlo.estimate_error_series(config, threads=threads)
    return montecarlo.estimate_error_series(config)


def series_digest(series) -> str:
    h = hashlib.sha256()
    for arr in (series.stages, series.values, *(series.extra[k] for k in sorted(series.extra))):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _csv_round_trip(series, tmp_dir: Path):
    path = tmp_dir / "series.csv"
    analysis.write_series_csv(path, {"k": series.stages, "value": series.values, **series.extra}, series.meta)
    return analysis.series_from_csv(path)


def _csv_check(series, back):
    same = (
        np.array_equal(series.stages, back.stages)
        and np.array_equal(series.values, back.values)
        and set(series.extra) == set(back.extra)
        and all(np.array_equal(series.extra[k], back.extra[k]) for k in series.extra)
    )
    return _check("csv_round_trip_bit_exact", same, same, True)


def _max_rel_error(values, reference) -> float:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


@functools.cache
def _reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# --- mc_flip_full and mc_erasure_scan ---------------------------------------


def _build_flip(seed: int):
    config = nc.ExperimentConfig(
        nc.BeliefModel(0.0), nc.FlipSchedule("constant", q=0.1), nc.MemorySchedule("full"),
        stages=MC_STAGES, trials=MC_TRIALS, seed=_config_seed(seed, 1),
    )
    return {"config": config}


def _build_scan(seed: int):
    config = nc.ExperimentConfig(
        nc.BeliefModel(0.0), nc.ErasureSchedule("constant", level=0.9), nc.MemorySchedule("full"),
        stages=MC_STAGES, trials=MC_TRIALS, seed=_config_seed(seed, 2),
        calibration_trials=CALIBRATION_TRIALS,
    )
    return {"config": config}


def _run_mc(inputs, threads, tmp_dir):
    series = _estimate(inputs["config"], threads)
    return {"series": series, "csv": _csv_round_trip(series, tmp_dir)}


def _bands_check(series, last):
    high, low = series.extra_at("ci_high", last), series.extra_at("ci_low", 10)
    return _check("bands_disjoint", high < low, high, low)


def _check_flip(inputs, out):
    s, last = out["series"], inputs["config"].stages
    late, early = s.value_at(last), s.value_at(10)
    return [
        _check("error_drops_fivefold", late < early / 5.0, late, early / 5.0),
        _bands_check(s, last),
        _csv_check(s, out["csv"]),
    ]


def _check_scan(inputs, out):
    s, last = out["series"], inputs["config"].stages
    late, early = s.value_at(last), s.value_at(10)
    return [
        _check("error_decreases", late < early, late, early),
        _bands_check(s, last),
        _csv_check(s, out["csv"]),
    ]


def calibration_seconds(inputs) -> float:
    """Cost of the calibration pass through public calls only: a cold
    run_trial minus a warm one.  The probe config differs from the job's in
    its seed alone, so its calibration cache entry is cold."""
    config = inputs["config"]
    probe = dataclasses.replace(config, seed=(config.seed + 1) % 2**64)
    t0 = time.perf_counter()
    montecarlo.run_trial(probe, 0, 0)
    t1 = time.perf_counter()
    montecarlo.run_trial(probe, 0, 0)
    t2 = time.perf_counter()
    return (t1 - t0) - (t2 - t1)


# --- exact_window -----------------------------------------------------------


def _window_parts():
    return (
        nc.BeliefModel(0.0),
        nc.ErasureSchedule("constant", level=0.3),
        nc.MemorySchedule("bounded", capacity=WINDOW_CAPACITY),
    )


def _build_window(seed: int):
    model, channel, memory = _window_parts()
    config = nc.ExperimentConfig(
        model, channel, memory, stages=WINDOW_STAGES, trials=WINDOW_TRIALS, seed=_config_seed(seed, 3)
    )
    return {"config": config}


def _run_window(inputs, threads, tmp_dir):
    c = inputs["config"]
    exact = exact_dp.exact_error_series(c.model, c.channel, c.memory, c.stages)
    series = _estimate(c, threads)
    return {"exact": exact, "series": series, "csv": _csv_round_trip(series, tmp_dir)}


def _check_window(inputs, out):
    c, exact, s = inputs["config"], out["exact"], out["series"]
    idx = s.stages - 1
    p0 = exact.extra["p0_type1"][idx]
    p1 = exact.extra["p1_type2"][idx]
    n = c.trials
    sigma = np.sqrt(c.model.prior_0**2 * p0 * (1.0 - p0) / n + c.model.prior_1**2 * p1 * (1.0 - p1) / n)
    z = np.abs(s.values - exact.values[idx]) / sigma
    rel = _max_rel_error(exact.values, _reference()["exact_window"]["pe"])
    return [
        _check("mc_within_max_z_of_exact", z.max() <= WINDOW_MAX_Z, float(z.max()), WINDOW_MAX_Z),
        _check("three_sigma_coverage", True, float((z <= 3.0).mean()), 0.95, informational=True),
        _check("exact_matches_reference", rel <= REFERENCE_RTOL, rel, REFERENCE_RTOL),
        _csv_check(s, out["csv"]),
    ]


# --- rate_laws --------------------------------------------------------------


def _plateau_spec():
    """The thm7_plateau recursion: summability-edge flips, beta = 0."""
    return recursions.rate_recursion(nc.BeliefModel(0.0), nc.FlipSchedule("log_power", p=2.0), initial=0.3)


def _build_rates(seed: int):
    rng = np.random.default_rng(seed)
    base = nc.default_grid(PLATEAU_STAGES)
    # extra CSV rows at distinct stages off the default grid, without a
    # stage-sized array that would set this workload's peak RSS
    drawn = rng.choice(PLATEAU_STAGES, CSV_EXTRA_ROWS + base.size, replace=False) + 1
    extra = drawn[~np.isin(drawn, base)][:CSV_EXTRA_ROWS]
    return {
        "spec": _plateau_spec(),
        "sandwich_spec": nc.RecursionSpec(initial=0.5, exponent=1, delta=1.0),
        "base": base,
        "grid": np.union1d(base, extra),
        "ks_full": rng.integers(2, DEPTH_K_MAX, DEPTH_KS),
        "ks_sigma": rng.integers(2, DEPTH_K_MAX, DEPTH_KS),
    }


def _run_rates(inputs, threads, tmp_dir):
    del threads
    spec = inputs["spec"]
    # the thm7_plateau preset classifies first and then iterates again
    classified = recursions.lemma4_classify(spec, PLATEAU_STAGES, tol=5e-3)
    series = recursions.iterate_recursion(spec, PLATEAU_STAGES, grid=inputs["grid"])
    sandwich = recursions.lemma3_sandwich(inputs["sandwich_spec"], SANDWICH_K_MIN, SANDWICH_STAGES)
    full = nc.MemorySchedule("full")
    sqrt_window = nc.MemorySchedule("power", sigma=0.5)
    depth_full = [topology.backward_search_depth(full, int(k)) for k in inputs["ks_full"]]
    depth_sigma = [topology.backward_search_depth(sqrt_window, int(k)) for k in inputs["ks_sigma"]]
    return {
        "classified": classified,
        "series": series,
        "sandwich": sandwich,
        "depth_full": depth_full,
        "depth_sigma": depth_sigma,
        "csv": _csv_round_trip(series, tmp_dir),
    }


def _rate_reference_values(out, base):
    at_base = np.searchsorted(out["series"].stages, base)
    return {
        "checkpoint_values": list(out["classified"].values),
        "values": out["series"].values[at_base].tolist(),
        "sandwich": [out["sandwich"].low, out["sandwich"].high],
    }


def _check_rates(inputs, out):
    ref = _reference()["rate_laws"]
    got = _rate_reference_values(out, inputs["base"])
    rel = max(_max_rel_error(got[key], ref[key]) for key in ("checkpoint_values", "values", "sandwich"))
    label = out["classified"].label
    band = out["sandwich"].high / out["sandwich"].low
    isqrt_ok = all(d == math.isqrt(int(k) - 1) for d, k in zip(out["depth_full"], inputs["ks_full"]))
    sigma_ok = all(1 <= d <= math.isqrt(int(k) - 1) for d, k in zip(out["depth_sigma"], inputs["ks_sigma"]))
    return [
        _check("plateau_label", label == "positive_limit", label, "positive_limit"),
        _check("recursion_matches_reference", rel <= REFERENCE_RTOL, rel, REFERENCE_RTOL),
        _check("sandwich_band", band < 2.0, band, 2.0),
        _check("full_memory_depth_is_isqrt", isqrt_ok, isqrt_ok, True),
        _check("sqrt_window_depth_in_range", sigma_ok, sigma_ok, True),
        _csv_check(out["series"], out["csv"]),
    ]


WORKLOADS = {
    "mc_flip_full": Workload(_build_flip, _run_mc, _check_flip),
    "mc_erasure_scan": Workload(_build_scan, _run_mc, _check_scan, probe=calibration_seconds),
    "exact_window": Workload(_build_window, _run_window, _check_window),
    "rate_laws": Workload(_build_rates, _run_rates, _check_rates),
}


def write_reference(path: Path = REFERENCE_PATH) -> None:
    """Store the seed-independent outputs that the checks compare against."""
    model, channel, memory = _window_parts()
    exact = exact_dp.exact_error_series(model, channel, memory, WINDOW_STAGES)
    inputs = _build_rates(0)
    spec = inputs["spec"]
    out = {
        "classified": recursions.lemma4_classify(spec, PLATEAU_STAGES, tol=5e-3),
        "series": recursions.iterate_recursion(spec, PLATEAU_STAGES, grid=inputs["base"]),
        "sandwich": recursions.lemma3_sandwich(inputs["sandwich_spec"], SANDWICH_K_MIN, SANDWICH_STAGES),
    }
    ref = {
        "exact_window": {"pe": exact.values.tolist()},
        "rate_laws": _rate_reference_values(out, inputs["base"]),
    }
    path.write_text(json.dumps(ref) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # python3 perfbench/workloads.py --write-reference  (with src/ on PYTHONPATH)
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: workloads.py --write-reference")
    write_reference()
