"""Named experiment presets: one per claimed limit or rate law.

Each preset runs a pinned configuration, writes its series CSVs plus a
verdict.json into the output directory, and returns the verdict dict.  The
checks inside a verdict are the preset's acceptance thresholds; entries
marked informational report a number without gating the verdict (used where
a rate is known not to be reproducible at feasible horizons and is recorded
rather than asserted).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    SeriesResult,
    fit_power,
    fit_power_of_log,
    fit_reciprocal_log,
    theta_sandwich,
    write_series_csv,
)
from .belief_model import BeliefModel
from .channels import ErasureSchedule, FlipSchedule, erasure_levels
from .exact_dp import exact_error_series, martingale_check
from .montecarlo import (
    ExperimentConfig,
    estimate_chain_success,
    estimate_error_series,
    herding_stats,
)
from .recursions import iterate_recursion, lemma3_sandwich, lemma4_classify, rate_recursion, type1_lower_bound
from .topology import MemorySchedule, backward_search_depth, chain_success_probability


class UnknownPresetError(ValueError):
    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(f"unknown preset {name!r}; known presets: {', '.join(known)}")


@dataclass(frozen=True)
class Overrides:
    """CLI-level knobs: seed / trials / stages replace the preset defaults
    when set, threads parallelises the Monte Carlo blocks."""

    seed: int | None = None
    trials: int | None = None
    stages: int | None = None
    threads: int = 1


_NO_OVERRIDES = Overrides()


def _hash_payload(payload: dict) -> str:
    import hashlib

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _check(name: str, value, target, comparator: str, informational: bool = False) -> dict:
    ops = {
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b,
    }
    value = _jsonable(value)
    target = _jsonable(target)
    passed = True if informational else bool(ops[comparator](value, target))
    return {
        "name": name,
        "value": value,
        "target": target,
        "comparator": comparator,
        "informational": informational,
        "passed": passed,
    }


def _series_columns(series: SeriesResult, value_name: str, extras: tuple[str, ...] = ()) -> dict:
    cols = {"k": series.stages, value_name: series.values}
    for name in extras:
        cols[name] = series.extra[name]
    return cols


def _mc_columns(series: SeriesResult) -> dict:
    return _series_columns(series, "pe_hat", ("ci_low", "ci_high", "p0_type1_hat", "p1_type2_hat"))


def _mc_info(series: SeriesResult) -> dict:
    return {key: series.meta[key] for key in ("seed", "config_hash", "clamp_events")}


def _apply_mc(config: ExperimentConfig, ov: Overrides) -> ExperimentConfig:
    kw = {}
    if ov.seed is not None:
        kw["seed"] = ov.seed
    if ov.trials is not None:
        kw["trials"] = ov.trials
    if ov.stages is not None:
        kw["stages"] = ov.stages
    return replace(config, **kw) if kw else config


# ---------------------------------------------------------------------------
# exact window recursions


def _preset_lemma1_martingale(out: Path, ov: Overrides):
    k_max = min(ov.stages, 14) if ov.stages is not None else 12
    model = BeliefModel(0.0)
    sched = FlipSchedule("constant", q=0.25)
    rep = martingale_check(sched, model, k_max)
    meta = {"producer": "martingale", "config_hash": _hash_payload({"q": 0.25, "k_max": k_max}), "seed": 0}
    write_series_csv(
        out / "series.csv",
        {"k": np.arange(1, k_max + 1), "max_deviation": rep.stage_deviations, "tail_mass": rep.tail_mass},
        meta,
    )
    checks = [_check("max_martingale_deviation", rep.max_deviation, 1e-10, "<")]
    return checks, ["series.csv"], {"seed": 0, "config_hash": meta["config_hash"]}


def _exact_tail_checks(series: SeriesResult, stages: int, label: str) -> list[dict]:
    half = series.value_at(stages // 2)
    full = series.value_at(stages)
    return [
        _check(f"{label}_tail_gap", abs(full - half), 1e-6, "<"),
        _check(f"{label}_positive_floor", full, 0.005, ">"),
    ]


def _preset_thm_flip_bounded(out: Path, ov: Overrides):
    stages = ov.stages or 2000
    model = BeliefModel(0.0)
    sched = FlipSchedule("constant", q=0.2)
    checks = []
    files = []
    payload = {"q": 0.2, "stages": stages, "capacities": [1, 3]}
    h = _hash_payload(payload)
    for cap in (1, 3):
        series = exact_error_series(model, sched, MemorySchedule("bounded", capacity=cap), stages)
        name = f"series_c{cap}.csv"
        write_series_csv(
            out / name,
            _series_columns(series, "pe_exact", ("p0_type1", "p1_type2")),
            {"producer": "exact", "config_hash": h, "seed": 0},
        )
        files.append(name)
        checks.extend(_exact_tail_checks(series, stages, f"c{cap}"))
    return checks, files, {"seed": 0, "config_hash": h}


def _preset_thm_erasure_bounded(out: Path, ov: Overrides):
    stages = ov.stages or 2000
    model = BeliefModel(0.0)
    sched = ErasureSchedule("constant", level=0.3)
    series = exact_error_series(model, sched, MemorySchedule("bounded", capacity=2), stages)
    h = _hash_payload({"level": 0.3, "capacity": 2, "stages": stages})
    write_series_csv(
        out / "series.csv",
        _series_columns(series, "pe_exact", ("p0_type1", "p1_type2")),
        {"producer": "exact", "config_hash": h, "seed": 0},
    )
    checks = _exact_tail_checks(series, stages, "c2")
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _preset_mc_vs_exact(out: Path, ov: Overrides):
    stages = ov.stages or 100
    model = BeliefModel(0.0)
    sched = FlipSchedule("constant", q=0.2)
    memory = MemorySchedule("bounded", capacity=1)
    config = _apply_mc(
        ExperimentConfig(model, sched, memory, stages=stages, trials=100_000, seed=1105,
                         grid=tuple(range(1, stages + 1))),
        ov,
    )
    mc = estimate_error_series(config, threads=ov.threads)
    exact = exact_error_series(model, sched, memory, config.stages)
    p0 = exact.extra["p0_type1"]
    p1 = exact.extra["p1_type2"]
    n = config.trials
    sigma = np.sqrt(
        model.prior_0**2 * p0 * (1.0 - p0) / n + model.prior_1**2 * p1 * (1.0 - p1) / n
    )
    gap = np.abs(mc.values - exact.values)
    within = gap <= 3.0 * sigma
    coverage = float(within.mean())
    write_series_csv(out / "series.csv", _mc_columns(mc), {
        "producer": "simulate", "config_hash": mc.meta["config_hash"], "seed": config.seed,
    })
    write_series_csv(out / "exact.csv", _series_columns(exact, "pe_exact", ("p0_type1", "p1_type2")), {
        "producer": "exact", "config_hash": mc.meta["config_hash"], "seed": config.seed,
    })
    checks = [_check("three_sigma_coverage", coverage, 0.95, ">=")]
    return checks, ["series.csv", "exact.csv"], _mc_info(mc)


# ---------------------------------------------------------------------------
# Monte Carlo limits


def _preset_thm_flip_learning(out: Path, ov: Overrides):
    config = _apply_mc(
        ExperimentConfig(
            BeliefModel(0.0), FlipSchedule("constant", q=0.1), MemorySchedule("full"),
            stages=2000, trials=20_000, seed=1101,
        ),
        ov,
    )
    series = estimate_error_series(config, threads=ov.threads)
    early, late = 10, config.stages
    write_series_csv(out / "series.csv", _mc_columns(series), {
        "producer": "simulate", "config_hash": series.meta["config_hash"], "seed": config.seed,
    })
    checks = [
        _check("error_drops_fivefold", series.value_at(late), series.value_at(early) / 5.0, "<"),
        _check("ci_disjoint", series.extra_at("ci_high", late), series.extra_at("ci_low", early), "<"),
    ]
    return checks, ["series.csv"], _mc_info(series)


def _preset_thm_erasure_unbounded(out: Path, ov: Overrides):
    config = _apply_mc(
        ExperimentConfig(
            BeliefModel(0.0), ErasureSchedule("constant", level=0.9), MemorySchedule("full"),
            stages=2000, trials=20_000, seed=1102, calibration_trials=2000,
        ),
        ov,
    )
    series = estimate_error_series(config, threads=ov.threads)
    early, late = 10, config.stages
    write_series_csv(out / "series.csv", _mc_columns(series), {
        "producer": "simulate", "config_hash": series.meta["config_hash"], "seed": config.seed,
    })
    fit = fit_power(series, k_min=100)
    checks = [
        _check("error_decreases", series.value_at(late), series.value_at(early), "<"),
        _check("ci_disjoint", series.extra_at("ci_high", late), series.extra_at("ci_low", early), "<"),
        # the clean square-root law needs horizons far beyond feasible Monte
        # Carlo, so the fitted exponent is recorded, not asserted
        _check("fitted_decay_exponent", fit.slope, None, "==", informational=True),
    ]
    return checks, ["series.csv"], _mc_info(series)


def _preset_thm_erasure_to_one(out: Path, ov: Overrides):
    trials = ov.trials or 100_000
    seed = ov.seed if ov.seed is not None else 1103
    hops = 10
    lv_fixed = 0.5
    lv_rising = float(erasure_levels(ErasureSchedule("theorem4", c=1.0, eps=2.0), np.asarray([hops]))[0][0])
    rows = []
    checks = []
    for idx, lv in enumerate((lv_fixed, lv_rising), start=1):
        bound = chain_success_probability(lv, hops)
        est = estimate_chain_success(lv, hops, trials, seed + idx)
        sigma = math.sqrt(max(est.p_hat * (1.0 - est.p_hat), 1e-12) / trials)
        rows.append((idx, lv, hops, est.p_hat, est.ci_low, est.ci_high, bound))
        checks.append(_check(f"case{idx}_chain_success", est.p_hat, bound - 3.0 * sigma, ">="))
    h = _hash_payload({"hops": hops, "levels": [lv_fixed, lv_rising], "trials": trials, "seed": seed})
    cols = list(zip(*rows))
    write_series_csv(
        out / "series.csv",
        {
            "case": np.asarray(cols[0]), "level": np.asarray(cols[1]), "hops": np.asarray(cols[2]),
            "p_hat": np.asarray(cols[3]), "ci_low": np.asarray(cols[4]), "ci_high": np.asarray(cols[5]),
            "bound": np.asarray(cols[6]),
        },
        {"producer": "chain", "config_hash": h, "seed": seed},
    )
    return checks, ["series.csv"], {"seed": seed, "config_hash": h}


def _preset_thm9_herding(out: Path, ov: Overrides):
    stages = ov.stages or 5000
    trials = ov.trials or 10_000
    seed = ov.seed if ov.seed is not None else 1104
    model = BeliefModel(0.0)
    memory = MemorySchedule("full")
    horizons = (stages // 2, stages)
    cases = {
        "slowing": FlipSchedule("power", p=0.4),
        "constant": FlipSchedule("constant", q=0.05),
    }
    late = {}
    rows = []
    row_idx = 0
    for case_idx, (label, sched) in enumerate(cases.items(), start=1):
        for horizon in horizons:
            config = ExperimentConfig(model, sched, memory, stages=horizon, trials=trials, seed=seed)
            rep = herding_stats(config, threads=ov.threads)
            late[(label, horizon)] = rep.combined_late_fraction
            for h, row in enumerate(rep.rows):
                row_idx += 1
                rows.append((row_idx, case_idx, horizon, h, row.late_error_fraction, row.q50, row.q90, row.q99))
    hash_ = _hash_payload({"stages": stages, "trials": trials, "seed": seed})
    cols = list(zip(*rows))
    write_series_csv(
        out / "series.csv",
        {
            "row": np.asarray(cols[0]), "case": np.asarray(cols[1]), "stages": np.asarray(cols[2]),
            "hypothesis": np.asarray(cols[3]), "late_error_fraction": np.asarray(cols[4]),
            "q50": np.asarray(cols[5]), "q90": np.asarray(cols[6]), "q99": np.asarray(cols[7]),
        },
        {"producer": "herding", "config_hash": hash_, "seed": seed},
    )
    checks = [
        _check(
            "slowing_channel_stays_late",
            late[("slowing", horizons[1])],
            late[("slowing", horizons[0])] - 0.05,
            ">=",
        ),
        _check(
            "constant_channel_recovers",
            late[("constant", horizons[1])],
            late[("constant", horizons[0])],
            "<",
        ),
    ]
    return checks, ["series.csv"], {"seed": seed, "config_hash": hash_}


# ---------------------------------------------------------------------------
# deterministic rate recursions


def _recursion_preset(out: Path, ov: Overrides, *, model, sched, initial, stages, checks_fn, payload):
    stages = ov.stages or stages
    spec = rate_recursion(model, sched, initial)
    series = iterate_recursion(spec, stages)
    bound = type1_lower_bound(series, model)
    h = _hash_payload(dict(payload, stages=stages, initial=initial))
    write_series_csv(
        out / "series.csv",
        {"k": series.stages, "b_k": series.values, "type1_bound": bound.values},
        {"producer": "recursion", "config_hash": h, "seed": 0},
    )
    checks = checks_fn(series, bound)
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _preset_thm_rate_k2(out: Path, ov: Overrides):
    def checks_fn(series, bound):
        belief_fit = fit_power(series, k_min=1000)
        bound_fit = fit_power(bound, k_min=1000)
        return [
            _check("belief_slope_low", belief_fit.slope, -1.05, ">="),
            _check("belief_slope_high", belief_fit.slope, -0.95, "<="),
            _check("bound_slope_low", bound_fit.slope, -2.1, ">="),
            _check("bound_slope_high", bound_fit.slope, -1.9, "<="),
        ]

    return _recursion_preset(
        out, ov, model=BeliefModel(0.0), sched=FlipSchedule("constant", q=0.1),
        initial=0.5, stages=1_000_000, checks_fn=checks_fn,
        payload={"channel": "constant_q_0.1", "beta": 0},
    )


def _preset_thm10_poly(out: Path, ov: Overrides):
    def checks_fn(series, bound):
        belief_fit = fit_power(series, k_min=1000)
        bound_fit = fit_power(bound, k_min=1000)
        return [
            _check("belief_slope_low", belief_fit.slope, -0.55, ">="),
            _check("belief_slope_high", belief_fit.slope, -0.45, "<="),
            _check("bound_slope_low", bound_fit.slope, -1.6, ">="),
            _check("bound_slope_high", bound_fit.slope, -1.4, "<="),
        ]

    return _recursion_preset(
        out, ov, model=BeliefModel(1.0), sched=FlipSchedule("constant", q=0.1),
        initial=0.3, stages=1_000_000, checks_fn=checks_fn,
        payload={"channel": "constant_q_0.1", "beta": 1},
    )


def _preset_thm7_plateau(out: Path, ov: Overrides):
    stages = ov.stages or 10_000_000
    model = BeliefModel(0.0)
    sched = FlipSchedule("log_power", p=2.0)
    spec = rate_recursion(model, sched, initial=0.3)
    cls = lemma4_classify(spec, stages, tol=5e-3)
    series = iterate_recursion(spec, stages)
    h = _hash_payload({"family": "log_power", "p": 2.0, "stages": stages})
    write_series_csv(out / "series.csv", {"k": series.stages, "b_k": series.values},
                     {"producer": "recursion", "config_hash": h, "seed": 0})
    checks = [
        _check("label", cls.label, "positive_limit", "=="),
        _check("plateau_above_tenth_of_start", cls.estimate, 0.1 * 0.3, ">"),
    ]
    info = {"seed": 0, "config_hash": h, "checkpoints": list(cls.checkpoints), "checkpoint_values": list(cls.values)}
    return checks, ["series.csv"], info


def _thm8_run(out: Path, ov: Overrides, sched: FlipSchedule, stages: int):
    stages = ov.stages or stages
    model = BeliefModel(0.0)
    spec = rate_recursion(model, sched, initial=0.3)
    series = iterate_recursion(spec, stages)
    h = _hash_payload({"family": sched.family, "p": sched.p, "stages": stages})
    write_series_csv(out / "series.csv", {"k": series.stages, "b_k": series.values},
                     {"producer": "recursion", "config_hash": h, "seed": 0})
    return series, h


def _preset_thm8_i(out: Path, ov: Overrides):
    series, h = _thm8_run(out, ov, FlipSchedule("power", p=0.5), 1_000_000)
    fit = fit_power(series, k_min=1000)
    checks = [
        _check("belief_slope_low", fit.slope, -0.55, ">="),
        _check("belief_slope_high", fit.slope, -0.45, "<="),
    ]
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _preset_thm8_ii(out: Path, ov: Overrides):
    series, h = _thm8_run(out, ov, FlipSchedule("reciprocal"), 1_000_000)
    fit = fit_reciprocal_log(series, "log", k_min=1000)
    checks = [
        _check("reciprocal_in_log_r2", fit.r2, 0.999, ">"),
        _check("log_coefficient", fit.slope, None, "==", informational=True),
    ]
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _preset_thm8_iii(out: Path, ov: Overrides):
    series, h = _thm8_run(out, ov, FlipSchedule("log_power", p=0.5), 10_000_000)
    # fit the accumulated growth of 1/b: the starting value is an additive
    # constant inside the log and would drag the fitted exponent down at any
    # reachable horizon
    growth = SeriesResult(series.stages, 1.0 / series.values - 1.0 / series.values[0])
    fit = fit_power_of_log(growth, k_min=1000)
    raw_fit = fit_power_of_log(SeriesResult(series.stages, 1.0 / series.values), k_min=1000)
    checks = [
        _check("growth_exponent_low", fit.slope, 0.5 - 0.07, ">="),
        _check("growth_exponent_high", fit.slope, 0.5 + 0.07, "<="),
        _check("raw_exponent_with_offset", raw_fit.slope, None, "==", informational=True),
    ]
    info = {
        "seed": 0,
        "config_hash": h,
        "note": (
            "the growth of 1/b is fitted against powers of log k and compared "
            "to 1 - p; no exponent s with 1/s + 1/p = 1 exists for p inside "
            "(0, 1), so 1 - p is the comparison target"
        ),
    }
    return checks, ["series.csv"], info


def _preset_thm8_iv(out: Path, ov: Overrides):
    series, h = _thm8_run(out, ov, FlipSchedule("log"), 1_000_000)
    fit = fit_reciprocal_log(series, "loglog", k_min=1000)
    checks = [
        _check("reciprocal_in_loglog_r2", fit.r2, 0.99, ">"),
    ]
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _preset_lemma3_n1(out: Path, ov: Overrides):
    return _lemma3_common(out, ov, exponent=1, delta=1.0, slope_target=-1.0)


def _preset_lemma3_n2(out: Path, ov: Overrides):
    return _lemma3_common(out, ov, exponent=2, delta=0.5, slope_target=-0.5)


def _lemma3_common(out: Path, ov: Overrides, *, exponent, delta, slope_target):
    from .recursions import RecursionSpec

    stages = ov.stages or 1_000_000
    k_min = min(1000, max(10, stages // 100))
    spec = RecursionSpec(initial=0.5, exponent=exponent, delta=delta)
    sandwich = lemma3_sandwich(spec, k_min, stages)
    series = iterate_recursion(spec, stages)
    fit = fit_power(series, k_min=k_min)
    h = _hash_payload({"exponent": exponent, "delta": delta, "stages": stages})
    write_series_csv(out / "series.csv", {"k": series.stages, "c_k": series.values},
                     {"producer": "recursion", "config_hash": h, "seed": 0})
    checks = [
        _check("sandwich_band", sandwich.high / sandwich.low, 2.0, "<"),
        _check("slope_low", fit.slope, slope_target - 0.02, ">="),
        _check("slope_high", fit.slope, slope_target + 0.02, "<="),
    ]
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _preset_lemma4_div(out: Path, ov: Overrides):
    return _lemma4_common(out, ov, kind="divergent", expected="converges_to_zero")


def _preset_lemma4_sum(out: Path, ov: Overrides):
    return _lemma4_common(out, ov, kind="summable", expected="positive_limit")


def _lemma4_common(out: Path, ov: Overrides, *, kind, expected):
    from .recursions import RecursionSpec

    stages = ov.stages or 10_000_000
    delta = (lambda ks: 1.0 / ks) if kind == "divergent" else (lambda ks: ks**-1.5)
    spec = RecursionSpec(initial=0.5, exponent=1, delta=delta)
    cls = lemma4_classify(spec, stages, tol=1e-3)
    h = _hash_payload({"kind": kind, "stages": stages})
    write_series_csv(
        out / "series.csv",
        {"k": np.asarray(cls.checkpoints), "c_k": np.asarray(cls.values)},
        {"producer": "recursion", "config_hash": h, "seed": 0},
    )
    checks = [_check("label", cls.label, expected, "==")]
    info = {"seed": 0, "config_hash": h, "estimate": cls.estimate, "relative_changes": list(cls.relative_changes)}
    return checks, ["series.csv"], info


# ---------------------------------------------------------------------------
# relay-depth scaling


def _prop1_series(schedule: MemorySchedule, stages: int) -> SeriesResult:
    from .analysis import default_grid

    grid = default_grid(stages)
    vals = np.asarray([backward_search_depth(schedule, int(k)) for k in grid], dtype=float)
    return SeriesResult(grid, vals, meta={"producer": "depth"})


def _preset_prop1_full(out: Path, ov: Overrides):
    stages = ov.stages or 1_000_000
    schedule = MemorySchedule("full")
    exact = all(
        backward_search_depth(schedule, k) == math.isqrt(k - 1) for k in range(2, stages + 1)
    )
    series = _prop1_series(schedule, stages)
    h = _hash_payload({"family": "full", "stages": stages})
    write_series_csv(out / "series.csv", {"k": series.stages, "depth": series.values},
                     {"producer": "depth", "config_hash": h, "seed": 0})
    checks = [_check("depth_is_isqrt_everywhere", exact, True, "==")]
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _prop1_band(out: Path, ov: Overrides, *, schedule, rate, label, stages_default=1_000_000):
    stages = ov.stages or stages_default
    series = _prop1_series(schedule, stages)
    k_min = min(1000, max(10, stages // 100))
    low, high = theta_sandwich(series, rate, k_min=k_min)
    h = _hash_payload({"family": schedule.family, "sigma": schedule.sigma, "stages": stages})
    write_series_csv(out / "series.csv", {"k": series.stages, "depth": series.values},
                     {"producer": "depth", "config_hash": h, "seed": 0})
    checks = [_check(f"{label}_band", high / low, 3.0, "<")]
    return checks, ["series.csv"], {"seed": 0, "config_hash": h}


def _preset_prop1_sigma03(out: Path, ov: Overrides):
    return _prop1_band(
        out, ov, schedule=MemorySchedule("power", sigma=0.3),
        rate=lambda ks: ks**0.3, label="sigma03",
    )


def _preset_prop1_sigma05(out: Path, ov: Overrides):
    return _prop1_band(
        out, ov, schedule=MemorySchedule("power", sigma=0.5),
        rate=np.sqrt, label="sigma05",
    )


PRESETS = {
    "lemma1_martingale": _preset_lemma1_martingale,
    "lemma3_n1": _preset_lemma3_n1,
    "lemma3_n2": _preset_lemma3_n2,
    "lemma4_div": _preset_lemma4_div,
    "lemma4_sum": _preset_lemma4_sum,
    "mc_vs_exact": _preset_mc_vs_exact,
    "prop1_full": _preset_prop1_full,
    "prop1_sigma03": _preset_prop1_sigma03,
    "prop1_sigma05": _preset_prop1_sigma05,
    "thm10_poly": _preset_thm10_poly,
    "thm7_plateau": _preset_thm7_plateau,
    "thm8_i": _preset_thm8_i,
    "thm8_ii": _preset_thm8_ii,
    "thm8_iii": _preset_thm8_iii,
    "thm8_iv": _preset_thm8_iv,
    "thm9_herding": _preset_thm9_herding,
    "thm_erasure_bounded": _preset_thm_erasure_bounded,
    "thm_erasure_to_one": _preset_thm_erasure_to_one,
    "thm_erasure_unbounded": _preset_thm_erasure_unbounded,
    "thm_flip_bounded": _preset_thm_flip_bounded,
    "thm_flip_learning": _preset_thm_flip_learning,
    "thm_rate_k2": _preset_thm_rate_k2,
}

PRESET_INFO = {
    "lemma1_martingale": "exhaustive check that the noisy public likelihood ratio is a martingale",
    "lemma3_n1": "constant-delta recursion, exponent 1: tight 1/k band",
    "lemma3_n2": "constant-delta recursion, exponent 2: tight 1/sqrt(k) band",
    "lemma4_div": "divergent delta sum drives the recursion to zero",
    "lemma4_sum": "summable delta sum leaves a positive limit",
    "mc_vs_exact": "Monte Carlo tandem agrees with the exact window recursion",
    "prop1_full": "relay depth with full memory equals isqrt(k - 1) exactly",
    "prop1_sigma03": "relay depth with k**0.3 windows scales like k**0.3",
    "prop1_sigma05": "relay depth with k**0.5 windows scales like sqrt(k)",
    "thm10_poly": "polynomial signal tails: belief decays like 1/sqrt(k), bound like k**-1.5",
    "thm7_plateau": "flips growing at the summability edge still leave a positive plateau",
    "thm8_i": "power informativeness p=0.5: belief decays like k**-0.5",
    "thm8_ii": "reciprocal informativeness: 1/belief is affine in log k",
    "thm8_iii": "log_power informativeness p=0.5: 1/belief grows like a power of log k",
    "thm8_iv": "log informativeness: 1/belief is affine in log log k",
    "thm9_herding": "late-error mass persists under slowing flips, vanishes under constant ones",
    "thm_erasure_bounded": "bounded memory over an erasure channel pins the error above a floor",
    "thm_erasure_to_one": "relay chains survive erasure levels that climb to one",
    "thm_erasure_unbounded": "unbounded memory defeats constant erasure: error keeps falling",
    "thm_flip_bounded": "bounded memory over a flip channel pins the error above a floor",
    "thm_flip_learning": "full memory over a flip channel: error falls and keeps falling",
    "thm_rate_k2": "constant informativeness: belief decays like 1/k, bound like 1/k**2",
}


def list_presets() -> list[str]:
    return sorted(PRESETS)


def run_preset(name: str, out_dir, overrides: Overrides = _NO_OVERRIDES) -> dict:
    """Run one preset, write its CSVs and verdict.json under out_dir, and
    return the verdict dict."""
    if name not in PRESETS:
        raise UnknownPresetError(name, list_presets())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    checks, files, info = PRESETS[name](out, overrides)
    verdict = {
        "preset": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "files": files,
        "runtime_seconds": round(time.perf_counter() - t0, 3),
    }
    verdict.update(info)
    with open(out / "verdict.json", "w", encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return verdict
