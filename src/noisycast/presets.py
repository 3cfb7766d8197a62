"""Named experiment presets: one per claimed limit or rate law.

PRESETS is the registry, and each claim is stated once, in its entry: a
description, the default stages, trials and seed, and a runner.  The runner
takes the effective settings, an Overrides in which each override replaces
the default it names; an override of a setting the preset leaves unset is
refused with a PresetError before anything runs.  It returns an Outcome:
the tables to write, the checks, and the payload that names the run.
run_preset does the rest for every preset: it applies the overrides,
names the run by analysis.config_hash of the payload, writes each table as
a CSV under a ``# config_hash producer seed`` line, and writes
verdict.json.  A config file runs the same way, as config_preset's unnamed
preset with no checks.

A check is one acceptance threshold.  Checks marked informational report a
number without gating the verdict; they record rates that are known not to
be reproducible at feasible horizons.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    SeriesResult,
    check_count,
    config_hash,
    default_grid,
    fit_power,
    fit_power_of_log,
    fit_reciprocal_log,
    theta_sandwich,
    write_series_csv,
)
from .belief_model import BeliefModel
from .channels import ErasureSchedule, FlipSchedule, erasure_levels
from .exact_dp import MartingaleReport, exact_error_series, martingale_check, scan_error_series
from .montecarlo import ExperimentConfig, estimate_error_series, herding_stats
from .recursions import (
    RecursionSpec,
    iterate_recursion,
    lemma3_sandwich,
    lemma4_classify,
    rate_recursion,
    type1_lower_bound,
)
from .topology import MemorySchedule, backward_search_depth, chain_success_probability, memory_size


class PresetError(ValueError):
    """A preset name or override that run_preset refuses before it runs."""


class UnknownPresetError(PresetError):
    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(f"unknown preset {name!r}; known presets: {', '.join(known)}")


@dataclass(frozen=True)
class Overrides:
    """Run settings: seed / trials / stages replace the preset defaults
    when set (run_preset refuses one the preset does not declare), threads
    parallelises the Monte Carlo blocks.  Each set value is a count stored
    as check_count's int: a seed in uint64, the rest from 1."""

    seed: int | None = None
    trials: int | None = None
    stages: int | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        for name, low, high in (("seed", 0, 2**64), ("trials", 1, math.inf), ("stages", 1, math.inf),
                                ("threads", 1, math.inf)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_count(getattr(self, name), name, low, high))


_NO_OVERRIDES = Overrides()


class Outcome(NamedTuple):
    """What a runner computed: file name -> (producer, columns), the checks,
    the payload that run_preset hashes, and extra verdict entries."""

    tables: dict
    checks: list
    payload: object
    info: dict = {}


@dataclass(frozen=True)
class Preset:
    """One registry entry: the claim, its default settings (None where the
    preset has no such setting) and the runner that checks it."""

    description: str
    run: Callable[[Overrides], Outcome]
    stages: int | None = None
    trials: int | None = None
    seed: int | None = None


_OPS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _check(name: str, value, target, comparator: str, informational: bool = False) -> dict:
    value, target = (x.item() if isinstance(x, np.generic) else x for x in (value, target))
    return {
        "name": name,
        "value": value,
        "target": target,
        "comparator": comparator,
        "informational": informational,
        "passed": True if informational else bool(_OPS[comparator](value, target)),
    }


def _band(label: str, value, low, high) -> list[dict]:
    return [_check(f"{label}_low", value, low, ">="), _check(f"{label}_high", value, high, "<=")]


# CSV layouts


def _exact_columns(series: SeriesResult) -> dict:
    return {"k": series.stages, "pe_exact": series.values, **{n: series.extra[n] for n in ("p0_type1", "p1_type2")}}


def _mc_columns(series: SeriesResult) -> dict:
    extras = ("ci_low", "ci_high", "p0_type1_hat", "p1_type2_hat")
    return {"k": series.stages, "pe_hat": series.values, **{n: series.extra[n] for n in extras}}


def _martingale_columns(rep: MartingaleReport) -> dict:
    return {"k": rep.errors.stages, "max_deviation": rep.stage_deviations, "tail_mass": rep.tail_mass}


def _recursion_columns(series: SeriesResult, bound: SeriesResult | None = None) -> dict:
    """The belief recursion b_k, and its type-1 lower bound when given."""
    return {"k": series.stages, "b_k": series.values, **({} if bound is None else {"type1_bound": bound.values})}


def _rows_to_columns(names: str, rows: list) -> dict:
    return {name: np.asarray(column) for name, column in zip(names.split(), zip(*rows))}


# ---------------------------------------------------------------------------
# exact window recursions


def _martingale(p: Overrides) -> Outcome:
    rep = martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), p.stages)
    checks = [_check("max_martingale_deviation", rep.max_deviation, 1e-10, "<")]
    return Outcome({"series.csv": ("martingale", _martingale_columns(rep))}, checks, {"q": 0.25, "k_max": p.stages})


def _window_floor(p: Overrides, *, channel, files: dict, payload: dict) -> Outcome:
    """Bounded memory pins the exact error: flat over the second half, and
    above a floor.  files maps each window capacity to its CSV."""
    tables, checks = {}, []
    for cap, name in files.items():
        series = exact_error_series(BeliefModel(0.0), channel, MemorySchedule("bounded", capacity=cap), p.stages)
        tables[name] = ("exact", _exact_columns(series))
        half, full = series.value_at(p.stages // 2), series.value_at(p.stages)
        checks += [
            _check(f"c{cap}_tail_gap", abs(full - half), 1e-6, "<"),
            _check(f"c{cap}_positive_floor", full, 0.005, ">"),
        ]
    return Outcome(tables, checks, dict(payload, stages=p.stages))


# ---------------------------------------------------------------------------
# Monte Carlo and its exact reference


def reference(config: ExperimentConfig) -> SeriesResult:
    """The exact errors of config's chain at stages 1..stages, as
    exact_error_series gives them: from the window recursion for bounded
    memory, the scan over erasures, and for a full-memory flip chain the
    history enumeration, which refuses more stages than MAX_MARTINGALE_DEPTH."""
    if config.memory.family == "bounded":
        return exact_error_series(config.model, config.channel, config.memory, config.stages)
    if isinstance(config.channel, ErasureSchedule):
        return scan_error_series(config.model, config.channel, config.memory, config.stages)[0]
    return martingale_check(config.channel, config.model, config.stages).errors


def cross_check(mc: SeriesResult, ref: SeriesResult, alpha: float) -> dict:
    """The verdict check that mc's error counts fit ref's exact rates, at false-failure rate alpha.

    Count x = err_h at a grid stage is Binomial(n, p), p ref's rate there (ref
    covers stages 1..K), and 2 exp(-n KL(x/n || p)) bounds the chance of a
    count that far from n p (Chernoff, Ann. Math. Stat. 1952).  The check
    passes iff m * min(bound) >= alpha over the m counts, so correct code
    fails it with probability at most alpha whatever the correlation between
    stages; a zero rate passes only a zero count.  It records alpha, the
    worst count's stage, hypothesis and z, and the union bound."""
    n = mc.meta["trials"]
    x = np.stack([mc.extra["err0"], mc.extra["err1"]])
    p, a = np.stack([ref.extra["p0_type1"], ref.extra["p1_type2"]])[:, mc.stages - 1], x / n
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 = 0
        kl = np.where(a > 0, a * np.log(a / p), 0.0) + np.where(a < 1, (1 - a) * np.log((1 - a) / (1 - p)), 0.0)
    bound = 2.0 * np.exp(-n * kl)
    h, i = np.unravel_index(np.argmin(bound), bound.shape)
    gap, se = float(x[h, i] - n * p[h, i]), math.sqrt(n * p[h, i] * (1.0 - p[h, i]))
    z = gap / se if se > 0.0 else (math.copysign(math.inf, gap) if gap else 0.0)
    union = float(bound.size * bound[h, i])
    return {**_check("cross_check", union, alpha, ">="), "alpha": alpha, "stage": int(mc.stages[i]),
            "hypothesis": int(h), "z": z, "union_bound": union}


def _simulate(p: Overrides, model, channel, memory, grid=None):
    config = ExperimentConfig(model, channel, memory, stages=p.stages, trials=p.trials, seed=p.seed, grid=grid)
    series = estimate_error_series(config, threads=p.threads)
    return config, series, {"clamp_events": series.meta["clamp_events"]}


def _mc_vs_exact(p: Overrides) -> Outcome:
    channel, memory = FlipSchedule("constant", q=0.2), MemorySchedule("bounded", capacity=1)
    config, mc, info = _simulate(p, BeliefModel(0.0), channel, memory, grid=tuple(range(1, p.stages + 1)))
    exact = reference(config)
    tables = {"series.csv": ("simulate", _mc_columns(mc)), "exact.csv": ("exact", _exact_columns(exact))}
    return Outcome(tables, [cross_check(mc, exact, 1e-4)], config, info)


def _flip_learning(p: Overrides) -> Outcome:
    config, series, info = _simulate(p, BeliefModel(0.0), FlipSchedule("constant", q=0.1), MemorySchedule("full"))
    early, late = 10, p.stages
    checks = [
        _check("error_drops_fivefold", series.value_at(late), series.value_at(early) / 5.0, "<"),
        _check("ci_disjoint", series.extra_at("ci_high", late), series.extra_at("ci_low", early), "<"),
    ]
    return Outcome({"series.csv": ("simulate", _mc_columns(series))}, checks, config, info)


def _erasure_unbounded(p: Overrides) -> Outcome:
    config, series, info = _simulate(p, BeliefModel(0.0), ErasureSchedule("constant", level=0.9),
                                   MemorySchedule("full"))
    exact = reference(config)
    early, late = 10, p.stages
    checks = [
        _check("error_decreases", series.value_at(late), series.value_at(early), "<"),
        _check("ci_disjoint", series.extra_at("ci_high", late), series.extra_at("ci_low", early), "<"),
        cross_check(series, exact, 1e-4),
        # recorded, not asserted: at beta = 0 the exact series decays like
        # 1 / ((1 - level) k), a slope that reaches -1 only far past k = 100
        _check("fitted_decay_exponent", fit_power(series, k_min=100).slope, None, "==", informational=True),
        _check("exact_final_error", exact.value_at(late), None, "==", informational=True),
        _check("exact_decay_exponent", fit_power(exact, k_min=100).slope, None, "==", informational=True),
    ]
    return Outcome({"series.csv": ("simulate", _mc_columns(series))}, checks, config, info)


def _erasure_to_one(p: Overrides) -> Outcome:
    hops, rising = 10, ErasureSchedule("theorem4", c=1.0, eps=2.0)
    levels = [0.5, float(erasure_levels(rising, np.asarray([hops]))[0][0])]
    rows = [(idx, lv, hops, chain_success_probability(lv, hops)) for idx, lv in enumerate(levels, start=1)]
    checks = [_check(f"case{idx}_chain_success", bound, None, "==", informational=True) for idx, *_, bound in rows]
    # the scan itself over levels that climb to one: the exact error keeps
    # falling, decade after decade
    decades = [10**i for i in range(1, 6)]
    scan, _ = scan_error_series(BeliefModel(0.0), rising, MemorySchedule("full"), decades[-1])
    pe = [scan.value_at(k) for k in decades]
    checks.append(_check("scan_error_falls_each_decade", all(np.diff(pe) < 0), True, "=="))
    checks.append(_check("scan_error_at_decades", pe, None, "==", informational=True))
    tables = {"series.csv": ("chain", _rows_to_columns("case level hops bound", rows))}
    return Outcome(tables, checks, {"hops": hops, "levels": levels})


def _herding(p: Overrides) -> Outcome:
    horizons = (p.stages // 2, p.stages)
    cases = {"slowing": FlipSchedule("power", p=0.4), "constant": FlipSchedule("constant", q=0.05)}
    late, rows = {}, []
    for case_idx, (label, sched) in enumerate(cases.items(), start=1):
        for horizon in horizons:
            config = ExperimentConfig(BeliefModel(0.0), sched, MemorySchedule("full"), stages=horizon,
                                      trials=p.trials, seed=p.seed)
            rep = herding_stats(config, threads=p.threads)
            late[label, horizon] = rep.combined_late_fraction
            for h, row in enumerate(rep.rows):
                rows.append((len(rows) + 1, case_idx, horizon, h, row.late_error_fraction, row.q50, row.q90, row.q99))
    half, full = horizons
    checks = [
        _check("slowing_channel_stays_late", late["slowing", full], late["slowing", half] - 0.05, ">="),
        _check("constant_channel_recovers", late["constant", full], late["constant", half], "<"),
    ]
    names = "row case stages hypothesis late_error_fraction q50 q90 q99"
    tables = {"series.csv": ("herding", _rows_to_columns(names, rows))}
    return Outcome(tables, checks, {"stages": p.stages, "trials": p.trials, "seed": p.seed})


# ---------------------------------------------------------------------------
# deterministic rate recursions


def _rate_law(p: Overrides, *, beta: int, initial: float, belief: tuple, bound: tuple) -> Outcome:
    """Belief and type-1 bound both decay like powers of k; belief and bound
    are the (low, high) bands of the two fitted slopes."""
    model = BeliefModel(float(beta))
    series = iterate_recursion(rate_recursion(model, FlipSchedule("constant", q=0.1), initial), p.stages)
    lower = type1_lower_bound(series, model)
    checks = (_band("belief_slope", fit_power(series, k_min=1000).slope, *belief)
              + _band("bound_slope", fit_power(lower, k_min=1000).slope, *bound))
    payload = {"channel": "constant_q_0.1", "beta": beta, "stages": p.stages, "initial": initial}
    return Outcome({"series.csv": ("recursion", _recursion_columns(series, lower))}, checks, payload)


def _plateau(p: Overrides) -> Outcome:
    spec = rate_recursion(BeliefModel(0.0), FlipSchedule("log_power", p=2.0), initial=0.3)
    cls = lemma4_classify(spec, p.stages, tol=5e-3)
    checks = [
        _check("label", cls.label, "positive_limit", "=="),
        _check("plateau_above_tenth_of_start", cls.estimate, 0.1 * 0.3, ">"),
    ]
    info = {"checkpoints": list(cls.checkpoints), "checkpoint_values": list(cls.values)}
    payload = {"family": "log_power", "p": 2.0, "stages": p.stages}
    return Outcome({"series.csv": ("recursion", _recursion_columns(cls.series))}, checks, payload, info)


def _slowing(p: Overrides, *, sched: FlipSchedule, checks: Callable, info: dict = {}) -> Outcome:
    """A flip rate that slows towards 1/2; checks(series) states the law."""
    series = iterate_recursion(rate_recursion(BeliefModel(0.0), sched, initial=0.3), p.stages)
    payload = {"family": sched.family, "p": sched.p, "stages": p.stages}
    return Outcome({"series.csv": ("recursion", _recursion_columns(series))}, checks(series), payload, info)


def _log_power_growth(series: SeriesResult) -> list[dict]:
    # fit the accumulated growth of 1/b: the starting value is an additive
    # constant inside the log and would drag the fitted exponent down at any
    # reachable horizon
    growth = SeriesResult(series.stages, 1.0 / series.values - 1.0 / series.values[0])
    raw_fit = fit_power_of_log(SeriesResult(series.stages, 1.0 / series.values), k_min=1000)
    return _band("growth_exponent", fit_power_of_log(growth, k_min=1000).slope, 0.5 - 0.07, 0.5 + 0.07) + [
        _check("raw_exponent_with_offset", raw_fit.slope, None, "==", informational=True),
    ]


_LOG_POWER_NOTE = (
    "the growth of 1/b is fitted against powers of log k and compared "
    "to 1 - p; no exponent s with 1/s + 1/p = 1 exists for p inside "
    "(0, 1), so 1 - p is the comparison target"
)


def _reciprocal_log(series: SeriesResult, transform: str, r2: float, coefficient: bool = False) -> list[dict]:
    fit = fit_reciprocal_log(series, transform, k_min=1000)
    checks = [_check(f"reciprocal_in_{transform}_r2", fit.r2, r2, ">")]
    return checks + ([_check("log_coefficient", fit.slope, None, "==", informational=True)] if coefficient else [])


def _lemma3(p: Overrides, *, exponent: int, delta: float, slope: float) -> Outcome:
    k_min = min(1000, max(10, p.stages // 100))
    spec = RecursionSpec(initial=0.5, exponent=exponent, delta=delta)
    sandwich = lemma3_sandwich(spec, k_min, p.stages, grid=default_grid(p.stages))
    series = sandwich.series
    checks = [_check("sandwich_band", sandwich.high / sandwich.low, 2.0, "<")]
    checks += _band("slope", fit_power(series, k_min=k_min).slope, slope - 0.02, slope + 0.02)
    cols = {"k": series.stages, "c_k": series.values}
    payload = {"exponent": exponent, "delta": delta, "stages": p.stages}
    return Outcome({"series.csv": ("recursion", cols)}, checks, payload)


def _lemma4(p: Overrides, *, kind: str, expected: str) -> Outcome:
    delta = (lambda ks: 1.0 / ks) if kind == "divergent" else (lambda ks: ks**-1.5)
    cls = lemma4_classify(RecursionSpec(initial=0.5, exponent=1, delta=delta), p.stages, tol=1e-3)
    cols = {"k": np.asarray(cls.checkpoints), "c_k": np.asarray(cls.values)}
    info = {"estimate": cls.estimate, "relative_changes": list(cls.relative_changes)}
    payload = {"kind": kind, "stages": p.stages}
    return Outcome({"series.csv": ("recursion", cols)}, [_check("label", cls.label, expected, "==")], payload, info)


# ---------------------------------------------------------------------------
# relay-depth scaling


def _depths(schedule: MemorySchedule, stages: int) -> SeriesResult:
    grid = default_grid(stages)
    return SeriesResult(grid, np.asarray([backward_search_depth(schedule, int(k)) for k in grid], dtype=float))


def _depth_by_definition(schedule: MemorySchedule, k: int) -> int:
    """backward_search_depth's definition by exhaustion: the largest n with
    n * n <= k - 1 and memory_size >= n at every node k - n * n + n .. k."""
    return max(
        n for n in range(k)
        if n * n <= k - 1 and all(memory_size(schedule, j) >= n for j in range(k - n * n + n, k + 1))
    )


def _depth_full(p: Overrides) -> Outcome:
    """The closed form backward_search_depth gives full memory, isqrt(k - 1),
    is checked against the definition at every k up to 400."""
    schedule = MemorySchedule("full")
    ks = range(1, min(p.stages, 400) + 1)
    exact = all(backward_search_depth(schedule, k) == _depth_by_definition(schedule, k) for k in ks)
    series = _depths(schedule, p.stages)
    checks = [_check("depth_matches_definition", exact, True, "==")]
    payload = {"family": "full", "stages": p.stages}
    return Outcome({"series.csv": ("depth", {"k": series.stages, "depth": series.values})}, checks, payload)


def _depth_bands(p: Overrides, *, bands: tuple) -> Outcome:
    """Each (label, sigma, rate) band: depth with k**sigma windows stays
    within a factor 3 of rate(k).  The first band's series is written."""
    k_min = min(1000, max(10, p.stages // 100))
    depths = [_depths(MemorySchedule("power", sigma=sigma), p.stages) for _, sigma, _ in bands]
    checks = []
    for (label, _, rate), series in zip(bands, depths):
        low, high = theta_sandwich(series, rate, k_min=k_min)
        checks.append(_check(f"{label}_band", high / low, 3.0, "<"))
    payload = {"family": "power", "sigma": bands[0][1], "stages": p.stages}
    return Outcome({"series.csv": ("depth", {"k": depths[0].stages, "depth": depths[0].values})}, checks, payload)


# ---------------------------------------------------------------------------
# config-file tasks: each takes a parsed config (cli.ParsedConfig) and returns
# its series.csv columns and extra verdict entries


def _simulate_task(p: Overrides, cfg) -> tuple:
    _, series, info = _simulate(p, cfg.model, cfg.channel, cfg.memory)
    return _mc_columns(series), info


def _herding_task(p: Overrides, cfg) -> tuple:
    config = ExperimentConfig(cfg.model, cfg.channel, cfg.memory, stages=p.stages, trials=p.trials, seed=p.seed)
    rep = herding_stats(config, k0_fraction=cfg.k0_fraction, threads=p.threads)
    rows = [(h, r.late_error_fraction, r.q50, r.q90, r.q99, rep.stages, rep.trials, rep.seed)
            for h, r in enumerate(rep.rows)]
    return _rows_to_columns("hypothesis late_error_fraction q50 q90 q99 K N seed", rows), {}


def _exact_task(p: Overrides, cfg) -> tuple:
    return _exact_columns(exact_error_series(cfg.model, cfg.channel, cfg.memory, p.stages)), {}


def _martingale_task(p: Overrides, cfg) -> tuple:
    return _martingale_columns(martingale_check(cfg.channel, cfg.model, p.stages)), {}


def _recursion_task(p: Overrides, cfg) -> tuple:
    series = iterate_recursion(rate_recursion(cfg.model, cfg.channel, cfg.recursion.initial,
                                              cfg.recursion.coefficient), p.stages)
    return _recursion_columns(series, type1_lower_bound(series, cfg.model)), {}


_CONFIG_TASKS = {"simulate": _simulate_task, "herding": _herding_task, "exact": _exact_task,
                 "martingale": _martingale_task, "recursion": _recursion_task}


def _config_task(p: Overrides, *, cfg) -> Outcome:
    """No checks; the validated settings the task reads, at the stages,
    trials and seed in effect, name the run, so two documents that read
    alike share a hash."""
    columns, info = _CONFIG_TASKS[cfg.task](p, cfg)
    read = {"herding": {"k0_fraction": cfg.k0_fraction}, "recursion": {"recursion": cfg.recursion}}.get(cfg.task, {})
    payload = {"task": cfg.task, "model": cfg.model, "channel": cfg.channel, "memory": cfg.memory, **read,
               "stages": p.stages, "trials": p.trials, "seed": p.seed}
    return Outcome({"series.csv": (cfg.task, columns)}, [], payload, info)


def config_preset(cfg) -> Preset:
    """A parsed config file as an unnamed preset: its run section gives the
    default stages, trials and seed, which run_preset's overrides replace."""
    return Preset(f"{cfg.task} config", partial(_config_task, cfg=cfg),
                  stages=cfg.run.stages, trials=cfg.run.trials, seed=cfg.run.seed)


PRESETS = {
    "lemma1_martingale": Preset(
        "exhaustive check that the noisy public likelihood ratio is a martingale", _martingale, stages=12),
    "lemma3_n1": Preset(
        "constant-delta recursion, exponent 1: tight 1/k band",
        partial(_lemma3, exponent=1, delta=1.0, slope=-1.0), stages=1_000_000),
    "lemma3_n2": Preset(
        "constant-delta recursion, exponent 2: tight 1/sqrt(k) band",
        partial(_lemma3, exponent=2, delta=0.5, slope=-0.5), stages=1_000_000),
    "lemma4_div": Preset(
        "divergent delta sum drives the recursion to zero",
        partial(_lemma4, kind="divergent", expected="converges_to_zero"), stages=10_000_000),
    "lemma4_sum": Preset(
        "summable delta sum leaves a positive limit",
        partial(_lemma4, kind="summable", expected="positive_limit"), stages=10_000_000),
    "mc_vs_exact": Preset(
        "Monte Carlo tandem agrees with the exact window recursion", _mc_vs_exact,
        stages=100, trials=100_000, seed=1105),
    "prop1_full": Preset(
        "relay depth with full memory equals isqrt(k - 1) exactly", _depth_full, stages=1_000_000),
    "prop1_sigma03": Preset(
        "relay depth with k**0.3 windows scales like k**0.3",
        partial(_depth_bands, bands=(("sigma03", 0.3, lambda ks: ks**0.3),)), stages=1_000_000),
    "prop1_sigma05": Preset(
        "relay depth with k**0.5 and k**0.7 windows scales like sqrt(k)",
        partial(_depth_bands, bands=(("sigma05", 0.5, np.sqrt), ("sigma07", 0.7, np.sqrt))), stages=1_000_000),
    "thm10_poly": Preset(
        "polynomial signal tails: belief decays like 1/sqrt(k), bound like k**-1.5",
        partial(_rate_law, beta=1, initial=0.3, belief=(-0.55, -0.45), bound=(-1.6, -1.4)), stages=1_000_000),
    "thm7_plateau": Preset(
        "flips growing at the summability edge still leave a positive plateau", _plateau, stages=10_000_000),
    "thm8_i": Preset(
        "power informativeness p=0.5: belief decays like k**-0.5",
        partial(_slowing, sched=FlipSchedule("power", p=0.5),
                checks=lambda s: _band("belief_slope", fit_power(s, k_min=1000).slope, -0.55, -0.45)),
        stages=1_000_000),
    "thm8_ii": Preset(
        "reciprocal informativeness: 1/belief is affine in log k",
        partial(_slowing, sched=FlipSchedule("reciprocal"),
                checks=partial(_reciprocal_log, transform="log", r2=0.999, coefficient=True)),
        stages=1_000_000),
    "thm8_iii": Preset(
        "log_power informativeness p=0.5: 1/belief grows like a power of log k",
        partial(_slowing, sched=FlipSchedule("log_power", p=0.5), checks=_log_power_growth,
                info={"note": _LOG_POWER_NOTE}),
        stages=10_000_000),
    "thm8_iv": Preset(
        "log informativeness: 1/belief is affine in log log k",
        partial(_slowing, sched=FlipSchedule("log"), checks=partial(_reciprocal_log, transform="loglog", r2=0.99)),
        stages=1_000_000),
    "thm9_herding": Preset(
        "late-error mass persists under slowing flips, vanishes under constant ones", _herding,
        stages=5000, trials=10_000, seed=1104),
    "thm_erasure_bounded": Preset(
        "bounded memory over an erasure channel pins the error above a floor",
        partial(_window_floor, channel=ErasureSchedule("constant", level=0.3), files={2: "series.csv"},
                payload={"level": 0.3, "capacity": 2}),
        stages=2000),
    "thm_erasure_to_one": Preset(
        "erasure levels that climb to one: the exact scan error falls every decade", _erasure_to_one),
    "thm_erasure_unbounded": Preset(
        "unbounded memory defeats constant erasure: error keeps falling", _erasure_unbounded,
        stages=2000, trials=20_000, seed=1102),
    "thm_flip_bounded": Preset(
        "bounded memory over a flip channel pins the error above a floor",
        partial(_window_floor, channel=FlipSchedule("constant", q=0.2),
                files={1: "series_c1.csv", 3: "series_c3.csv"}, payload={"q": 0.2, "capacities": [1, 3]}),
        stages=2000),
    "thm_flip_learning": Preset(
        "full memory over a flip channel: error falls and keeps falling", _flip_learning,
        stages=2000, trials=20_000, seed=1101),
    "thm_rate_k2": Preset(
        "constant informativeness: belief decays like 1/k, bound like 1/k**2",
        partial(_rate_law, beta=0, initial=0.5, belief=(-1.05, -0.95), bound=(-2.1, -1.9)), stages=1_000_000),
}

PRESET_INFO = {name: preset.description for name, preset in PRESETS.items()}


def list_presets() -> list[str]:
    return sorted(PRESETS)


def _run_record() -> dict:
    """The versions a verdict depends on and, where the `resource` module
    exists, the peak resident set of the whole process so far: a later run
    in the same process reports an earlier, larger run's peak, and on Linux
    a process started by a larger one begins at its parent's peak.  scipy's
    version is read from its metadata, so recording it does not import
    scipy; `importlib.metadata` loads only when a verdict is written."""
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    record = {
        "versions": {
            "noisycast": __version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "scipy": scipy_version,
        }
    }
    try:
        import resource
    except ImportError:  # not on Windows
        return record
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    record["process_peak_rss_mb"] = round(kib * 1024 / 1e6, 1)
    return record


def run_preset(preset: str | Preset, out_dir, overrides: Overrides = _NO_OVERRIDES) -> dict:
    """Run one preset, a registry name or an unnamed Preset such as
    config_preset's, write its CSVs and verdict.json under out_dir, and
    return the verdict dict.  An unknown name, or an override of a setting
    the preset does not declare, raises PresetError before anything runs;
    out_dir is made only once the runner has returned."""
    name = preset if isinstance(preset, str) else None
    if name is not None:
        if name not in PRESETS:
            raise UnknownPresetError(name, list_presets())
        preset = PRESETS[name]
    declared = {key: getattr(preset, key) for key in ("seed", "trials", "stages")}
    given = {key: getattr(overrides, key) for key in declared if getattr(overrides, key) is not None}
    undeclared = [key for key in given if declared[key] is None]
    if undeclared:
        raise PresetError(f"preset {name!r} has no {' or '.join(undeclared)} setting to override")
    settings = Overrides(threads=overrides.threads, **{**declared, **given})
    t0 = time.perf_counter()
    outcome = preset.run(settings)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(outcome.payload)
    seed = 0 if settings.seed is None else settings.seed  # 0 when nothing is drawn
    for file_name, (producer, columns) in outcome.tables.items():
        write_series_csv(out / file_name, columns, {"producer": producer, "config_hash": digest, "seed": seed})
    verdict = {
        "preset": name,
        "passed": all(c["passed"] for c in outcome.checks),
        "checks": outcome.checks,
        "files": list(outcome.tables),
        "runtime_seconds": round(time.perf_counter() - t0, 3),
        "seed": seed,
        "config_hash": digest,
        **outcome.info,
        **_run_record(),
    }
    with open(out / "verdict.json", "w", encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return verdict
