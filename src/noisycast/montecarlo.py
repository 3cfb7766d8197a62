"""Trial-parallel Monte Carlo for decision chains over faulty broadcasts.

One skeleton runs every strategy.  It advances a block of trials of both
hypotheses in lockstep, one stage at a time, and keeps the bookkeeping
(error counts on the grid, each trial's last erring stage, clamp events) in
one place.  At stage k every trial takes two uniforms, u for its private
signal and v for the channel, and the node decides 1 when u > F_h(cut).
F_h = belief_model.cdf(model, h, .) is P(decide 0 | hypothesis h) at the
node's cutoff: this inverse-cdf coupling has the law of `belief > cut`, and
no belief is ever drawn.  Strategies differ only in how the cutoff is found
and how the broadcast is absorbed; each is a step function of the skeleton:

* flip channel, full memory: the shared public belief is a scalar recursion
  per trial, advanced by public_belief_step from the same two cdf values the
  decision used;
* bounded memory (flip or erasure): per-state cutoff tables from the exact
  window recursion, which is the strategy's own oracle;
* erasure channel, unbounded memory: nearest-unerased evidence, coded as
  2 * stage + value with codes 0 and 1 meaning none.  A (2, 2K + 2) table
  holds P(decide 0 | hypothesis, evidence).  A calibration pass on the same
  skeleton, in its own rng phase, fills the columns of stage k from the batch
  decision frequencies at stage k, so node k uses frequencies of earlier
  stages only.

Random stream.  The key of (seed, phase, hypothesis) is
SeedSequence(seed, spawn_key=(phase, hypothesis)).generate_state(2, uint64).
Trial t at stage k takes outputs 2 * (t % 2) (u) and 2 * (t % 2) + 1 (v) of
Philox(key=key, counter=[t // 2, k, phase, hypothesis]).  Any (trial, stage)
draw is thus made on its own, and a block of trials is one draw per stage
and hypothesis.  Counts are integer sums, so estimates are bit-identical
whatever the block size or thread count.  A job is a block of at most
_BLOCK_TRIALS trials per hypothesis; `threads` matters only when there is
more than one block.  run_trial replays one trial through the same skeleton,
so it matches its batched twin exactly.

Memory is O(trials per block), not O(trials x stages).  A flip channel with
power or sporadic memory has no supported strategy and is rejected up front.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .analysis import SeriesResult, default_grid
from .belief_model import BeliefModel, cdf
from .channels import Channel, ErasureSchedule, FlipSchedule, erasure_levels, flip_probs
from .exact_dp import MAX_CAPACITY, exact_error_series
from .strategy import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    conditional_decision_probs,
    public_belief_step,
    tandem_posterior,
)
from .topology import MemorySchedule, memory_size

_PHASE_MEASURE = 0
_PHASE_CALIBRATE = 1
_PHASE_AUX = 2

_BLOCK_TRIALS = 1 << 15  # trials per hypothesis in one job
_TABLE_BUDGET = 1 << 25  # float64 values in one set of window cutoff tables (256 MiB)
_CI_Z = 1.96

# row h of every (2, m) trial array holds the trials of hypothesis h
_IS_H1 = np.array([[False], [True]])


@dataclass(frozen=True)
class ExperimentConfig:
    model: BeliefModel
    channel: Channel
    memory: MemorySchedule
    stages: int
    trials: int
    seed: int
    calibration_trials: int = 2000
    grid: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a uint64, got {self.seed!r}")
        if isinstance(self.channel, FlipSchedule):
            if self.memory.family not in ("full", "bounded"):
                raise ValueError(
                    f"flip channel supports full or bounded memory, not {self.memory.family!r}: "
                    f"nodes cannot reconstruct a shared belief from a partial unbounded window"
                )
        elif not isinstance(self.channel, ErasureSchedule):
            raise ValueError(f"channel must be a FlipSchedule or ErasureSchedule, got {self.channel!r}")
        if self.memory.family == "bounded":
            if self.memory.capacity > MAX_CAPACITY:
                raise ValueError(f"bounded memory is capped at capacity {MAX_CAPACITY} for exact cutoffs")
            alphabet = 2 if isinstance(self.channel, FlipSchedule) else 3
            if alphabet**self.memory.capacity * self.stages > _TABLE_BUDGET:
                raise ValueError(
                    f"window cutoff tables ({alphabet}**{self.memory.capacity} states x {self.stages} stages) "
                    f"would exceed the memory budget of {_TABLE_BUDGET} float64 values; "
                    "reduce capacity or stages"
                )
        if self._needs_calibration():
            if self.calibration_trials < 50:
                raise ValueError(f"calibration needs at least 50 trials, got {self.calibration_trials!r}")
            if self.calibration_trials * self.stages > 1 << 24:
                raise ValueError(
                    "calibration matrices would exceed the memory budget; "
                    "reduce calibration_trials or stages"
                )
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=np.int64)
            if g.size == 0 or g[0] < 1 or g[-1] > self.stages or (np.diff(g) <= 0).any():
                raise ValueError("grid must be strictly increasing inside [1, stages]")

    def _needs_calibration(self) -> bool:
        return isinstance(self.channel, ErasureSchedule) and self.memory.family != "bounded"


@dataclass
class TrialRecord:
    decisions: np.ndarray
    last_error_index: int
    clamp_count: int


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(repr(config).encode()).hexdigest()[:12]


def _trial_rng(seed: int, phase: int, hypothesis: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(phase, hypothesis, trial))
    return np.random.Generator(np.random.Philox(ss))


@lru_cache(maxsize=64)
def _stream_key(seed: int, phase: int, hypothesis: int) -> np.ndarray:
    return np.random.SeedSequence(seed, spawn_key=(phase, hypothesis)).generate_state(2, np.uint64)


def _grid_slots(grid: np.ndarray, stages: int) -> np.ndarray:
    slot = np.full(stages + 1, -1, dtype=np.int64)
    slot[grid] = np.arange(grid.size)
    return slot


def _run_block(config: ExperimentConfig, phase: int, lo: int, hi: int, step, slot=None, collect=False):
    """Advance trials lo..hi-1 of both hypotheses in lockstep through every
    stage.  step(k, u, v) returns the (2, m) decisions of stage k and either
    None or the mask of public beliefs clamped by the stage.

    Returns the per-hypothesis error counts on the grid slots (none without
    a slot map), each trial's last erring stage (0 when none),
    per-hypothesis clamp totals, and with collect=True the (2, m, stages)
    decision paths.
    """
    m = hi - lo
    first = lo // 2
    off = lo - 2 * first
    streams = []
    for h in (0, 1):
        bits = np.random.Philox(key=_stream_key(config.seed, phase, h))
        streams.append((bits, bits.state, np.random.Generator(bits)))
    # row r of buf[h] is trial 2 * first + r: its u in column 0, its v in column 1
    buf = np.empty((2, 2 * ((hi + 1) // 2 - first), 2))
    u = buf[:, off:off + m, 0]
    v = buf[:, off:off + m, 1]
    counts = np.zeros((2, 0 if slot is None else int(slot.max()) + 1), dtype=np.int64)
    last = np.zeros((2, m), dtype=np.int64)
    clamps = np.zeros(2, dtype=np.int64)
    dec = np.zeros((2, m, config.stages), dtype=np.int8) if collect else None
    for k in range(1, config.stages + 1):
        for h, (bits, state, gen) in enumerate(streams):
            # the state of Philox(key=key, counter=[first, k, phase, h]), set
            # in place because building a bit generator costs more than the
            # draw; the emptied buffer makes the next output come from the counter
            state["state"]["counter"] = np.array([first, k, phase, h], dtype=np.uint64)
            state["buffer_pos"] = 4
            bits.state = state
            gen.random(out=buf[h])
        d, clamped = step(k, u, v)
        if collect:
            dec[:, :, k - 1] = d
        wrong = d != _IS_H1
        if slot is not None and slot[k] >= 0:
            counts[:, slot[k]] = np.count_nonzero(wrong, axis=1)
        last[wrong] = k
        if clamped is not None:
            clamps += np.count_nonzero(clamped, axis=1)
    return counts, last, clamps, dec


def _flip_full_step(config: ExperimentConfig, m: int):
    model = config.model
    qs = flip_probs(config.channel, np.arange(1, config.stages + 1))
    b = np.full((2, m), model.prior_1)

    def step(k, u, v):
        nonlocal b
        f0, f1 = conditional_decision_probs(b, model)
        d = u > np.where(_IS_H1, f1, f0)
        q = float(qs[k - 1])
        b = public_belief_step(b, q, d != (v < q), f0, f1)
        return d, (b <= BELIEF_FLOOR) | (b >= BELIEF_CEIL)

    return step


def _window_step(tables, config: ExperimentConfig, m: int):
    model = config.model
    flip = isinstance(config.channel, FlipSchedule)
    a_size = 2 if flip else 3
    ks = np.arange(1, config.stages + 1)
    if flip:
        qs = flip_probs(config.channel, ks)
    else:
        lv0s, lv1s = erasure_levels(config.channel, ks)
    cap = config.memory.capacity
    state = np.zeros((2, m), dtype=np.int64)
    wlen = 0

    def step(k, u, v):
        nonlocal state, wlen
        tau = tables[k - 1][state]
        d = u > np.stack([cdf(model, 0, tau[0]), cdf(model, 1, tau[1])])
        if flip:
            symbol = (d != (v < qs[k - 1])).astype(np.int64)
        else:
            lv = np.where(d, lv1s[k - 1], lv0s[k - 1])
            symbol = np.where(v < lv, 2, d.astype(np.int64))
        new_len = min(cap, k)
        if new_len == wlen + 1:
            state = symbol + a_size * state
        else:
            state = symbol + a_size * (state % a_size ** (wlen - 1))
        wlen = new_len
        return d, None

    return step


def _scan_step(table, config: ExperimentConfig, m: int):
    lv0s, lv1s = erasure_levels(config.channel, np.arange(1, config.stages + 1))
    ev = np.zeros((2, m), dtype=np.int64)
    flat = table.ravel()
    row = np.array([[0], [table.shape[1]]])

    def step(k, u, v):
        nonlocal ev
        code = np.where(ev >= 2 * (k - memory_size(config.memory, k)), ev, 0)
        d = u > flat[row + code]
        lv = np.where(d, lv1s[k - 1], lv0s[k - 1])
        ev = np.where(v >= lv, 2 * k + d, ev)
        return d, None

    return step


def _decide0_columns(model: BeliefModel, posteriors) -> np.ndarray:
    """P(decide 0 | h) at each public belief: rows h = 0, 1."""
    return np.stack(conditional_decision_probs(np.asarray(posteriors), model))


@lru_cache(maxsize=8)
def _scan_table_cached(calibration: ExperimentConfig) -> np.ndarray:
    """The scan strategy's table, built by running it on the calibration
    trials: after stage k, columns 2k and 2k + 1 take the decision
    frequencies of stage k, clipped half a trial away from 0 and 1."""
    model = calibration.model
    table = np.empty((2, 2 * calibration.stages + 2))
    table[:, :2] = _decide0_columns(model, [model.prior_1] * 2)
    scan = _scan_step(table, calibration, calibration.trials)
    floor = 0.5 / calibration.trials

    def step(k, u, v):
        d, _ = scan(k, u, v)
        marginals = np.clip(d.mean(axis=1), floor, 1.0 - floor)
        posteriors = [tandem_posterior(value, marginals, None, model.prior_1) for value in (0, 1)]
        table[:, 2 * k:2 * k + 2] = _decide0_columns(model, posteriors)
        return d, None

    _run_block(calibration, _PHASE_CALIBRATE, 0, calibration.trials, step)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _cutoff_tables_cached(model, channel, capacity, stages):
    _, tables = exact_error_series(
        model, channel, MemorySchedule("bounded", capacity=capacity), stages, collect_cutoffs=True
    )
    return tuple(tables)


def _step_for(config: ExperimentConfig):
    """Step factory of the config's strategy: (config, m) -> step."""
    if config.memory.family == "bounded":
        tables = _cutoff_tables_cached(config.model, config.channel, config.memory.capacity, config.stages)
        return partial(_window_step, tables)
    if isinstance(config.channel, FlipSchedule):
        return _flip_full_step
    calibration = replace(config, trials=config.calibration_trials, grid=None)
    return partial(_scan_step, _scan_table_cached(calibration))


def _collect_blocks(config: ExperimentConfig, slot, threads: int):
    """Run every block job; gather per-hypothesis counts and clamp totals and
    the (2, trials) last erring stages, row h for hypothesis h, in trial order."""
    make_step = _step_for(config)
    jobs = [(lo, min(lo + _BLOCK_TRIALS, config.trials)) for lo in range(0, config.trials, _BLOCK_TRIALS)]

    def run(job):
        lo, hi = job
        counts, last, clamps, _ = _run_block(config, _PHASE_MEASURE, lo, hi, make_step(config, hi - lo), slot)
        return counts, last, clamps

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as ex:
            results = list(ex.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    counts = sum(r[0] for r in results)
    clamps = sum(r[2] for r in results)
    return counts, np.concatenate([r[1] for r in results], axis=1), clamps


def estimate_error_series(config: ExperimentConfig, threads: int = 1) -> SeriesResult:
    """Error probability on the stage grid, prior-weighted over hypotheses,
    with a normal-approximation confidence band from the per-hypothesis
    counts.  Byte-identical for fixed (config, seed) whatever `threads` is."""
    grid = np.asarray(config.grid if config.grid is not None else default_grid(config.stages), dtype=np.int64)
    slot = _grid_slots(grid, config.stages)
    counts, _, clamps = _collect_blocks(config, slot, threads)
    n = config.trials
    p0 = counts[0] / n
    p1 = counts[1] / n
    pi0, pi1 = config.model.prior_0, config.model.prior_1
    pe = pi0 * p0 + pi1 * p1
    var = pi0**2 * p0 * (1.0 - p0) / n + pi1**2 * p1 * (1.0 - p1) / n
    half = _CI_Z * np.sqrt(var)
    return SeriesResult(
        grid,
        pe,
        meta={
            "producer": "simulate",
            "seed": config.seed,
            "trials": n,
            "stages": config.stages,
            "config_hash": config_hash(config),
            "clamp_events": int(clamps.sum()),
        },
        extra={
            "ci_low": np.clip(pe - half, 0.0, 1.0),
            "ci_high": np.clip(pe + half, 0.0, 1.0),
            "p0_type1_hat": p0,
            "p1_type2_hat": p1,
            "err0": counts[0],
            "err1": counts[1],
        },
    )


@dataclass(frozen=True)
class HerdingRow:
    late_error_fraction: float
    q50: float
    q90: float
    q99: float


@dataclass(frozen=True)
class HerdingReport:
    rows: tuple[HerdingRow, HerdingRow]
    combined_late_fraction: float
    k0_stage: int
    stages: int
    trials: int
    seed: int


def herding_stats(config: ExperimentConfig, k0_fraction: float = 0.5, threads: int = 1) -> HerdingReport:
    """Distribution of the last erring stage per trial (0 when none err).

    late_error_fraction is the share of trials whose last error lands beyond
    k0_fraction of the horizon; stuck chains keep that share up as the
    horizon doubles, learning chains push it down.
    """
    if not 0.0 < k0_fraction < 1.0:
        raise ValueError(f"k0_fraction must lie in (0, 1), got {k0_fraction!r}")
    _, lasts, _ = _collect_blocks(config, None, threads)
    k0 = int(math.floor(k0_fraction * config.stages))
    rows = []
    for h in (0, 1):
        last = lasts[h]
        q50, q90, q99 = np.percentile(last, [50, 90, 99])
        rows.append(HerdingRow(float((last > k0).mean()), float(q50), float(q90), float(q99)))
    combined = config.model.prior_0 * rows[0].late_error_fraction + config.model.prior_1 * rows[1].late_error_fraction
    return HerdingReport(tuple(rows), combined, k0, config.stages, config.trials, config.seed)


def run_trial(config: ExperimentConfig, trial_index: int, hypothesis: int) -> TrialRecord:
    """Replay one trial bit for bit, returning its full decision path."""
    if hypothesis not in (0, 1):
        raise ValueError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index!r}")
    step = _step_for(config)(config, 1)
    _, last, clamps, dec = _run_block(config, _PHASE_MEASURE, trial_index, trial_index + 1, step, collect=True)
    return TrialRecord(dec[hypothesis, 0], int(last[hypothesis, 0]), int(clamps[hypothesis]))


@dataclass(frozen=True)
class ChainEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    trials: int
    successes: int


def estimate_chain_success(erasure_level: float, hops: int, trials: int, seed: int) -> ChainEstimate:
    """Monte Carlo estimate of chain_success_probability: `hops` scans of
    `hops` candidates each, all erased independently at the given level."""
    if not 0.0 <= erasure_level <= 1.0:
        raise ValueError(f"erasure level must lie in [0, 1], got {erasure_level!r}")
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    g = _trial_rng(seed, _PHASE_AUX, 0, 0)
    chunk = max(1, (1 << 20) // (hops * hops))
    successes = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        u = g.random((m, hops, hops))
        successes += int(((u >= erasure_level).any(axis=2)).all(axis=1).sum())
        done += m
    p = successes / trials
    half = _CI_Z * math.sqrt(p * (1.0 - p) / trials)
    return ChainEstimate(p, max(0.0, p - half), min(1.0, p + half), trials, successes)
