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
  per trial, advanced in place by public_belief_step from the same two cdf
  values the decision used, in seven float and two boolean (2, m) arrays
  made once per block of m trials;
* bounded memory (flip or erasure): the exact window recursion, the
  strategy's own oracle, runs in lockstep and yields each stage's table of
  P(decide 0 | hypothesis, window state), so no cdf is evaluated per trial;
  the broadcasts are read against the channel law the recursion steps with;
* erasure channel, unbounded memory: nearest-unerased evidence, coded as
  2 * stage + value with codes 0 and 1 meaning none.  A (2, 2K + 2) table
  holds P(decide 0 | hypothesis, evidence); exact_dp.scan_error_series
  builds it from the exact law of the evidence, once per run; trials carry
  their flat positions in it.

A step makes no array per stage and gives numpy no broadcast (2, 1) or
strided (2, m) operand, which it buffers, nor a where= mask, slower than
putmask.  A block draws and steps exactly its own trials.

Random stream.  Every job of a config draws from the same two streams,
PCG64DXSM(SeedSequence(seed, spawn_key=(0, h))) for hypothesis h (O'Neill,
"PCG: a family of simple fast space-efficient statistically good algorithms
for random number generation", 2014; numpy's DXSM output).  Stage k draws
from row k of that stream, the stream as numpy's PCG64DXSM.jumped(k - 1)
leaves it: trial t takes outputs 2t (u) and 2t + 1 (v) of its row.  A job
advances to its first trial's outputs, fills its rows of one stage with one
draw per hypothesis and advances by the jump, less what it drew, to the
next stage's row.  Any (trial, stage) draw is thus made on its own: a
trial's path is the same whatever the block size, the thread count or the
trial count, and a shorter horizon's is a prefix of a longer one's.  Counts
are integer sums, so estimates are bit-identical whatever the block size or
thread count.  A job is a block of at most _BLOCK_TRIALS trials per
hypothesis; `threads` matters only when there is more than one block, and
only then is concurrent.futures imported and its thread pool started.
run_trial replays one trial through the same skeleton, so it matches its
batched twin exactly.

Memory is O(trials per block), not O(trials x stages); a bounded window
adds O(alphabet**capacity) per block job, which drives its own recursion.
Last erring stages are kept only for herding_stats and run_trial.
A flip channel with power or sporadic memory has no supported strategy and
is rejected up front.  presets.reference gives a config's exact errors,
and presets.cross_check tests a run's counts against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analysis import SeriesResult, check_count, check_grid, config_hash, default_grid
from .belief_model import BeliefModel
from .channels import Channel, ErasureSchedule, FlipSchedule, erasure_levels, flip_probs
from .exact_dp import MAX_CAPACITY, _channel_laws, scan_error_series, window_alphabet, window_stages
from .strategy import BELIEF_CEIL, BELIEF_FLOOR, clamp_belief, conditional_decision_probs, public_belief_step
from .topology import MemorySchedule, memory_size

# (phi - 1) * 2**128 outputs, the step of numpy's PCG64DXSM.jumped: stage k's row starts k - 1 steps in
_STAGE_JUMP = 210306068529402873165736369884012333109

_BLOCK_TRIALS = 1 << 15  # trials per hypothesis in one job
_CI_Z = 1.96


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment.  calibration_trials is ignored: the
    erasure scan's table is exact and needs no trials.  Equality, hash()
    and config_hash leave it out, so dropping the field moves no hash."""

    model: BeliefModel
    channel: Channel
    memory: MemorySchedule
    stages: int
    trials: int
    seed: int
    calibration_trials: int = field(default=2000, compare=False)
    grid: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name, low, high in (("stages", 1, math.inf), ("trials", 1, math.inf), ("seed", 0, 2**64)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low, high))
        if isinstance(self.channel, FlipSchedule):
            if self.memory.family not in ("full", "bounded"):
                raise ValueError(
                    f"flip channel supports full or bounded memory, not {self.memory.family!r}: "
                    f"nodes cannot reconstruct a shared belief from a partial unbounded window"
                )
        elif not isinstance(self.channel, ErasureSchedule):
            raise ValueError(f"channel must be a FlipSchedule or ErasureSchedule, got {self.channel!r}")
        if self.memory.family == "bounded" and self.memory.capacity > MAX_CAPACITY:
            raise ValueError(f"bounded memory is capped at capacity {MAX_CAPACITY} for exact cutoffs")
        if self.grid is not None:  # stored as a tuple of ints: config_hash and hash() read every stage
            object.__setattr__(self, "grid", tuple(check_grid(self.grid, self.stages).tolist()))


@dataclass
class TrialRecord:
    decisions: np.ndarray
    last_error_index: int
    clamp_count: int


def _run_block(config: ExperimentConfig, lo: int, hi: int, make_step, slot=None, collect=False):
    """Advance trials lo..hi-1 of both hypotheses in lockstep through every
    stage.  make_step(config, m) builds the step for the block's m = hi - lo
    trials.  step(k, u, v) takes their (2, m) draws of stage k and returns
    the (2, m) boolean decisions and either None or the mask of public
    beliefs clamped by the stage; the skeleton reads both before the next
    call.

    Returns the per-hypothesis error counts on the grid slots, each trial's
    last erring stage (0 when none) without a slot map and None with one,
    per-hypothesis clamp totals, and with collect=True the (2, m, stages)
    decision paths.
    """
    m = hi - lo
    # row r of buf[h] is trial lo + r: its u in column 0, its v in column 1
    buf = np.empty((2, m, 2))
    streams = []
    for h in (0, 1):
        bits = np.random.PCG64DXSM(np.random.SeedSequence(config.seed, spawn_key=(0, h)))
        bits.advance(2 * lo)  # trial lo's u is output 2 * lo of each stage row
        streams.append((bits, np.random.Generator(bits), buf[h]))
    skip = _STAGE_JUMP - 2 * m  # from the end of this stage's draws to the next row's
    u, v = buf.transpose(2, 0, 1)
    step = make_step(config, m)
    counts = np.zeros((2, 0 if slot is None else int(slot.max()) + 1), dtype=np.int64)
    last = np.zeros((2, m), dtype=np.int64) if slot is None else None
    wrong = np.empty((2, m), dtype=bool)
    is_h1 = np.repeat([[False], [True]], m, axis=1)  # row h of a (2, m) array is hypothesis h
    clamps = np.zeros(2, dtype=np.int64)
    dec = np.zeros((2, m, config.stages), dtype=np.int8) if collect else None
    for k in range(1, config.stages + 1):
        for bits, gen, out in streams:
            gen.random(out=out)
            bits.advance(skip)
        d, clamped = step(k, u, v)
        if collect:
            dec[:, :, k - 1] = d
        if slot is None:
            np.putmask(last, np.not_equal(d, is_h1, out=wrong), k)
        elif slot[k] >= 0:  # the errors: decisions 1 under h = 0, 0 under h = 1
            counts[0, slot[k]], counts[1, slot[k]] = np.count_nonzero(d[0]), m - np.count_nonzero(d[1])
        if clamped is not None:
            clamps += np.count_nonzero(clamped, axis=1)
    return counts, last, clamps, dec


def _flip_full_step(config: ExperimentConfig, m: int):
    """Buffers are made once per block, O(trials per block).  f[i, h] holds
    P(decide 0 | i) at the cutoffs of hypothesis h's trials, then the
    likelihoods of the bit: decisions read its diagonal row by row."""
    model = config.model
    qs = flip_probs(config.channel, np.arange(1, config.stages + 1))
    b = np.full((2, m), model.prior_1)
    f = np.empty((2, 2, m))
    work = np.empty((4, 2, m))  # 1 - b (the cutoff) and cdfs' scratch
    rest, bit = work[0], work[1:3]  # the scratch is free once f is filled
    d, seen = np.empty((2, 2, m), dtype=bool)

    def step(k, u, v):
        conditional_decision_probs(b, model, out=f, work=work)
        for h in (0, 1):
            np.greater(u[h], f[h, h], out=d[h])
        q = float(qs[k - 1])
        np.copyto(bit, np.not_equal(d, np.less(v, q, out=seen), out=seen))
        public_belief_step(b, q, bit, f, out=b, work=f, rest=rest)
        if BELIEF_FLOOR < b.min() and b.max() < BELIEF_CEIL:
            return d, None
        clamp_belief(b, out=b)
        return d, (b <= BELIEF_FLOOR) | (b >= BELIEF_CEIL)

    return step


def _window_step(config: ExperimentConfig, m: int):
    """States code symbols as exact_dp does, digit 0 the newest, and v is
    read against the law the exact recursion steps with: law[0][1] is the
    chance that a 0 is flipped or erased, law[1][A - 2] that a 1 is.  The
    oldest digit, state // A**(C - 1), is 0 until the window fills.
    Buffers are made once per block."""
    # this block's own exact recursion, one stage's table live at a time, with each stage's law
    tables = window_stages(config.model, config.channel, config.memory.capacity, config.stages)
    stages = zip(tables, _channel_laws(config.channel, np.arange(1, config.stages + 1)))
    a_size = window_alphabet(config.channel)
    top = a_size ** (config.memory.capacity - 1)  # the place of the oldest digit
    state, digit = np.zeros((2, 2, m), dtype=np.int64)
    f = np.empty((2, m))
    d, hit, other = np.empty((3, 2, m), dtype=bool)

    def step(k, u, v):
        errs, law = next(stages)
        t0, t1 = law[0][1], law[1][a_size - 2]
        for h in (0, 1):
            np.take(errs.decide0[h], state[h], out=f[h], mode="clip")  # states are in range by construction
        np.greater(u, f, out=d)
        np.floor_divide(state, top, out=digit)
        np.subtract(state, np.multiply(digit, top, out=digit), out=state)
        # a ufunc that casts bool to int64 fills a cast buffer of its own each call; copyto casts without one
        if a_size == 2:  # the broadcast is d, flipped where v < q
            np.copyto(digit, np.not_equal(d, np.less(v, t0, out=hit), out=hit))
        else:  # digit 1 where erased, else 2 * d
            np.less(v, t0, out=hit)
            if t1 != t0:
                np.putmask(hit, d, np.less(v, t1, out=other))
            np.copyto(digit, d)
            np.add(digit, digit, out=digit)
            np.putmask(digit, hit, 1)
        np.multiply(state, a_size, out=state)
        np.add(state, digit, out=state)
        return d, None

    return step


def _scan_step(table, config: ExperimentConfig, m: int):
    """pos carries each trial's flat table position h * width + code, base that
    of code 2 * k after stage k.  Codes out of the window are read as code 0
    but stay in pos: sporadic windows reopen at perfect squares."""
    lv0s, lv1s = erasure_levels(config.channel, np.arange(1, config.stages + 1))
    equal = np.array_equal(lv0s, lv1s)
    flat, width = table.ravel(), table.shape[1]
    pos = np.repeat(np.array([[0], [width]]), m, axis=1)
    base, new = pos.copy(), np.empty_like(pos)
    f = np.empty((2, m))
    d, kept, old = np.empty((3, 2, m), dtype=bool)
    none = None if config.memory.family == "full" else np.repeat(table[:, :1], m, axis=1)  # code 0

    def step(k, u, v):
        np.take(flat, pos, out=f, mode="clip")  # positions are in range by construction
        if none is not None:  # code < 2 * (k - memory) where pos - base < 2 * (1 - memory)
            np.less(np.subtract(pos, base, out=new), 2 * (1 - memory_size(config.memory, k)), out=old)
            np.putmask(f, old, none)
        np.greater(u, f, out=d)
        np.greater_equal(v, lv0s[k - 1], out=kept)
        if not equal:  # the level of a broadcast 1 where d
            np.putmask(kept, d, np.greater_equal(v, lv1s[k - 1], out=old))
        np.add(base, 2, out=base)
        np.copyto(new, d)
        np.putmask(pos, kept, np.add(new, base, out=new))  # code 2 * k + d
        return d, None

    return step


def _step_for(config: ExperimentConfig):
    """Step factory of the config's strategy: (config, m) -> step."""
    if config.memory.family == "bounded":
        return _window_step
    if isinstance(config.channel, FlipSchedule):
        return _flip_full_step
    return partial(_scan_step, scan_error_series(config.model, config.channel, config.memory, config.stages)[1])


def _collect_blocks(config: ExperimentConfig, slot, threads: int):
    """Run every block job; gather per-hypothesis counts and clamp totals and,
    without a slot map, the (2, trials) last erring stages, row h for
    hypothesis h, in trial order."""
    make_step = _step_for(config)
    jobs = [(lo, min(lo + _BLOCK_TRIALS, config.trials)) for lo in range(0, config.trials, _BLOCK_TRIALS)]

    def run(job):
        return _run_block(config, *job, make_step, slot)

    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded only by a run that starts the pool

        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as ex:
            results = list(ex.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    counts = sum(r[0] for r in results)
    clamps = sum(r[2] for r in results)
    return counts, None if slot is not None else np.concatenate([r[1] for r in results], axis=1), clamps


def estimate_error_series(config: ExperimentConfig, threads: int = 1) -> SeriesResult:
    """Error probability on the stage grid, prior-weighted over hypotheses,
    with a normal-approximation confidence band from the per-hypothesis
    counts.  Byte-identical for fixed (config, seed) whatever `threads` is."""
    grid = check_grid(default_grid(config.stages) if config.grid is None else config.grid, config.stages)
    slot = np.full(config.stages + 1, -1, dtype=np.int64)
    slot[grid] = np.arange(grid.size)  # the count of stage k goes to column slot[k]
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


def _percentiles(values: np.ndarray, qs) -> list[float]:
    """np.percentile(values, qs) of an integer array, bit for bit: numpy's
    linear method over one sort.  np.percentile partitions at the np.unique
    of its indices, which imports numpy.ma."""
    s = np.sort(values)
    top = s.size - 1
    out = []
    for q in qs:
        v = top * (q / 100)
        i = min(math.floor(v), top)  # past the last index both neighbours are the last value
        a, b, t = int(s[i]), int(s[min(i + 1, top)]), v - i
        # numpy's _lerp: from the nearer end, so t = 1 gives b exactly
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


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
        rows.append(HerdingRow(float((last > k0).mean()), *_percentiles(last, (50, 90, 99))))
    combined = config.model.prior_0 * rows[0].late_error_fraction + config.model.prior_1 * rows[1].late_error_fraction
    return HerdingReport(tuple(rows), combined, k0, config.stages, config.trials, config.seed)


def run_trial(config: ExperimentConfig, trial_index: int, hypothesis: int) -> TrialRecord:
    """Replay one trial bit for bit, returning its full decision path.

    A bounded-window replay drives its own exact window recursion and a
    scan replay builds its own table, so each call pays one full exact
    pass; replaying many trials costs that pass every time."""
    if hypothesis not in (0, 1):
        raise ValueError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    trial_index = check_count(trial_index, "trial_index", low=0)
    _, last, clamps, dec = _run_block(config, trial_index, trial_index + 1, _step_for(config), collect=True)
    return TrialRecord(dec[hypothesis, 0], int(last[hypothesis, 0]), int(clamps[hypothesis]))
