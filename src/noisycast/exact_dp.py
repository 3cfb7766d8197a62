"""Exact per-stage error probabilities for windowed decision chains.

The state is the window of the most recent corrupted broadcasts, encoded in
base A (A = 2 for flips, 3 with the erasure symbol) with digit 0 the newest
symbol.  The pair of window distributions conditional on each hypothesis is
pushed forward one stage at a time; the deciding node's cutoffs are computed
from those same distributions, so the recursion reproduces exactly the
strategy the simulated nodes follow and serves as their oracle.
window_stages hands each node's errors and its table of P(decide 0 |
hypothesis, window state) to exact_error_series and the Monte Carlo window
kernel one stage at a time, so memory is O(alphabet**capacity).  Window
capacity is capped at 12 symbols (3**12 states is where exactness stops
being cheap).

martingale_check enumerates full broadcast histories instead of windows and
verifies two structural facts of the noisy public likelihood ratio: it is a
martingale under hypothesis 0 up to floating-point error, and the mass it
places above any fixed threshold trends downward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief_model import BeliefModel, cdf
from .channels import Channel, ErasureSchedule, FlipSchedule, _erasure_levels_at, flip_prob
from .strategy import MAP_RULE, ThresholdRule, likelihood_threshold
from .topology import MemorySchedule
from .analysis import SeriesResult

MAX_CAPACITY = 12


@dataclass
class WindowDistribution:
    """Conditional distributions of the window seen by the next node."""

    alphabet: int
    capacity: int
    length: int
    mass0: np.ndarray
    mass1: np.ndarray


@dataclass
class StageErrors:
    """decide0[h, s] is P(decide 0 | hypothesis h, window state s)."""

    type1: float
    type2: float
    decide0: np.ndarray


def initial_window(alphabet: int, capacity: int) -> WindowDistribution:
    if alphabet not in (2, 3):
        raise ValueError(f"alphabet must be 2 or 3, got {alphabet!r}")
    if not 1 <= capacity <= MAX_CAPACITY:
        raise ValueError(f"capacity must lie in [1, {MAX_CAPACITY}], got {capacity!r}")
    return WindowDistribution(alphabet, capacity, 0, np.ones(1), np.ones(1))


def window_alphabet(channel: Channel) -> int:
    return 2 if isinstance(channel, FlipSchedule) else 3


def _cutoffs(mass0: np.ndarray, mass1: np.ndarray, threshold: float, prior_1: float) -> np.ndarray:
    """Per-state private-belief cutoffs of the likelihood-ratio test.

    States with zero mass under both hypotheses are unreachable; they get
    the neutral cutoff so downstream arrays stay finite.
    """
    tw = threshold * prior_1
    pz = 1.0 - prior_1
    num = tw * mass0
    den = num + pz * mass1
    tau = np.full(num.shape, tw / (tw + pz))
    np.divide(num, den, out=tau, where=den > 0.0)
    return tau


def evolve_window(
    dist: WindowDistribution,
    stage: int,
    model: BeliefModel,
    channel: Channel,
    rule: ThresholdRule = MAP_RULE,
) -> tuple[WindowDistribution, StageErrors]:
    """Decide at `stage` against the current window, then absorb the broadcast.

    Returns the window distribution node stage + 1 will see, together with
    the deciding node's exact error probabilities and decision table.
    """
    a_size = dist.alphabet
    tau = _cutoffs(dist.mass0, dist.mass1, likelihood_threshold(rule, model), model.prior_1)
    dec0 = np.stack([cdf(model, 0, tau), cdf(model, 1, tau)])
    type1 = float(dist.mass0 @ (1.0 - dec0[0]))
    type2 = float(dist.mass1 @ dec0[1])

    # sym[h, v, s]: mass of window state s under h times P(broadcast v | h, s)
    sym = np.empty((2, a_size, tau.size))
    if isinstance(channel, FlipSchedule):
        q = flip_prob(channel, stage)
        wd = (1.0 - 2.0 * q) * dec0
        np.add(q, wd, out=sym[:, 0])
        np.subtract(1.0 - q, wd, out=sym[:, 1])
    else:
        lv0, lv1 = _erasure_levels_at(channel, stage)
        dec1 = 1.0 - dec0
        np.multiply(1.0 - lv0, dec0, out=sym[:, 0])
        np.multiply(1.0 - lv1, dec1, out=sym[:, 1])
        np.add(lv0 * dec0, lv1 * dec1, out=sym[:, 2])
    sym *= np.stack([dist.mass0, dist.mass1])[:, None, :]

    new_len = min(dist.capacity, stage)
    if new_len == dist.length:
        # at capacity: drop the oldest symbol (top digit), push the new one
        sym = sym.reshape(2, a_size, a_size, -1).sum(axis=2)
    elif new_len != dist.length + 1:
        raise ValueError(f"window of length {dist.length} cannot evolve to length {new_len}")
    # symbol v of kept state s lands at A*s + v: the new symbol is digit 0
    new = sym.transpose(0, 2, 1).reshape(2, -1)
    new_dist = WindowDistribution(a_size, dist.capacity, new_len, new[0], new[1])
    return new_dist, StageErrors(type1, type2, dec0)


def window_stages(
    model: BeliefModel, channel: Channel, capacity: int, stages: int, rule: ThresholdRule = MAP_RULE
):
    """Yield the StageErrors of nodes 1..stages, one stage at a time.

    Only the current window distribution and decision table are live, so
    memory is O(alphabet**capacity) however many stages run.
    """
    dist = initial_window(window_alphabet(channel), capacity)
    for k in range(1, stages + 1):
        dist, errs = evolve_window(dist, k, model, channel, rule)
        yield errs


def exact_error_series(
    model: BeliefModel,
    channel: Channel,
    memory: MemorySchedule,
    stages: int,
    rule: ThresholdRule = MAP_RULE,
) -> SeriesResult:
    """Exact error probability of every node 1..stages under bounded memory.

    Returns a SeriesResult over all stages with extra columns p0_type1 and
    p1_type2.
    """
    if memory.family != "bounded":
        raise ValueError(f"exact recursion needs bounded memory, got family {memory.family!r}")
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages!r}")
    pe = np.empty(stages)
    t1 = np.empty(stages)
    t2 = np.empty(stages)
    for i, errs in enumerate(window_stages(model, channel, memory.capacity, stages, rule)):
        t1[i] = errs.type1
        t2[i] = errs.type2
        pe[i] = model.prior_0 * errs.type1 + model.prior_1 * errs.type2
    return SeriesResult(
        np.arange(1, stages + 1),
        pe,
        meta={"producer": "exact", "capacity": memory.capacity},
        extra={"p0_type1": t1, "p1_type2": t2},
    )


@dataclass
class MartingaleReport:
    max_deviation: float
    stage_deviations: np.ndarray
    tail_mass: np.ndarray
    tail_threshold: float


def martingale_check(
    schedule: FlipSchedule, model: BeliefModel, k_max: int, tail_threshold: float = 0.5
) -> MartingaleReport:
    """Enumerate all flip-channel broadcast histories up to depth k_max.

    stage_deviations[k-1] is the largest one-step martingale defect of the
    public likelihood ratio when extending histories of length k - 1, and
    tail_mass[k-1] the hypothesis-0 mass on histories of length k whose
    likelihood ratio exceeds tail_threshold.
    """
    if not isinstance(schedule, FlipSchedule):
        raise ValueError("martingale enumeration is defined for flip channels")
    if not 1 <= k_max <= 14:
        raise ValueError(f"k_max must lie in [1, 14], got {k_max!r}")
    p0 = np.ones(1)
    p1 = np.ones(1)
    devs = np.empty(k_max)
    masses = np.empty(k_max)
    for k in range(1, k_max + 1):
        tau = _cutoffs(p0, p1, model.prior_ratio, model.prior_1)
        dec0_h0 = cdf(model, 0, tau)
        dec0_h1 = cdf(model, 1, tau)
        q = flip_prob(schedule, k)
        w = 1.0 - 2.0 * q
        a0 = q + w * dec0_h0
        a1 = q + w * dec0_h1
        c0 = np.stack([p0 * a0, p0 * (1.0 - a0)], axis=1)
        c1 = np.stack([p1 * a1, p1 * (1.0 - a1)], axis=1)
        devs[k - 1] = float(np.abs((c1.sum(axis=1) - p1) / p0).max())
        p0 = c0.ravel()
        p1 = c1.ravel()
        masses[k - 1] = float(p0[(p1 / p0) > tail_threshold].sum())
    return MartingaleReport(float(devs.max()), devs, masses, tail_threshold)
