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
being cheap).  scan_error_series does the same for the erasure scan, whose
state is the last unerased broadcast, and builds the scan kernel's table.

martingale_check enumerates full broadcast histories instead of windows and
verifies two structural facts of the noisy public likelihood ratio: it is a
martingale under hypothesis 0 up to floating-point error, and the mass it
places above any fixed threshold trends downward.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .belief_model import BeliefModel, cdf, cdf_pair
from .channels import Channel, ErasureSchedule, FlipSchedule, _erasure_levels_at, erasure_levels, flip_prob
from .strategy import MAP_RULE, ThresholdRule, likelihood_threshold
from .topology import MemorySchedule, memory_size
from .analysis import SeriesResult

MAX_CAPACITY = 12


class _Workspace:
    """Every state-sized array of one window recursion, sized for the full
    window of A**C states: two mass buffers that successive distributions
    alternate between, the decision table, two scratch arrays and the
    cutoffs.  Each window_stages iterator makes its own, so block jobs on
    threads share nothing."""

    def __init__(self, alphabet: int, capacity: int):
        size = alphabet**capacity
        self.mass = np.empty((2, 2 * size))
        self.dec0 = np.empty(2 * size)
        self.scratch = np.empty((2, 2 * size))
        self.tau = np.empty(size)
        self.live = np.empty(size, dtype=bool)


def _rows(buf: np.ndarray, n: int) -> np.ndarray:
    """The leading 2 * n values of a flat buffer as a contiguous (2, n) array."""
    return buf[: 2 * n].reshape(2, n)


@dataclass
class WindowDistribution:
    """Conditional distributions of the window seen by the next node:
    masses[h, s] is P(window state s | hypothesis h).  evolve_window writes
    the next distribution into the workspace buffer this one does not
    occupy, so a distribution outlives one step and is overwritten by the
    second."""

    alphabet: int
    capacity: int
    length: int
    masses: np.ndarray
    work: _Workspace | None = None

    @property
    def mass0(self) -> np.ndarray:
        return self.masses[0]

    @property
    def mass1(self) -> np.ndarray:
        return self.masses[1]


@dataclass
class StageErrors:
    """decide0[h, s] is P(decide 0 | hypothesis h, window state s).  It lives
    in the recursion's workspace: valid until the next step is taken."""

    type1: float
    type2: float
    decide0: np.ndarray


def initial_window(alphabet: int, capacity: int) -> WindowDistribution:
    if alphabet not in (2, 3):
        raise ValueError(f"alphabet must be 2 or 3, got {alphabet!r}")
    if not 1 <= capacity <= MAX_CAPACITY:
        raise ValueError(f"capacity must lie in [1, {MAX_CAPACITY}], got {capacity!r}")
    work = _Workspace(alphabet, capacity)
    masses = _rows(work.mass[0], 1)
    masses.fill(1.0)
    return WindowDistribution(alphabet, capacity, 0, masses, work)


def window_alphabet(channel: Channel) -> int:
    return 2 if isinstance(channel, FlipSchedule) else 3


def _cutoffs(mass0, mass1, threshold: float, prior_1: float, out=None, num=None, den=None, live=None):
    """Per-state private-belief cutoffs of the likelihood-ratio test, in out
    (and the scratch num, den and live) when given.

    States with zero mass under both hypotheses are unreachable; they get
    the neutral cutoff so downstream arrays stay finite.
    """
    tw = threshold * prior_1
    pz = 1.0 - prior_1
    num = np.multiply(tw, mass0, out=num)
    den = np.add(num, np.multiply(pz, mass1, out=den), out=den)
    tau = np.empty(num.shape) if out is None else out
    tau.fill(tw / (tw + pz))
    np.divide(num, den, out=tau, where=np.greater(den, 0.0, out=live))
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
    the deciding node's exact error probabilities and decision table.  Both
    live in the workspace dist carries (a fresh one if it has none), so the
    step allocates nothing state-sized.
    """
    a_size = dist.alphabet
    ws = dist.work or _Workspace(a_size, dist.capacity)
    new_len = min(dist.capacity, stage)
    if new_len not in (dist.length, dist.length + 1):
        raise ValueError(f"window of length {dist.length} cannot evolve to length {new_len}")
    masses = dist.masses
    n = masses.shape[1]
    aux = _rows(ws.scratch[0], n)
    tmp = _rows(ws.scratch[1], n)
    tau = _cutoffs(
        masses[0], masses[1], likelihood_threshold(rule, model), model.prior_1,
        ws.tau[:n], tmp[0], tmp[1], ws.live[:n],
    )
    dec0 = _rows(ws.dec0, n)
    for h in (0, 1):
        cdf(model, h, tau, out=dec0[h], scratch=(aux[0], aux[1], tmp[0]))
    np.subtract(1.0, dec0, out=aux)
    type1 = float(masses[0] @ aux[0])
    type2 = float(masses[1] @ dec0[1])

    flip = isinstance(channel, FlipSchedule)
    if flip:
        q = flip_prob(channel, stage)
        np.multiply(1.0 - 2.0 * q, dec0, out=aux)
    else:
        lv0, lv1 = _erasure_levels_at(channel, stage)
    # the next masses go to the mass buffer dist does not occupy;
    # symbol v of kept state s lands at A*s + v: the new symbol is digit 0
    out = ws.mass[1] if np.may_share_memory(masses, ws.mass[0]) else ws.mass[0]
    new = _rows(out, a_size**new_len)
    slots = new.reshape(2, -1, a_size)
    grow = new_len > dist.length
    for v in range(a_size):
        # sym[h, s]: mass of window state s under h times P(broadcast v | h, s);
        # aux holds (1 - 2q) * dec0 for flips and 1 - dec0 for erasures
        sym = slots[:, :, v] if grow else tmp
        if flip and v == 0:
            np.add(q, aux, out=sym)
        elif flip:
            np.subtract(1.0 - q, aux, out=sym)
        elif v == 0:
            np.multiply(1.0 - lv0, dec0, out=sym)
        elif v == 1:
            np.multiply(1.0 - lv1, aux, out=sym)
        else:  # the erasure symbol, the last use of aux
            np.multiply(lv0, dec0, out=sym)
            np.add(sym, np.multiply(lv1, aux, out=aux), out=sym)
        np.multiply(sym, masses, out=sym)
        if not grow:
            # at capacity: drop the oldest symbol (top digit), adding its A slices in order
            top = sym.reshape(2, a_size, -1)
            np.add(top[:, 0], top[:, 1], out=slots[:, :, v])
            for i in range(2, a_size):
                np.add(slots[:, :, v], top[:, i], out=slots[:, :, v])
    return WindowDistribution(a_size, dist.capacity, new_len, new, ws), StageErrors(type1, type2, dec0)


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


def _scan_column(pair, l0: float, l1: float) -> tuple[float, float, float, float]:
    """P(decide 0 | h), h = 0, 1, then P(decide 1 | h), after one symbol of
    likelihood l_h under h.  The MAP cutoff is c = l0 / (l0 + l1) whatever
    the prior (as tandem_posterior then belief_cutoff_from_public give it);
    both cdfs are taken at min(c, 1 - c), where they are at most 3/4, so no
    complement loses relative precision.  An impossible symbol gets c = 1/2."""
    den = l0 + l1
    if den == 0.0 or l0 <= l1:
        f0, f1 = pair(l0 / den if den else 0.5)
        return f0, f1, 1.0 - f0, 1.0 - f1
    g1, g0 = pair(l1 / den)  # the survivals at c
    return 1.0 - g0, 1.0 - g1, g0, g1


def _reach_floor(memory: MemorySchedule, k: int) -> int:
    """The oldest stage node k or a later node can read: k - memory_size,
    except that sporadic windows reopen at the next perfect square."""
    square = (math.isqrt(k - 1) + 1) ** 2
    lo = k - memory_size(memory, k)
    return min(lo, square - math.isqrt(square)) if memory.family == "sporadic" else lo


def _scan_symmetric(pair, levels, memory, table, errs) -> None:
    """Equal levels for 0s and 1s: swapping hypotheses and decisions maps the
    scan onto itself (f1(r) = f0(1 - r); the prior leaves the cutoff), so
    both error types are one e, a broadcast 1's column mirrors a broadcast
    0's, and every code survives stage k with the same lv_k.  The law of the
    evidence is then `out`, the mass with nothing to read, plus one entry
    (stage, mass, weight of e, weight of 1 - e) per stage within reach, in
    units of `scale` and summed in m, ew, gw: O(1) per stage, amortised.
    Writes go through memoryviews, with no numpy call per stage."""
    full = memory.family == "full"
    cols, row = table.reshape(-1).data, table.shape[1]
    g1, e1 = pair(0.5)  # no evidence: P(decide 0 | h = 0) and P(decide 0 | h = 1)
    out, scale, m, ew, gw = 1.0, 1.0, 0.0, 0.0, 0.0
    kept = deque()
    for k, lv in enumerate(levels, start=1):
        while not full and kept and kept[0][0] < _reach_floor(memory, k):
            _, dm, de, dg = kept.popleft()
            out, m, ew, gw = out + dm * scale, m - dm, ew - de, gw - dg
        seen = m, ew, gw
        lo = 1 if full else k - memory_size(memory, k)
        if kept and kept[0][0] < lo:  # a sporadic window, shorter than the reach
            seen = [sum(x) for x in zip(*(en[1:] for en in kept if en[0] >= lo))]
        unseen = out + (m - seen[0]) * scale
        e = seen[1] * scale + unseen * e1
        g = seen[2] * scale + unseen * g1
        errs[k - 1] = e
        a0, a1, b0, b1 = _scan_column(pair, e, g)  # a broadcast 1 has likelihoods (e, 1 - e)
        cols[2 * k], cols[row + 2 * k], cols[2 * k + 1], cols[row + 2 * k + 1] = b1, b0, a0, a1
        scale *= lv
        out *= lv
        if scale < 1e-100:
            m, ew, gw = m * scale, ew * scale, gw * scale
            kept = deque((j, dm * scale, de * scale, dg * scale) for j, dm, de, dg in kept)
            scale = 1.0
        w = (1.0 - lv) / scale
        de, dg = w * (e * b0 + g * a1), w * (g * b1 + e * a0)
        m, ew, gw = m + w, ew + de, gw + dg
        if not full:
            kept.append((k, w, de, dg))


def _scan_general(pair, lv0s, lv1s, memory, table, t1, t2) -> None:
    """Any levels: one mass per code and hypothesis.  A code's survival
    depends on the decision it feeds, so each stage touches every code."""
    surv = np.empty_like(table)
    surv[:, :2] = 1.0 - table[:, :2]
    mass = np.zeros_like(table)
    mass[:, 0] = 1.0
    for k in range(1, len(lv0s) + 1):
        lo, hi = 2 * (k - memory_size(memory, k)), 2 * k
        unseen = mass[:, :lo].sum(axis=1)
        s = unseen * table[:, 0] + (mass[:, lo:hi] * table[:, lo:hi]).sum(axis=1)
        r = unseen * surv[:, 0] + (mass[:, lo:hi] * surv[:, lo:hi]).sum(axis=1)
        t1[k - 1], t2[k - 1] = r[0], s[1]
        for col, (l0, l1) in ((hi, s), (hi + 1, r)):
            table[0, col], table[1, col], surv[0, col], surv[1, col] = _scan_column(pair, l0, l1)
        lv0, lv1 = lv0s[k - 1], lv1s[k - 1]
        mass[:, :lo] *= lv0 * table[:, :1] + lv1 * surv[:, :1]
        mass[:, lo:hi] *= lv0 * table[:, lo:hi] + lv1 * surv[:, lo:hi]
        mass[:, hi] = (1.0 - lv0) * s
        mass[:, hi + 1] = (1.0 - lv1) * r


def scan_error_series(model: BeliefModel, channel: ErasureSchedule, memory: MemorySchedule, stages: int):
    """Exact errors of the nearest-unerased scan over an erasure channel.

    Node k decides on the last unerased broadcast within its window alone,
    coded 2 * stage + value (codes 0 and 1: none).  Returns a SeriesResult
    over all stages with extra columns p0_type1 and p1_type2, carried from
    the survival side, and the read-only (2, 2 * stages + 2) table of
    P(decide 0 | hypothesis, code) built from the exact P(decide 1 | h).
    """
    if not isinstance(channel, ErasureSchedule):
        raise ValueError(f"the scan runs over an erasure channel, got {channel!r}")
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages!r}")
    pair = cdf_pair(model)
    lv0s, lv1s = erasure_levels(channel, np.arange(1, stages + 1))
    table = np.empty((2, 2 * stages + 2))
    table[:, 0] = table[:, 1] = pair(0.5)
    t1, t2 = np.empty(stages), np.empty(stages)
    if np.array_equal(lv0s, lv1s):
        _scan_symmetric(pair, lv0s.tolist(), memory, table, t1.data)
        t2[:] = t1
    else:
        _scan_general(pair, lv0s, lv1s, memory, table, t1, t2)
    table.flags.writeable = False
    pe = model.prior_0 * t1 + model.prior_1 * t2
    meta = {"producer": "exact_scan", "memory": memory.family}
    return SeriesResult(np.arange(1, stages + 1), pe, meta=meta, extra={"p0_type1": t1, "p1_type2": t2}), table


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
