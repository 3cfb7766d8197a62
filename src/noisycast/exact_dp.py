"""Exact per-stage error probabilities for windowed decision chains.

The state is the window of the most recent corrupted broadcasts, encoded in
base A (A = 2 for flips, 3 with the erasure symbol) with digit 0 the newest
symbol: 0 is digit 0, 1 is digit A - 1 and the erasure digit 1, so
swapping 0s and 1s maps state s to its mirror A**L - 1 - s.  The pair of
window distributions conditional on each hypothesis is pushed forward one
stage at a time; the deciding node's cutoffs are computed from those same
distributions, so the recursion reproduces exactly the strategy the
simulated nodes follow and serves as their oracle.  Each state's cutoff is
strategy's Bayes rule, pi0 * m0 / (pi0 * m0 + pi1 * m1).  At prior_1 = 1/2,
with a flip channel or equal erasure levels for 0s and 1s, swapping
hypotheses, decisions and symbols maps the chain onto itself
(f1(r) = f0(1 - r)): P(s | h = 1) = P(mirror s | h = 0), so only the row
of h = 0 is carried.  Any other prior or law carries both rows through the
same step.
window_stages hands each node's errors and its table of P(decide 0 |
hypothesis, window state) to exact_error_series and the Monte Carlo window
kernel one stage at a time, so memory is O(alphabet**capacity).  Window
capacity is capped at 12 symbols (3**12 states is where exactness stops
being cheap).  scan_error_series does the same for the erasure scan, whose
state is the last unerased broadcast, and builds the scan kernel's table.

martingale_check enumerates full broadcast histories instead of windows and
verifies two structural facts of the noisy public likelihood ratio: it is a
martingale under hypothesis 0 up to floating-point error, and the mass it
places above 1/2 trends downward; its masses are the flip chain's exact law.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .belief_model import BeliefModel, cdf_pair, cdfs
from .channels import Channel, ErasureSchedule, FlipSchedule, erasure_levels, flip_probs
from .topology import MemorySchedule, memory_size
from .analysis import SeriesResult, check_count

MAX_CAPACITY = 12
MAX_MARTINGALE_DEPTH = 14  # martingale_check enumerates 2**k_max histories


class _Workspace:
    """Every state-sized array of one window recursion, sized for A**C
    states and the mass rows carried: the masses, which each step
    overwrites, the decision tables, the cutoffs and scratch.  That is 7
    float64 values per state with one mass row and 11 with two.  Each
    window_stages iterator makes its own, so block jobs on threads share
    nothing."""

    def __init__(self, alphabet: int, capacity: int, rows: int):
        size = alphabet**capacity
        self.mass = np.empty(rows * size)
        self.dec0 = np.empty(2 * size)
        self.dec1 = np.empty(2 * size) if rows == 2 else None
        self.tau = np.empty(rows * size)
        self.scratch = np.empty(3 * size)


def _rows(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """The leading rows * n values of a flat buffer as a contiguous (rows, n) array."""
    return buf[: rows * n].reshape(rows, n)


@dataclass
class WindowDistribution:
    """Conditional distributions of the window seen by the next node:
    masses[h, s] is P(window state s | hypothesis h).  Under a mirrored law
    masses holds row 0 alone and mass1 is its reversed view.  masses lives
    in the workspace, and evolve_window writes the next distribution over
    the one it reads: a caller who wants to keep one copies masses before
    the next step."""

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
        return self.masses[1] if self.masses.shape[0] == 2 else self.masses[0, ::-1]


@dataclass
class StageErrors:
    """decide0[h, s] is P(decide 0 | hypothesis h, window state s).  It lives
    in the recursion's workspace: valid until the next step is taken.  With
    one mass row, type2 is type1."""

    type1: float
    type2: float
    decide0: np.ndarray


def initial_window(alphabet: int, capacity: int, rows: int = 2) -> WindowDistribution:
    """The empty window, carrying both mass rows or, for a mirrored law, row 0 alone."""
    if not 1 <= capacity <= MAX_CAPACITY:
        raise ValueError(f"capacity must lie in [1, {MAX_CAPACITY}], got {capacity!r}")
    work = _Workspace(alphabet, capacity, rows)
    masses = _rows(work.mass, rows, 1)
    masses.fill(1.0)
    return WindowDistribution(alphabet, capacity, 0, masses, work)


def window_alphabet(channel: Channel) -> int:
    return 2 if isinstance(channel, FlipSchedule) else 3


def _channel_laws(channel: Channel, ks):
    """Yield each stage's law[d][v] = P(digit v | decision d), for the stages ks."""
    if isinstance(channel, FlipSchedule):
        for q in flip_probs(channel, ks):
            yield (1.0 - q, q), (q, 1.0 - q)
    else:
        for lv0, lv1 in zip(*erasure_levels(channel, ks)):
            yield (1.0 - lv0, lv0, 0.0), (0.0, lv1, 1.0 - lv1)


def _mirrored(model: BeliefModel, law) -> bool:
    """Whether one mass row determines the other, mirror states having cutoffs
    tau and 1 - tau: prior 1/2 and a law that swapping decisions and digits
    maps onto itself.  _scan_symmetric takes the same condition."""
    return model.prior_1 == 0.5 and law[0][::-1] == law[1]


def _cutoffs(mass0, mass1, model: BeliefModel, out=None, den=None, upper=None):
    """Per-state private-belief cutoffs pi0 * mass0 / den of strategy's rule,
    den = pi0 * mass0 + pi1 * mass1, in out (and the scratch den) when
    given; the numerator is formed in out.  With upper, also pi1 * mass1 /
    den there: 1 - tau without the cancellation.

    States with zero mass under both hypotheses are unreachable; they get
    the cutoff of no evidence, pi0, so downstream arrays stay finite.
    """
    pi0, pi1 = model.prior_0, model.prior_1
    tau = np.multiply(pi0, mass0, out=out)
    side = np.multiply(pi1, mass1, out=den if upper is None else upper)
    den = np.add(tau, side, out=den)
    live = True if den.min() > 0.0 else np.greater(den, 0.0)
    for o, w in ((tau, pi0), (side, pi1))[: 1 if upper is None else 2]:
        np.divide(o, den, out=o, where=live)
        if live is not True:
            np.copyto(o, w, where=~live)
    return tau


def evolve_window(
    dist: WindowDistribution,
    stage: int,
    model: BeliefModel,
    channel: Channel,
    law=None,
) -> tuple[WindowDistribution, StageErrors]:
    """Decide at `stage` against the current window, then absorb the broadcast.

    Returns the window distribution node stage + 1 will see, together with
    the deciding node's exact error probabilities and decision table.  Both
    live in the workspace dist carries (a fresh one if it has none), so the
    step allocates nothing state-sized.  The step overwrites the masses of
    dist with the next ones: copy dist.masses first to keep them.  law is
    the stage's _channel_laws entry, computed from the channel when not
    given.  The broadcast depends on the window only through the decision,
    so the channel is applied after the oldest symbol is summed out of each
    decision's mass.
    """
    a_size = dist.alphabet
    rows, n = dist.masses.shape
    ws = dist.work or _Workspace(a_size, dist.capacity, rows)
    new_len = min(dist.capacity, stage)
    if new_len not in (dist.length, dist.length + 1):
        raise ValueError(f"window of length {dist.length} cannot evolve to length {new_len}")
    law = next(_channel_laws(channel, [stage])) if law is None else law
    if rows == 1 and not _mirrored(model, law):
        raise ValueError("one mass row needs a mirrored channel law at prior 1/2")
    masses = dist.masses
    s0, s1, s2 = _rows(ws.scratch, 3, n)
    tau, upper = ws.tau[:n], (ws.tau[n : 2 * n] if rows == 2 else None)
    _cutoffs(masses[0], dist.mass1, model, tau, s0, upper)
    dec0 = cdfs(model, tau, out=_rows(ws.dec0, 2, n), scratch=(s0, s1, s2))
    # P(decide 1 | h, s) = 1 - F_h(tau) = F_(1-h)(1 - tau): the other cdf at
    # the upper side or, with one row, the decide-0 row of h = 1 mirrored
    dec1 = dec0[1:, ::-1] if upper is None else _rows(ws.dec1, 2, n)
    if upper is not None:
        cdfs(model, upper, out=dec1[::-1], scratch=(s0, s1, s2))
    # part_d[h, s]: mass of state s under h times P(decide d | h, s), split
    # into the spent cutoffs and dec1 (or scratch) so that the next masses
    # can go over the ones read here
    part0 = np.multiply(masses, dec0[:rows], out=_rows(ws.tau, rows, n))
    part1 = np.multiply(masses, dec1, out=dec1 if rows == 2 else s0[None])
    if new_len == dist.length:
        # at capacity: drop the oldest symbol (top digit), adding its A slices in order
        tops = [part.reshape(rows, a_size, -1) for part in (part0, part1)]
        for top, i in itertools.product(tops, range(1, a_size)):
            np.add(top[:, 0], top[:, i], out=top[:, 0])
        part0, part1 = (top[:, 0] for top in tops)
    type1 = float(part1[0].sum())
    type2 = float(part0[1].sum()) if rows == 2 else type1
    # digit v of kept state s lands at A*s + v: the new symbol is digit 0
    new = _rows(ws.mass, rows, a_size**new_len)
    slots = new.reshape(rows, -1, a_size)
    tmp = s1[: part0.shape[1]]
    # row by row: a scalar times a strided two-row view makes numpy buffer it
    for v, (w0, w1) in enumerate(zip(*law)):
        for h in range(rows):
            dst = slots[h, :, v]
            np.multiply(w0 or w1, part0[h] if w0 else part1[h], out=dst)
            if w0 and w1:
                np.add(dst, np.multiply(w1, part1[h], out=tmp), out=dst)
    return WindowDistribution(a_size, dist.capacity, new_len, new, ws), StageErrors(type1, type2, dec0)


def window_stages(model: BeliefModel, channel: Channel, capacity: int, stages: int):
    """Yield the StageErrors of nodes 1..stages, one stage at a time.

    Only the current window distribution and decision table are live, so
    memory is O(alphabet**capacity) however many stages run.  At prior 1/2,
    when every stage's law is mirrored, one mass row is carried.
    """
    ks = np.arange(1, stages + 1)
    rows = 1 if all(_mirrored(model, law) for law in _channel_laws(channel, ks)) else 2
    dist = initial_window(window_alphabet(channel), capacity, rows)
    for k, law in enumerate(_channel_laws(channel, ks), start=1):
        dist, errs = evolve_window(dist, k, model, channel, law)
        yield errs


def exact_error_series(model: BeliefModel, channel: Channel, memory: MemorySchedule, stages: int) -> SeriesResult:
    """Exact error probability of every node 1..stages under bounded memory.

    Returns a SeriesResult over all stages with extra columns p0_type1 and
    p1_type2.
    """
    if memory.family != "bounded":
        raise ValueError(f"exact recursion needs bounded memory, got family {memory.family!r}")
    stages = check_count(stages, "stages")
    pe = np.empty(stages)
    t1 = np.empty(stages)
    t2 = np.empty(stages)
    for i, errs in enumerate(window_stages(model, channel, memory.capacity, stages)):
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
    """P(decide 0 | h), h = 0, 1, then P(decide 1 | h), after one symbol whose
    likelihood under h times the prior of h is l_h.  The Bayes cutoff is
    c = l0 / (l0 + l1), 1 - b at the posterior b the symbol leaves; both cdfs
    are taken at min(c, 1 - c), where they are at most 3/4, so no
    complement loses relative precision.  An impossible symbol, never read,
    gets c = 1/2."""
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
    """Equal levels for 0s and 1s at prior 1/2, _mirrored's condition:
    swapping hypotheses and decisions maps the scan onto itself
    (f1(r) = f0(1 - r)), and the equal prior weights cancel from every
    cutoff.  So both error types are one e, a broadcast 1's column mirrors
    a broadcast 0's, no evidence has cutoff 1/2, and every code survives
    stage k with the same lv_k.  The law of the evidence is then `out`, the
    mass with nothing to read, plus one entry (stage, mass, weight of e,
    weight of 1 - e) per stage within reach, in units of `scale` and summed
    in m, ew, gw: O(1) per stage, amortised.  Writes go through
    memoryviews, with no numpy call per stage."""
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


def _scan_general(pair, priors, lv0s, lv1s, memory, table, t1, t2) -> None:
    """Any levels and priors (pi0, pi1): one mass per code and hypothesis.
    A code's survival depends on the decision it feeds, so each stage
    touches every code: O(K**2) in all."""
    pi0, pi1 = priors
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
            table[0, col], table[1, col], surv[0, col], surv[1, col] = _scan_column(pair, pi0 * l0, pi1 * l1)
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
    stages = check_count(stages, "stages")
    pair = cdf_pair(model)
    lv0s, lv1s = erasure_levels(channel, np.arange(1, stages + 1))
    table = np.empty((2, 2 * stages + 2))
    table[:, 0] = table[:, 1] = pair(model.prior_0)
    t1, t2 = np.empty(stages), np.empty(stages)
    if model.prior_1 == 0.5 and np.array_equal(lv0s, lv1s):
        _scan_symmetric(pair, memoryview(lv0s), memory, table, t1.data)
        t2[:] = t1
    else:
        _scan_general(pair, (model.prior_0, model.prior_1), lv0s, lv1s, memory, table, t1, t2)
    table.flags.writeable = False
    pe = model.prior_0 * t1 + model.prior_1 * t2
    meta = {"producer": "exact_scan", "memory": memory.family}
    return SeriesResult(np.arange(1, stages + 1), pe, meta=meta, extra={"p0_type1": t1, "p1_type2": t2}), table


@dataclass
class MartingaleReport:
    max_deviation: float
    stage_deviations: np.ndarray
    tail_mass: np.ndarray
    errors: SeriesResult


def martingale_check(schedule: FlipSchedule, model: BeliefModel, k_max: int) -> MartingaleReport:
    """Enumerate all flip-channel broadcast histories up to depth k_max.

    stage_deviations[k-1] is the largest one-step martingale defect of the
    public likelihood ratio when extending histories of length k - 1, and
    tail_mass[k-1] the hypothesis-0 mass on histories of length k whose
    likelihood ratio exceeds 1/2.  errors, shaped as exact_error_series's,
    sums p0 * (1 - F0(tau)) and p1 * F1(tau) over the histories node k reads.
    """
    if not isinstance(schedule, FlipSchedule):
        raise ValueError("martingale enumeration is defined for flip channels")
    if not 1 <= k_max <= MAX_MARTINGALE_DEPTH:
        raise ValueError(f"k_max must lie in [1, {MAX_MARTINGALE_DEPTH}], got {k_max!r}")
    p0 = np.ones(1)
    p1 = np.ones(1)
    devs, masses, t1, t2 = np.empty((4, k_max))
    for k, q in enumerate(flip_probs(schedule, np.arange(1, k_max + 1)).tolist(), start=1):
        tau = _cutoffs(p0, p1, model)
        dec0_h0, dec0_h1 = cdfs(model, tau)
        t1[k - 1] = float(p0 @ (1.0 - dec0_h0))
        t2[k - 1] = float(p1 @ dec0_h1)
        w = 1.0 - 2.0 * q
        a0 = q + w * dec0_h0
        a1 = q + w * dec0_h1
        c0 = np.stack([p0 * a0, p0 * (1.0 - a0)], axis=1)
        c1 = np.stack([p1 * a1, p1 * (1.0 - a1)], axis=1)
        devs[k - 1] = float(np.abs((c1.sum(axis=1) - p1) / p0).max())
        p0 = c0.ravel()
        p1 = c1.ravel()
        masses[k - 1] = float(p0[(p1 / p0) > 0.5].sum())
    errors = SeriesResult(np.arange(1, k_max + 1), model.prior_0 * t1 + model.prior_1 * t2,
                          meta={"producer": "enumeration"}, extra={"p0_type1": t1, "p1_type2": t2})
    return MartingaleReport(float(devs.max()), devs, masses, errors)
