"""Window recursion tests against an exact rational-arithmetic oracle.

The oracle below re-derives the per-stage error probabilities from scratch:
windows are plain tuples of symbols, masses are Fractions, and the cutoff,
decision, and broadcast laws are written out longhand.  Everything it shares
with the production code is the model definition, so agreement to float
precision checks the packed-state bookkeeping end to end.

_loop_evolve writes the window step out longhand, one hypothesis row at a
time; the fused step must match it bit for bit, decision tables included.
TestOneRow holds the mirrored one-row recursion to the two-row one.

_scan_oracle does the same for the nearest-unerased scan: the evidence is
a (stage, value) pair or None, and its law is pushed forward in Fractions.

Two stage-2 values are frozen from hand calculation: 0.2275 for a unity
window behind a 0.2 flip channel, and 0.20625 for a two-slot window behind
a 0.3 erasure channel.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisycast.belief_model import BeliefModel, cdf
from noisycast.belief_model import cdf_pair
from noisycast.channels import ErasureSchedule, FlipSchedule, erasure_levels, flip_probs
from noisycast.exact_dp import (
    MAX_CAPACITY,
    StageErrors,
    WindowDistribution,
    _cutoffs,
    _scan_general,
    exact_error_series,
    evolve_window,
    initial_window,
    martingale_check,
    scan_error_series,
    window_alphabet,
    window_stages,
)
from noisycast.topology import MemorySchedule, memory_size


def _g0(r: Fraction) -> Fraction:
    return 2 * r - r * r


def _g1(r: Fraction) -> Fraction:
    return r * r


def _oracle_series(stages, capacity, channel, prior_1=Fraction(1, 2)):
    """Per-stage (type1, type2) as exact Fractions, windows kept as tuples.
    Nodes decide 1 when the private likelihood ratio times the posterior
    odds of the window exceeds one: the Bayes test."""
    prior_0 = 1 - prior_1
    states = {(): (Fraction(1), Fraction(1))}
    rows = []
    for k in range(1, stages + 1):
        t1 = Fraction(0)
        t2 = Fraction(0)
        nxt = defaultdict(lambda: [Fraction(0), Fraction(0)])
        for w, (m0, m1) in states.items():
            # private-belief cutoff: one minus the posterior of hypothesis 1
            tau = prior_0 * m0 / (prior_0 * m0 + prior_1 * m1)
            g0, g1 = _g0(tau), _g1(tau)
            t1 += m0 * (1 - g0)
            t2 += m1 * g1
            if isinstance(channel, FlipSchedule):
                q = Fraction(channel.q).limit_denominator(10**6)
                sym0 = {0: q + (1 - 2 * q) * g0}
                sym0[1] = 1 - sym0[0]
                sym1 = {0: q + (1 - 2 * q) * g1}
                sym1[1] = 1 - sym1[0]
            else:
                l0 = Fraction(channel.level).limit_denominator(10**6)
                l1 = l0 if channel.level_one is None else Fraction(
                    channel.level_one
                ).limit_denominator(10**6)
                sym0 = {0: (1 - l0) * g0, 1: (1 - l1) * (1 - g0), 2: l0 * g0 + l1 * (1 - g0)}
                sym1 = {0: (1 - l0) * g1, 1: (1 - l1) * (1 - g1), 2: l0 * g1 + l1 * (1 - g1)}
            for v, s0 in sym0.items():
                nw = (w + (v,))[-capacity:]
                acc = nxt[nw]
                acc[0] += m0 * s0
                acc[1] += m1 * sym1[v]
        states = {w: (a, b) for w, (a, b) in nxt.items() if a or b}  # unreachable windows drop out
        rows.append((t1, t2, prior_0 * t1 + prior_1 * t2))
    return rows


def _loop_evolve(dist, stage, model, channel):
    """The window step written out longhand, in the fused step's arithmetic
    and digit coding (0, the erasure, then 1): the reference that the fused
    step must match bit for bit.  Each hypothesis row's mass is split by
    decision, the oldest symbol summed out, then the channel applied.  A
    one-row dist reads row 1 as the mirror of row 0.  Returns the next
    window, the two error probabilities and the (2, states) decision table."""
    a_size = dist.alphabet
    rows = dist.masses.shape[0]
    pi0, pi1 = model.prior_0, model.prior_1
    den = pi0 * dist.mass0 + pi1 * dist.mass1
    tau = pi0 * dist.mass0 / den
    upper = pi1 * dist.mass1 / den
    dec0_h0 = cdf(model, 0, tau)
    dec0_h1 = cdf(model, 1, tau)
    # P(decide 1 | h) = F_(1-h)(1 - tau), at the mirror state's cutoff for one row
    dec1 = [cdf(model, 1, upper), cdf(model, 0, upper)] if rows == 2 else [dec0_h1[::-1]]
    if isinstance(channel, FlipSchedule):
        (q,) = flip_probs(channel, [stage])
        law = [[1.0 - q, q], [q, 1.0 - q]]
    else:
        (lv0,), (lv1,) = erasure_levels(channel, [stage])
        law = [[1.0 - lv0, lv0, 0.0], [0.0, lv1, 1.0 - lv1]]
    new_len = min(dist.capacity, stage)
    new_rows, sums = [], []
    for h in range(rows):
        parts = [dist.masses[h] * [dec0_h0, dec0_h1][h], dist.masses[h] * dec1[h]]
        if new_len == dist.length:
            kept = a_size ** (dist.length - 1)
            parts = [p.reshape(a_size, kept).sum(axis=0) for p in parts]
        sums.append(parts[1 - h].sum())
        new = np.empty((parts[0].size, a_size))
        for v in range(a_size):
            new[:, v] = law[0][v] * parts[0] + law[1][v] * parts[1]
        new_rows.append(new.ravel())
    type1 = float(sums[0])
    type2 = float(sums[-1]) if rows == 2 else type1
    new_dist = WindowDistribution(a_size, dist.capacity, new_len, np.stack(new_rows))
    return new_dist, type1, type2, np.stack([dec0_h0, dec0_h1])


class TestFusedStepMatchesLoop:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "channel",
        [
            FlipSchedule("constant", q=0.2),
            ErasureSchedule("constant", level=0.2, level_one=0.6),
            ErasureSchedule("constant", level=0.3),
        ],
        ids=["flip", "erasure", "equal_erasure"],
    )
    def test_bit_identical(self, channel, capacity):
        """Any prior other than 1/2 carries two rows, whatever the law."""
        self._check(BeliefModel(0.0, prior_1=0.3), channel, capacity, rows=2)

    @pytest.mark.parametrize("capacity", [1, 3])
    @pytest.mark.parametrize(
        "channel",
        [FlipSchedule("constant", q=0.2), ErasureSchedule("constant", level=0.3)],
        ids=["flip", "equal_erasure"],
    )
    def test_one_row_bit_identical(self, channel, capacity):
        """A flip or an equal-level erasure at prior 1/2 carries one row."""
        self._check(BeliefModel(0.0), channel, capacity, rows=1)

    @staticmethod
    def _check(model, channel, capacity, rows):
        stages = 30
        series = exact_error_series(model, channel, MemorySchedule("bounded", capacity=capacity), stages)
        dist = initial_window(window_alphabet(channel), capacity, rows)
        t1 = np.empty(stages)
        t2 = np.empty(stages)
        for k, errs in enumerate(window_stages(model, channel, capacity, stages), start=1):
            dist, t1[k - 1], t2[k - 1], table = _loop_evolve(dist, k, model, channel)
            assert np.array_equal(errs.decide0, table)
        assert np.array_equal(series.extra["p0_type1"], t1)
        assert np.array_equal(series.extra["p1_type2"], t2)
        assert np.array_equal(series.values, model.prior_0 * t1 + model.prior_1 * t2)


class TestBufferedStep:
    """Each window_stages iterator steps in its own workspace."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize(
        "channel,capacity",
        [
            (FlipSchedule("constant", q=0.2), 11),
            (ErasureSchedule("constant", level=0.2, level_one=0.6), 7),
            (ErasureSchedule("constant", level=0.3), 7),
        ],
        ids=["flip", "erasure", "equal_erasure"],
    )
    def test_full_window_steps_allocate_nothing_state_sized(self, channel, capacity, beta):
        """A float array over the 2048 or more states would take 8 bytes per
        state; the step's own small objects take a few KB."""
        states = window_alphabet(channel) ** capacity
        stages = window_stages(BeliefModel(beta, prior_1=0.3), channel, capacity, capacity + 21)
        for _ in range(capacity + 1):
            next(stages)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for _ in range(20):
                next(stages)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < 8 * states

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("prior_1,per_state", [(0.5, 7.5), (0.3, 11.5)], ids=["one_row", "two_rows"])
    def test_workspace_footprint(self, prior_1, per_state, beta):
        """A pass peaks at its workspace: 7 float64 values per state with one
        mass row (prior 1/2, equal levels) and 11 with two, plus a few KB."""
        states = 3**7
        model = BeliefModel(beta, prior_1=prior_1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in window_stages(model, ErasureSchedule("constant", level=0.3), 7, 12):
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= per_state * 8 * states

    def test_interleaved_iterators_are_independent(self):
        model = BeliefModel(1.0, prior_1=0.3)
        channel = ErasureSchedule("constant", level=0.2, level_one=0.6)
        solo = [(e.type1, e.type2, e.decide0.copy()) for e in window_stages(model, channel, 3, 12)]
        pairs = zip(window_stages(model, channel, 3, 12), window_stages(model, channel, 3, 12))
        for (a, b), (t1, t2, table) in zip(pairs, solo):
            assert (a.type1, a.type2) == (b.type1, b.type2) == (t1, t2)
            assert np.array_equal(a.decide0, table)
            assert np.array_equal(b.decide0, table)
            assert not np.shares_memory(a.decide0, b.decide0)


class TestFrozenValues:
    def test_first_two_stages_flip(self):
        series = exact_error_series(
            BeliefModel(0.0),
            FlipSchedule("constant", q=0.2),
            MemorySchedule("bounded", capacity=1),
            stages=8,
        )
        assert series.value_at(1) == pytest.approx(0.25, abs=1e-15)
        assert series.value_at(2) == pytest.approx(0.2275, abs=1e-15)
        assert series.value_at(8) == pytest.approx(0.222223, abs=5e-7)

    def test_first_two_stages_erasure(self):
        series = exact_error_series(
            BeliefModel(0.0),
            ErasureSchedule("constant", level=0.3),
            MemorySchedule("bounded", capacity=2),
            stages=4,
        )
        assert series.value_at(1) == pytest.approx(0.25, abs=1e-15)
        assert series.value_at(2) == pytest.approx(0.20625, abs=1e-15)

    def test_pure_noise_never_learns(self):
        series = exact_error_series(
            BeliefModel(0.0),
            FlipSchedule("constant", q=0.5),
            MemorySchedule("bounded", capacity=3),
            stages=20,
        )
        np.testing.assert_allclose(series.values, 0.25, atol=1e-14)

    def test_type_errors_symmetric(self):
        # mirrored signal densities and a symmetric channel: the two error
        # kinds must coincide at every stage
        series = exact_error_series(
            BeliefModel(0.0),
            FlipSchedule("constant", q=0.2),
            MemorySchedule("bounded", capacity=2),
            stages=30,
        )
        np.testing.assert_allclose(series.extra["p0_type1"], series.extra["p1_type2"], atol=1e-13)

    def test_error_never_increases(self):
        series = exact_error_series(
            BeliefModel(0.0),
            FlipSchedule("constant", q=0.2),
            MemorySchedule("bounded", capacity=1),
            stages=50,
        )
        assert np.all(np.diff(series.values) <= 1e-12)


class TestAgainstOracle:
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_flip(self, capacity):
        model = BeliefModel(0.0)
        channel = FlipSchedule("constant", q=0.2)
        series = exact_error_series(
            model, channel, MemorySchedule("bounded", capacity=capacity), stages=8
        )
        rows = _oracle_series(8, capacity, channel)
        for k, (t1, t2, pe) in enumerate(rows, start=1):
            assert series.extra_at("p0_type1", k) == pytest.approx(float(t1), abs=1e-13)
            assert series.extra_at("p1_type2", k) == pytest.approx(float(t2), abs=1e-13)
            assert series.value_at(k) == pytest.approx(float(pe), abs=1e-13)

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_erasure(self, capacity):
        model = BeliefModel(0.0)
        channel = ErasureSchedule("constant", level=0.3)
        series = exact_error_series(
            model, channel, MemorySchedule("bounded", capacity=capacity), stages=7
        )
        rows = _oracle_series(7, capacity, channel)
        for k, (t1, t2, pe) in enumerate(rows, start=1):
            assert series.extra_at("p0_type1", k) == pytest.approx(float(t1), abs=1e-13)
            assert series.extra_at("p1_type2", k) == pytest.approx(float(t2), abs=1e-13)

    def test_unreachable_states(self):
        """Level 0 never erases, so every window holding the erasure digit
        has zero mass under both hypotheses."""
        channel = ErasureSchedule("constant", level=0.0)
        series = exact_error_series(BeliefModel(0.0), channel, MemorySchedule("bounded", capacity=2), stages=6)
        for k, (t1, t2, _) in enumerate(_oracle_series(6, 2, channel), start=1):
            assert series.extra_at("p0_type1", k) == pytest.approx(float(t1), rel=1e-12, abs=0.0)
            assert series.extra_at("p1_type2", k) == pytest.approx(float(t2), rel=1e-12, abs=0.0)
        tables = [e.decide0.copy() for e in window_stages(BeliefModel(0.0), channel, 2, 4)]
        assert tables[-1][:, 4] == pytest.approx([0.75, 0.25])  # state 4 = two erasures: the neutral cutoff

    def test_asymmetric_erasure(self):
        channel = ErasureSchedule("constant", level=0.2, level_one=0.6)
        series = exact_error_series(
            BeliefModel(0.0), channel, MemorySchedule("bounded", capacity=2), stages=6
        )
        rows = _oracle_series(6, 2, channel)
        for k, (t1, t2, pe) in enumerate(rows, start=1):
            assert series.value_at(k) == pytest.approx(float(pe), abs=1e-13)

    def test_skewed_prior(self):
        model = BeliefModel(0.0, prior_1=0.25)
        channel = FlipSchedule("constant", q=0.2)
        series = exact_error_series(
            model, channel, MemorySchedule("bounded", capacity=2), stages=6
        )
        rows = _oracle_series(6, 2, channel, prior_1=Fraction(1, 4))
        for k, (t1, t2, pe) in enumerate(rows, start=1):
            assert series.value_at(k) == pytest.approx(float(pe), abs=1e-13)


    @pytest.mark.parametrize("capacity", [1, 2, 3])
    @pytest.mark.parametrize(
        "channel", [FlipSchedule("constant", q=0.2), ErasureSchedule("constant", level=0.3)], ids=["flip", "erasure"]
    )
    def test_skewed_prior_one_row(self, channel, capacity):
        """prior_1 = 0.3 over a flip or equal-level erasure channel: laws
        that carry one mass row at prior 1/2, and two here."""
        stages = 6
        model = BeliefModel(0.0, prior_1=0.3)
        series = exact_error_series(model, channel, MemorySchedule("bounded", capacity=capacity), stages)
        rows = _oracle_series(stages, capacity, channel, prior_1=Fraction(3, 10))
        for k, (t1, t2, pe) in enumerate(rows, start=1):
            assert series.extra_at("p0_type1", k) == pytest.approx(float(t1), rel=1e-12, abs=0.0)
            assert series.extra_at("p1_type2", k) == pytest.approx(float(t2), rel=1e-12, abs=0.0)
            assert series.value_at(k) == pytest.approx(float(pe), rel=1e-12, abs=0.0)

    def test_lopsided_masses_keep_type1_digits(self):
        """A two-row window with masses (1, 1e-7) has cutoff tau = 1 / (1 + 1e-7)
        and, at beta = 0, type-1 error (1 - tau)**2 = (1e-7 / (1 + 1e-7))**2.
        Formed as 1 - P(decide 0) it would keep about three of its digits; the
        cdf at the upper side 1e-7 / (1 + 1e-7) keeps them all."""
        dist = initial_window(3, 2, rows=2)
        dist.masses[1] = 1e-7
        _, errs = evolve_window(dist, 1, BeliefModel(0.0), ErasureSchedule("constant", level=0.2, level_one=0.6))
        assert errs.type1 == pytest.approx((1e-7 / (1.0 + 1e-7)) ** 2, rel=1e-12, abs=0.0)


class TestBayesRule:
    """The first node reads a public belief of prior_1 and no broadcast, so
    its cutoff is prior_0: at prior_1 = 0.8 and beta = 0 it errs
    0.2 * (1 - F0(0.2)) + 0.8 * F1(0.2) = 0.2 * 0.64 + 0.8 * 0.04 = 0.16,
    where the prior-free cutoff 1/2 errs 0.25."""

    @pytest.mark.parametrize(
        "channel",
        [FlipSchedule("constant", q=0.2), ErasureSchedule("constant", level=0.3),
         ErasureSchedule("constant", level=0.2, level_one=0.6)],
        ids=["flip", "erasure", "unequal_erasure"],
    )
    def test_node_one_at_prior_08(self, channel):
        model = BeliefModel(0.0, prior_1=0.8)
        series = exact_error_series(model, channel, MemorySchedule("bounded", capacity=2), 3)
        assert series.value_at(1) == pytest.approx(0.16, abs=1e-15)
        if isinstance(channel, ErasureSchedule):
            scan, table = scan_error_series(model, channel, MemorySchedule("full"), 3)
            assert scan.value_at(1) == pytest.approx(0.16, abs=1e-15)
            np.testing.assert_allclose(table[:, :2], [[0.36, 0.36], [0.04, 0.04]], rtol=1e-15, atol=0.0)

    @given(beta=st.integers(min_value=0, max_value=6), prior=st.floats(min_value=0.05, max_value=0.95))
    def test_node_one_is_the_bayes_test(self, beta, prior):
        """Node 1's exact error is pi0 (1 - F0(pi0)) + pi1 F1(pi0), and never
        above the error at cutoff 1/2."""
        model = BeliefModel(float(beta), prior_1=prior)
        pi0, pi1 = model.prior_0, model.prior_1
        got = exact_error_series(model, FlipSchedule("constant", q=0.2), MemorySchedule("bounded", capacity=1), 1)
        bayes = pi0 * (1.0 - cdf(model, 0, pi0)) + pi1 * cdf(model, 1, pi0)
        half = pi0 * (1.0 - cdf(model, 0, 0.5)) + pi1 * cdf(model, 1, 0.5)
        assert got.value_at(1) == pytest.approx(bayes, rel=1e-13, abs=1e-16)
        assert got.value_at(1) <= half + 1e-15


class TestOneRow:
    """At prior 1/2 a mirrored law (a flip or equal erasure levels) carries
    mass row 0 alone and reads row 1 as its mirror, stepping the same
    function."""

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "channel",
        [FlipSchedule("constant", q=0.2), ErasureSchedule("constant", level=0.3), ErasureSchedule("constant", level=0.0)],
        ids=["flip", "erasure", "no_erasure"],
    )
    def test_matches_two_rows(self, channel, capacity):
        """Without erasures, windows holding the erasure digit are
        unreachable and take the neutral cutoff on both paths."""
        model = BeliefModel(1.0)
        dist = initial_window(window_alphabet(channel), capacity)
        for k, one in enumerate(window_stages(model, channel, capacity, 200), start=1):
            dist, two = evolve_window(dist, k, model, channel)
            assert one.type1 == one.type2  # one row: type 2 is type 1
            assert one.type1 == pytest.approx(two.type1, rel=1e-13, abs=0.0)
            assert one.type2 == pytest.approx(two.type2, rel=1e-13, abs=0.0)
            np.testing.assert_allclose(one.decide0, two.decide0, rtol=1e-13, atol=0.0)
        assert dist.masses.shape == (2, window_alphabet(channel) ** capacity)

    @pytest.mark.parametrize("channel", [ErasureSchedule("constant", level=0.2, level_one=0.6)], ids=["unequal_levels"])
    def test_rejects_unmirrored_law(self, channel):
        dist = initial_window(window_alphabet(channel), 2, rows=1)
        with pytest.raises(ValueError, match="one mass row"):
            evolve_window(dist, 1, BeliefModel(0.0), channel)

    @pytest.mark.parametrize(
        "channel", [FlipSchedule("constant", q=0.2), ErasureSchedule("constant", level=0.3)], ids=["flip", "erasure"]
    )
    def test_rejects_skewed_prior(self, channel):
        """A mirrored law at prior 0.3: the cutoffs of mirror states no longer
        sum to one, so one row cannot stand for two."""
        model = BeliefModel(0.0, prior_1=0.3)
        dist = initial_window(window_alphabet(channel), 2, rows=1)
        with pytest.raises(ValueError, match="one mass row"):
            evolve_window(dist, 1, model, channel)

    def test_mass1_is_the_mirror_view(self):
        model = BeliefModel(0.0)
        channel = ErasureSchedule("constant", level=0.3)
        dist = initial_window(3, 2, rows=1)
        for stage in range(1, 4):
            dist, _ = evolve_window(dist, stage, model, channel)
        assert np.shares_memory(dist.mass1, dist.mass0)
        np.testing.assert_array_equal(dist.mass1, dist.mass0[::-1])


class TestWindowMechanics:
    def test_initial_window(self):
        dist = initial_window(2, 3)
        assert dist.length == 0
        assert dist.mass0.shape == (1,)
        with pytest.raises(ValueError):
            initial_window(2, 0)
        with pytest.raises(ValueError):
            initial_window(2, MAX_CAPACITY + 1)

    def test_alphabet(self):
        assert window_alphabet(FlipSchedule("constant", q=0.1)) == 2
        assert window_alphabet(ErasureSchedule("constant", level=0.1)) == 3

    def test_mass_conservation(self):
        model = BeliefModel(0.0)
        channel = ErasureSchedule("constant", level=0.3)
        dist = initial_window(3, 2)
        for stage in range(1, 10):
            dist, errs = evolve_window(dist, stage, model, channel)
            assert dist.mass0.sum() == pytest.approx(1.0, abs=1e-12)
            assert dist.mass1.sum() == pytest.approx(1.0, abs=1e-12)
            assert dist.length == min(2, stage)
            assert dist.mass0.size == 3**dist.length

    def test_cutoff_tables(self):
        model = BeliefModel(0.0)
        channel = FlipSchedule("constant", q=0.2)
        # a decision table is valid until the iterator advances: keep copies
        per_stage = [StageErrors(e.type1, e.type2, e.decide0.copy()) for e in window_stages(model, channel, 2, 5)]
        series = exact_error_series(model, channel, MemorySchedule("bounded", capacity=2), 5)
        assert len(per_stage) == 5
        assert [e.decide0.shape for e in per_stage] == [(2, 1), (2, 2), (2, 4), (2, 4), (2, 4)]
        # the first node sees nothing: cutoff 1/2, so P(decide 0) is 3/4 under 0 and 1/4 under 1
        np.testing.assert_allclose(per_stage[0].decide0[:, 0], [0.75, 0.25], atol=1e-15)
        for e in per_stage:
            assert np.all((e.decide0 >= 0.0) & (e.decide0 <= 1.0))
        np.testing.assert_array_equal([e.type1 for e in per_stage], series.extra["p0_type1"])
        np.testing.assert_array_equal([e.type2 for e in per_stage], series.extra["p1_type2"])

    def test_cutoff_upper_side(self):
        """upper keeps 1 - tau where tau rounds to 1, and a state with no
        mass gets the neutral pair (1/2, 1/2)."""
        upper = np.empty(2)
        tau = _cutoffs(np.array([1.0, 0.0]), np.array([1e-30, 0.0]), BeliefModel(0.0), upper=upper)
        np.testing.assert_array_equal(tau, [1.0, 0.5])
        np.testing.assert_allclose(upper, [1e-30, 0.5], rtol=1e-15, atol=0.0)

    def test_requires_bounded_memory(self):
        with pytest.raises(ValueError):
            exact_error_series(
                BeliefModel(0.0),
                FlipSchedule("constant", q=0.2),
                MemorySchedule("full"),
                stages=5,
            )


class TestMartingaleCheck:
    def test_deviation_is_floating_point_noise(self):
        report = martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=10)
        assert report.max_deviation < 1e-12
        assert report.stage_deviations.shape == (10,)
        assert report.tail_mass.shape == (10,)

    def test_deviation_no_noise(self):
        report = martingale_check(FlipSchedule("constant", q=0.0), BeliefModel(0.0), k_max=8)
        assert report.max_deviation < 1e-12

    def test_tail_mass_above_one_half(self):
        # by hand: after a broadcast 0 or 1 the likelihood ratio is 0.6 or
        # 5/3, both above 1/2, so depth 1 holds all the mass; at depth 2 only
        # the history (0, 0) falls below it, and under h = 0 it carries
        # P(0) = 0.625 times P(0 after a 0) = 0.6796875
        report = martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=10)
        assert report.tail_mass[0] == 1.0
        assert report.tail_mass[1] == pytest.approx(1.0 - 0.625 * 0.6796875, abs=1e-14)
        assert report.tail_mass[-1] < report.tail_mass[1]
        assert np.all((report.tail_mass >= 0.0) & (report.tail_mass <= 1.0))

    def test_rejects_erasure(self):
        with pytest.raises(ValueError):
            martingale_check(ErasureSchedule("constant", level=0.3), BeliefModel(0.0), k_max=5)

    def test_depth_limits(self):
        with pytest.raises(ValueError):
            martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=0)
        with pytest.raises(ValueError):
            martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=15)

    @pytest.mark.parametrize("beta,prior", [(0.0, 0.5), (1.0, 0.5), (0.0, 0.8)])
    def test_errors_match_the_window_engine(self, beta, prior):
        """A window of capacity 12 holds node 13's whole history, so through
        stage 13 the enumeration's errors are the window engine's."""
        model, channel = BeliefModel(beta, prior_1=prior), FlipSchedule("constant", q=0.2)
        errors = martingale_check(channel, model, k_max=13).errors
        window = exact_error_series(model, channel, MemorySchedule("bounded", capacity=MAX_CAPACITY), 13)
        np.testing.assert_array_equal(errors.stages, window.stages)
        for name in ("p0_type1", "p1_type2"):
            np.testing.assert_allclose(errors.extra[name], window.extra[name], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(errors.values, window.values, rtol=0.0, atol=1e-15)


def _scan_oracle(stages, channel, memory, prior_1):
    """Per-stage (type1, type2) and the table {(stage, value) or None:
    (P(decide 0 | h = 0), P(decide 0 | h = 1))} of the scan, in Fractions."""
    lv0 = Fraction(channel.level).limit_denominator(10**6)
    lv1 = lv0 if channel.level_one is None else Fraction(channel.level_one).limit_denominator(10**6)
    prior_0 = 1 - prior_1
    table = {None: (_g0(prior_0), _g1(prior_0))}  # no evidence: the cutoff is the prior's
    law = {None: (Fraction(1), Fraction(1))}  # last unerased (stage, value) -> masses under h = 0, 1
    rows = []
    for k in range(1, stages + 1):
        first = k - memory_size(memory, k)
        dec1 = [Fraction(0), Fraction(0)]
        nxt = defaultdict(lambda: [Fraction(0), Fraction(0)])
        for ev, masses in law.items():
            read = ev if ev is not None and ev[0] >= first else None
            for h in (0, 1):
                p0 = table[read][h]
                dec1[h] += masses[h] * (1 - p0)
                nxt[ev][h] += masses[h] * (lv0 * p0 + lv1 * (1 - p0))
                nxt[(k, 0)][h] += masses[h] * (1 - lv0) * p0
                nxt[(k, 1)][h] += masses[h] * (1 - lv1) * (1 - p0)
        for v in (0, 1):
            # the cutoff after one symbol of the sender's law: pi0 l0 / (pi0 l0 + pi1 l1)
            like = [dec1[h] if v else 1 - dec1[h] for h in (0, 1)]
            tau = prior_0 * like[0] / (prior_0 * like[0] + prior_1 * like[1])
            table[(k, v)] = (_g0(tau), _g1(tau))
        law = {ev: tuple(m) for ev, m in nxt.items()}
        rows.append((dec1[0], 1 - dec1[1]))
    return rows, table


_SCAN_CASES = [
    (ErasureSchedule("constant", level=0.9), MemorySchedule("full")),
    (ErasureSchedule("constant", level=0.5), MemorySchedule("power", sigma=0.5)),
    (ErasureSchedule("constant", level=0.3), MemorySchedule("sporadic")),
    (ErasureSchedule("constant", level=0.2, level_one=0.6), MemorySchedule("full")),
    (ErasureSchedule("constant", level=0.2, level_one=0.6), MemorySchedule("sporadic")),
]


class TestScanAgainstOracle:
    @pytest.mark.parametrize(
        "channel,memory", _SCAN_CASES, ids=["full", "power", "sporadic", "asym_full", "asym_sporadic"]
    )
    def test_errors_and_table(self, channel, memory):
        stages = 7  # exact masses under unequal levels double their digits each stage
        rows, table = _scan_oracle(stages, channel, memory, Fraction(3, 10))
        series, got = scan_error_series(BeliefModel(0.0, prior_1=0.3), channel, memory, stages)
        for k, (t1, t2) in enumerate(rows, start=1):
            assert series.extra["p0_type1"][k - 1] == pytest.approx(float(t1), rel=1e-12, abs=0.0)
            assert series.extra["p1_type2"][k - 1] == pytest.approx(float(t2), rel=1e-12, abs=0.0)
            assert series.values[k - 1] == pytest.approx(float(Fraction(7, 10) * t1 + Fraction(3, 10) * t2), rel=1e-12)
        for code in range(2 * stages + 2):
            key = None if code < 2 else (code // 2, code % 2)
            for h in (0, 1):
                assert got[h, code] == pytest.approx(float(table[key][h]), rel=1e-12, abs=0.0)
        assert not got.flags.writeable

    @pytest.mark.parametrize(
        "channel",
        [
            ErasureSchedule("constant", level=0.9),
            ErasureSchedule("constant", level=0.0),
            ErasureSchedule("theorem4", c=1.0, eps=2.0),
        ],
        ids=["level_0.9", "level_0", "theorem4"],
    )
    @pytest.mark.parametrize(
        "memory",
        [MemorySchedule("full"), MemorySchedule("power", sigma=0.5), MemorySchedule("power", sigma=0.3),
         MemorySchedule("sporadic"), MemorySchedule("bounded", capacity=3)],
        ids=["full", "sqrt", "sigma0.3", "sporadic", "bounded"],
    )
    def test_summed_law_matches_law_of_codes(self, channel, memory):
        """The O(1) sums of equal levels at prior 1/2 against the law of
        every code, over enough stages for windows to drop codes and for
        sporadic ones to reopen at 16 squares."""
        stages = 300
        model = BeliefModel(1.0)
        series, table = scan_error_series(model, channel, memory, stages)
        pair = cdf_pair(model)
        lv0, lv1 = erasure_levels(channel, np.arange(1, stages + 1))
        ref = np.empty((2, 2 * stages + 2))
        ref[:, :2] = np.asarray(pair(0.5))[:, None]
        t1, t2 = np.empty(stages), np.empty(stages)
        _scan_general(pair, (0.5, 0.5), lv0, lv1, memory, ref, t1, t2)
        np.testing.assert_allclose(series.extra["p0_type1"], t1, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(series.extra["p1_type2"], t2, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(table, ref, rtol=1e-12, atol=0.0)

    def test_rejects_flip_channel(self):
        with pytest.raises(ValueError, match="erasure"):
            scan_error_series(BeliefModel(0.0), FlipSchedule("constant", q=0.1), MemorySchedule("full"), 5)


class TestScanLongRun:
    def test_tail_keeps_relative_precision(self):
        """With no erasures node k sees node k - 1, and at beta = 0 the error
        obeys e_1 = 1/4, e_(k+1) = e_k (1 - e_k), here in 40 digits.  By
        stage 10**5 the error is 1e-5 and the column a node reads after a
        broadcast 1 holds e_k**2 = 1e-10.  Both keep 12 digits: forming the
        decide-1 sums as 1 - P(decide 0) instead would lose about 1e-16 / e
        per stage, about 3e-9 in all.  (No feasible stage count reaches
        pe < 1e-8: the scan's error falls like 1 / k at best.)  The O(1)
        sums and the law of codes are both held to it."""
        stages = 10**5
        series, table = scan_error_series(
            BeliefModel(0.0), ErasureSchedule("constant", level=0.0), MemorySchedule("full"), stages
        )
        ref = np.empty(stages)
        with localcontext() as ctx:
            ctx.prec = 40
            e = Decimal(1) / 4
            for i in range(stages):
                ref[i] = float(e)
                e *= 1 - e
        np.testing.assert_allclose(series.extra["p0_type1"], ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(series.extra["p1_type2"], ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(table[1, 3::2], ref**2, rtol=1e-12, atol=0.0)
        assert table[1, -1] < 1e-8
        # the law of codes, over the stages it can afford, must keep the same
        # digits; evaluating its cdfs at c rather than min(c, 1 - c) loses
        # about 1e-11 by stage 5000
        short = 5000
        pair = cdf_pair(BeliefModel(0.0))
        levels = np.zeros(short)
        ref_table = np.empty((2, 2 * short + 2))
        ref_table[:, :2] = np.asarray(pair(0.5))[:, None]
        t1, t2 = np.empty(short), np.empty(short)
        _scan_general(pair, (0.5, 0.5), levels, levels, MemorySchedule("full"), ref_table, t1, t2)
        np.testing.assert_allclose(t1, ref[:short], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(t2, ref[:short], rtol=1e-12, atol=0.0)

    def test_heavy_erasure_decays_like_one_over_k(self):
        """At level 0.9 and beta = 0, K * pe_K * (1 - level) tends to 1; at
        K = 10**5 it reads 0.99953 from an independent implementation of
        the same recursion."""
        stages = 10**5
        series, _ = scan_error_series(
            BeliefModel(0.0), ErasureSchedule("constant", level=0.9), MemorySchedule("full"), stages
        )
        assert stages * series.value_at(stages) * 0.1 == pytest.approx(0.99953, abs=1e-3)

    def test_erasure_levels_climbing_to_one_still_learn(self):
        """theorem4 levels (c = 1, eps = 2) climb to one, yet the error keeps
        falling decade after decade."""
        stages = 10**5
        series, _ = scan_error_series(
            BeliefModel(0.0), ErasureSchedule("theorem4", c=1.0, eps=2.0), MemorySchedule("full"), stages
        )
        pe = [series.value_at(10**i) for i in range(1, 6)]
        assert all(np.diff(pe) < 0)
