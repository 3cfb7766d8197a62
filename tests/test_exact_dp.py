"""Window recursion tests against an exact rational-arithmetic oracle.

The oracle below re-derives the per-stage error probabilities from scratch:
windows are plain tuples of symbols, masses are Fractions, and the cutoff,
decision, and broadcast laws are written out longhand.  Everything it shares
with the production code is the model definition, so agreement to float
precision checks the packed-state bookkeeping end to end.

_loop_evolve keeps the window step written symbol by symbol; the fused
step must match it bit for bit, decision tables included.

Two stage-2 values are frozen from hand calculation: 0.2275 for a unity
window behind a 0.2 flip channel, and 0.20625 for a two-slot window behind
a 0.3 erasure channel.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from noisycast.belief_model import BeliefModel, cdf
from noisycast.channels import ErasureSchedule, FlipSchedule, _erasure_levels_at, flip_prob
from noisycast.exact_dp import (
    MAX_CAPACITY,
    StageErrors,
    WindowDistribution,
    _cutoffs,
    exact_error_series,
    evolve_window,
    initial_window,
    martingale_check,
    window_alphabet,
    window_stages,
)
from noisycast.strategy import MAP_RULE, ThresholdRule, likelihood_threshold
from noisycast.topology import MemorySchedule


def _g0(r: Fraction) -> Fraction:
    return 2 * r - r * r


def _g1(r: Fraction) -> Fraction:
    return r * r


def _oracle_series(stages, capacity, channel, prior_1=Fraction(1, 2)):
    """Per-stage (type1, type2) as exact Fractions, windows kept as tuples."""
    prior_0 = 1 - prior_1
    states = {(): (Fraction(1), Fraction(1))}
    rows = []
    for k in range(1, stages + 1):
        t1 = Fraction(0)
        t2 = Fraction(0)
        nxt = defaultdict(lambda: [Fraction(0), Fraction(0)])
        for w, (m0, m1) in states.items():
            # MAP cutoff: the prior enters the private belief and the
            # threshold symmetrically and drops out
            tau = m0 / (m0 + m1)
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
        states = {w: (a, b) for w, (a, b) in nxt.items()}
        rows.append((t1, t2, prior_0 * t1 + prior_1 * t2))
    return rows


def _loop_evolve(dist, stage, model, channel, rule):
    """The window step written symbol by symbol: the reference that the
    fused step must match bit for bit.  Returns the next window, the two
    error probabilities and the (2, states) decision table."""
    a_size = dist.alphabet
    tau = _cutoffs(dist.mass0, dist.mass1, likelihood_threshold(rule, model), model.prior_1)
    dec0_h0 = cdf(model, 0, tau)
    dec0_h1 = cdf(model, 1, tau)
    type1 = float(dist.mass0 @ (1.0 - dec0_h0))
    type2 = float(dist.mass1 @ dec0_h1)
    if isinstance(channel, FlipSchedule):
        q = flip_prob(channel, stage)
        w = 1.0 - 2.0 * q
        sym_h0 = [q + w * dec0_h0, 1.0 - q - w * dec0_h0]
        sym_h1 = [q + w * dec0_h1, 1.0 - q - w * dec0_h1]
    else:
        lv0, lv1 = _erasure_levels_at(channel, stage)
        sym_h0 = [(1.0 - lv0) * dec0_h0, (1.0 - lv1) * (1.0 - dec0_h0), lv0 * dec0_h0 + lv1 * (1.0 - dec0_h0)]
        sym_h1 = [(1.0 - lv0) * dec0_h1, (1.0 - lv1) * (1.0 - dec0_h1), lv0 * dec0_h1 + lv1 * (1.0 - dec0_h1)]
    new_len = min(dist.capacity, stage)
    if new_len == dist.length + 1:
        new0 = np.empty((dist.mass0.size, a_size))
        new1 = np.empty((dist.mass1.size, a_size))
        for v in range(a_size):
            new0[:, v] = dist.mass0 * sym_h0[v]
            new1[:, v] = dist.mass1 * sym_h1[v]
    else:
        kept = a_size ** (dist.length - 1)
        new0 = np.empty((kept, a_size))
        new1 = np.empty((kept, a_size))
        for v in range(a_size):
            new0[:, v] = (dist.mass0 * sym_h0[v]).reshape(a_size, kept).sum(axis=0)
            new1[:, v] = (dist.mass1 * sym_h1[v]).reshape(a_size, kept).sum(axis=0)
    new_dist = WindowDistribution(a_size, dist.capacity, new_len, np.stack([new0.ravel(), new1.ravel()]))
    return new_dist, type1, type2, np.stack([dec0_h0, dec0_h1])


class TestFusedStepMatchesLoop:
    @pytest.mark.parametrize("rule", [MAP_RULE, ThresholdRule("fixed", threshold=1.7)], ids=["map", "fixed"])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "channel",
        [FlipSchedule("constant", q=0.2), ErasureSchedule("constant", level=0.2, level_one=0.6)],
        ids=["flip", "erasure"],
    )
    def test_bit_identical(self, channel, capacity, rule):
        model = BeliefModel(0.0, prior_1=0.3)
        stages = 30
        series = exact_error_series(model, channel, MemorySchedule("bounded", capacity=capacity), stages, rule)
        dist = initial_window(window_alphabet(channel), capacity)
        t1 = np.empty(stages)
        t2 = np.empty(stages)
        for k, errs in enumerate(window_stages(model, channel, capacity, stages, rule), start=1):
            dist, t1[k - 1], t2[k - 1], table = _loop_evolve(dist, k, model, channel, rule)
            assert np.array_equal(errs.decide0, table)
        assert np.array_equal(series.extra["p0_type1"], t1)
        assert np.array_equal(series.extra["p1_type2"], t2)
        assert np.array_equal(series.values, model.prior_0 * t1 + model.prior_1 * t2)


class TestBufferedStep:
    """Each window_stages iterator steps in its own workspace."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize(
        "channel,capacity",
        [(FlipSchedule("constant", q=0.2), 11), (ErasureSchedule("constant", level=0.2, level_one=0.6), 7)],
        ids=["flip", "erasure"],
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


class TestWindowMechanics:
    def test_initial_window(self):
        dist = initial_window(2, 3)
        assert dist.length == 0
        assert dist.mass0.shape == (1,)
        with pytest.raises(ValueError):
            initial_window(4, 3)
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

    def test_requires_bounded_memory(self):
        with pytest.raises(ValueError):
            exact_error_series(
                BeliefModel(0.0),
                FlipSchedule("constant", q=0.2),
                MemorySchedule("full"),
                stages=5,
            )

    def test_fixed_rule_at_unity_matches_map(self):
        model = BeliefModel(0.0)
        channel = FlipSchedule("constant", q=0.2)
        memory = MemorySchedule("bounded", capacity=2)
        a = exact_error_series(model, channel, memory, stages=10)
        b = exact_error_series(model, channel, memory, stages=10, rule=ThresholdRule("fixed", threshold=1.0))
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=0)


class TestMartingaleCheck:
    def test_deviation_is_floating_point_noise(self):
        report = martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=10)
        assert report.max_deviation < 1e-12
        assert report.stage_deviations.shape == (10,)
        assert report.tail_mass.shape == (10,)

    def test_deviation_no_noise(self):
        report = martingale_check(FlipSchedule("constant", q=0.0), BeliefModel(0.0), k_max=8)
        assert report.max_deviation < 1e-12

    def test_tail_mass_above_unity(self):
        # depth 1 by hand: the likelihood ratio after seeing a broadcast one
        # is 5/3 and carries hypothesis-0 mass q + (1-2q)/4 = 3/8
        report = martingale_check(
            FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=10, tail_threshold=1.0
        )
        assert report.tail_mass[0] == pytest.approx(0.375, abs=1e-14)
        assert report.tail_mass[-1] < report.tail_mass[0]
        assert np.all((report.tail_mass >= 0.0) & (report.tail_mass <= 1.0))
        assert report.tail_threshold == 1.0

    def test_rejects_erasure(self):
        with pytest.raises(ValueError):
            martingale_check(ErasureSchedule("constant", level=0.3), BeliefModel(0.0), k_max=5)

    def test_depth_limits(self):
        with pytest.raises(ValueError):
            martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=0)
        with pytest.raises(ValueError):
            martingale_check(FlipSchedule("constant", q=0.25), BeliefModel(0.0), k_max=15)
