"""Shrink-recursion tests.

Short runs are checked against longhand replays of the identical float
operations, so equality is exact, not approximate.  Asymptotic checks reuse
the frozen windows measured on million-step runs.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from noisycast import recursions
from noisycast.belief_model import BeliefModel
from noisycast.channels import FlipSchedule, flip_probs
from noisycast.recursions import (
    RecursionSpec,
    StepSizeError,
    iterate_recursion,
    lemma3_sandwich,
    lemma4_classify,
    rate_recursion,
    type1_lower_bound,
)
from noisycast.analysis import SeriesResult, default_grid
from noisycast.strategy import clamp_belief, conditional_decision_probs, public_belief_step


def _replay(initial, exponent, delta_fn, stages):
    """The recursion written out naively, one float op at a time, up to its
    first value that is not positive."""
    c = float(initial)
    out = [c]
    for k in range(1, stages):
        d = float(delta_fn(k))
        if exponent == 1:
            step = d * c * c
        elif exponent == 2:
            step = d * c * c * c
        else:
            step = d * c ** (exponent + 1)
        c -= step
        out.append(c)
        if not c > 0.0:
            break
    return np.asarray(out)


class TestIterate:
    def test_matches_naive_replay_n1(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=1.0)
        series = iterate_recursion(spec, 5, grid=np.arange(1, 6))
        np.testing.assert_array_equal(series.values, _replay(0.5, 1, lambda k: 1.0, 5))
        assert series.value_at(2) == 0.25
        assert series.value_at(3) == 0.1875

    def test_matches_naive_replay_n2(self):
        spec = RecursionSpec(initial=0.5, exponent=2, delta=0.5)
        series = iterate_recursion(spec, 6, grid=np.arange(1, 7))
        expect = _replay(0.5, 2, lambda k: 0.5, 6)
        np.testing.assert_allclose(series.values, expect, rtol=0, atol=0)
        assert series.value_at(2) == 0.4375

    def test_matches_naive_replay_n3(self):
        spec = RecursionSpec(initial=0.4, exponent=3, delta=lambda ks: 1.0 / ks)
        series = iterate_recursion(spec, 7, grid=np.arange(1, 8))
        np.testing.assert_allclose(series.values, _replay(0.4, 3, lambda k: 1.0 / k, 7), rtol=1e-15)

    def test_grid_subsetting(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=0.3)
        full = iterate_recursion(spec, 100, grid=np.arange(1, 101))
        sparse = iterate_recursion(spec, 100, grid=np.array([1, 7, 50, 100]))
        for k in (1, 7, 50, 100):
            assert sparse.value_at(k) == full.value_at(k)

    def test_default_grid_spans_run(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=0.1)
        series = iterate_recursion(spec, 5000)
        assert series.stages[0] == 1
        assert series.stages[-1] == 5000

    def test_monotone_decreasing(self):
        spec = RecursionSpec(initial=0.9, exponent=1, delta=0.5)
        series = iterate_recursion(spec, 200, grid=np.arange(1, 201))
        assert np.all(np.diff(series.values) < 0)
        assert np.all(series.values > 0)

    def test_grid_validation(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=0.1)
        with pytest.raises(ValueError):
            iterate_recursion(spec, 10, grid=np.array([3, 2]))
        with pytest.raises(ValueError):
            iterate_recursion(spec, 10, grid=np.array([0, 5]))
        with pytest.raises(ValueError):
            iterate_recursion(spec, 10, grid=np.array([1, 11]))
        with pytest.raises(ValueError):
            iterate_recursion(spec, 0)
        with pytest.raises(ValueError, match="non-empty"):
            iterate_recursion(spec, 10, grid=np.asarray([]))
        with pytest.raises(ValueError, match="1-d"):
            iterate_recursion(spec, 10, grid=np.array([[1, 2], [3, 4]]))
        with pytest.raises(ValueError, match="integer"):
            iterate_recursion(spec, 10, grid=[1.5, 3])
        # integer-valued floats are stages
        assert iterate_recursion(spec, 10, grid=[1.0, 3.0]).stages.tolist() == [1, 3]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RecursionSpec(initial=0.0, exponent=1, delta=0.1)
        with pytest.raises(ValueError):
            RecursionSpec(initial=1.0, exponent=1, delta=0.1)
        with pytest.raises(ValueError):
            RecursionSpec(initial=0.5, exponent=0, delta=0.1)
        with pytest.raises(ValueError):
            RecursionSpec(initial=0.5, exponent=1.5, delta=0.1)
        with pytest.raises(ValueError, match="must be a real number"):  # once a TypeError from "<"
            RecursionSpec(initial=None, exponent=1, delta=0.1)

    def test_delta_must_be_nonnegative_finite(self):
        bad = RecursionSpec(initial=0.5, exponent=1, delta=-0.1)
        with pytest.raises(ValueError):
            iterate_recursion(bad, 10)
        nan = RecursionSpec(initial=0.5, exponent=1, delta=lambda ks: np.full(ks.shape, np.nan))
        with pytest.raises(ValueError):
            iterate_recursion(nan, 10)

    def test_oversized_step_raises(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=2.5)
        with pytest.raises(StepSizeError) as exc:
            iterate_recursion(spec, 10)
        assert exc.value.stage == 1
        assert exc.value.next_value == pytest.approx(-0.125)


class TestSandwich:
    def test_single_point(self):
        # k_min = stages = 1 pins the normalised value at c_1 * delta**(1/n)
        spec = RecursionSpec(initial=0.5, exponent=1, delta=1.0)
        res = lemma3_sandwich(spec, k_min=1, stages=1)
        assert res.low == res.high == pytest.approx(0.5)

    def test_constant_delta_n1_band(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=1.0)
        res = lemma3_sandwich(spec, k_min=1000, stages=100_000)
        assert res.high / res.low < 1.01
        assert res.low > 0.9 and res.high < 1.1

    def test_constant_delta_n2_band(self):
        spec = RecursionSpec(initial=0.5, exponent=2, delta=0.5)
        res = lemma3_sandwich(spec, k_min=1000, stages=100_000)
        assert res.high / res.low < 1.01
        # the normalised iterate settles near (n delta_k k)**(-1/n) * (delta_k k)**(1/n)
        assert res.low > 0.5 and res.high < 1.0

    @pytest.mark.parametrize("exponent", [2, 3])
    def test_normaliser_is_python_pow(self, exponent):
        """numpy's vectorised power rounds (d * k) ** (1/n) differently from
        Python's pow on some inputs (about 5% at n = 3 with AVX-512), so
        single-point bands over many deltas must equal the Python value."""
        for d in np.random.default_rng(3).uniform(0.01, 0.2, 1000).tolist():
            res = lemma3_sandwich(RecursionSpec(initial=0.6, exponent=exponent, delta=d), 7, 7)
            c = _replay(0.6, exponent, lambda k: d, 7)[-1]
            assert res.low == res.high == c * (d * 7) ** (1.0 / exponent)

    def test_validation(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=1.0)
        with pytest.raises(ValueError):
            lemma3_sandwich(spec, k_min=0, stages=10)
        with pytest.raises(ValueError):
            lemma3_sandwich(spec, k_min=20, stages=10)


class TestClassify:
    def test_divergent_delta_reads_zero(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=lambda ks: 1.0 / ks)
        res = lemma4_classify(spec, stages=20_000)
        assert res.label == "converges_to_zero"

    def test_summable_delta_reads_positive(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=lambda ks: ks**-1.5)
        res = lemma4_classify(spec, stages=200_000)
        assert res.label == "positive_limit"
        assert res.estimate > 0.1
        assert len(res.checkpoints) == 4
        assert res.checkpoints[-1] == 200_000
        assert len(res.values) == 4 and len(res.relative_changes) == 3

    def test_late_burst_is_inconclusive(self):
        spec = RecursionSpec(
            initial=0.5, exponent=1, delta=lambda ks: (ks >= 60).astype(float)
        )
        res = lemma4_classify(spec, stages=80)
        assert res.label == "inconclusive"

    def test_validation(self):
        spec = RecursionSpec(initial=0.5, exponent=1, delta=0.1)
        with pytest.raises(ValueError):
            lemma4_classify(spec, stages=7)
        with pytest.raises(ValueError):
            lemma4_classify(spec, stages=100, tol=0.0)

    def test_plain_python_payload(self):
        res = lemma4_classify(RecursionSpec(initial=0.5, exponent=1, delta=0.01), stages=64)
        assert isinstance(res.estimate, float)
        assert all(isinstance(v, float) for v in res.values)
        assert all(isinstance(c, int) for c in res.checkpoints)

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_series_is_the_default_grid_iterate(self, exponent):
        """The classifying pass also records the series iterate_recursion
        gives on the default grid, bit for bit, and the checkpoint values
        iterate_recursion gives on the checkpoints."""
        spec = RecursionSpec(initial=0.6, exponent=exponent, delta=_wavy(0.4))
        res = lemma4_classify(spec, 5000)
        ref = iterate_recursion(spec, 5000, grid=default_grid(5000))
        np.testing.assert_array_equal(res.series.stages, ref.stages)
        assert res.series.values.tobytes() == ref.values.tobytes()
        assert res.series.meta == ref.meta
        assert res.values == tuple(iterate_recursion(spec, 5000, grid=res.checkpoints).values.tolist())


def _wavy(scale):
    """A delta that changes every stage, so a chunk seam in the wrong place shows."""
    return lambda ks: scale * (1.0 + np.sin(ks)) / np.sqrt(ks)


def _spike(scale):
    """_wavy with a step at stage 100 that no iterate survives."""
    return lambda ks: np.where(ks == 100, 1e9, _wavy(scale)(ks))


def _deltas(delta, stages):
    """A spec's delta, a float or a callable, at stages 1..stages."""
    ks = np.arange(1, stages + 1)
    return np.broadcast_to(delta(ks) if callable(delta) else delta, ks.shape).tolist()


def _first_failure(initial, exponent, delta, stages):
    """(stage, value) of the step that fails the naive replay."""
    ds = _deltas(delta, stages)
    c = _replay(initial, exponent, lambda k: ds[k - 1], stages)
    assert not c[-1] > 0.0, "the replay must fail"
    return len(c) - 1, float(c[-1])


class TestChunking:
    """Results must not depend on the chunk size: runs with _CHUNK patched to
    7 and 37 equal the one-chunk run bit for bit."""

    STAGES = 300
    # stage 1, both sides of every 7- and 37-stage seam, and the last stage
    GRID = np.unique(np.concatenate([[1], *(np.arange(c, 300, c) + j for c in (7, 37) for j in (0, 1, 2)), [300]]))

    def _chunk_sizes(self, monkeypatch, run):
        reference = run()
        for chunk in (7, 37):
            monkeypatch.setattr(recursions, "_CHUNK", chunk)
            assert run() == reference, chunk
        return reference

    def _iterate_case(self, monkeypatch, exponent, delta):
        spec = RecursionSpec(initial=0.6, exponent=exponent, delta=delta)

        def run():
            return [
                (s.stages.tolist(), s.values.tolist())
                for s in (
                    iterate_recursion(spec, self.STAGES, grid=self.GRID),
                    iterate_recursion(spec, self.STAGES),
                    iterate_recursion(spec, self.STAGES, grid=[self.STAGES]),
                )
            ]

        stages, values = self._chunk_sizes(monkeypatch, run)[0]
        assert stages == self.GRID.tolist()
        ds = _deltas(delta, self.STAGES)
        np.testing.assert_array_equal(values, _replay(0.6, exponent, lambda k: ds[k - 1], self.STAGES)[self.GRID - 1])

    def _sandwich_case(self, monkeypatch, exponent, k_min, delta):
        spec = RecursionSpec(initial=0.6, exponent=exponent, delta=delta)
        res = self._chunk_sizes(monkeypatch, lambda: lemma3_sandwich(spec, k_min, self.STAGES))
        ds = _deltas(delta, self.STAGES)
        c = _replay(0.6, exponent, lambda k: ds[k - 1], self.STAGES)
        r = [c[k - 1] * (ds[k - 1] * k) ** (1.0 / exponent) for k in range(k_min, self.STAGES + 1)]
        assert (res.low, res.high) == (min(r), max(r))

    def _classify_case(self, monkeypatch, exponent, delta):
        spec = RecursionSpec(initial=0.6, exponent=exponent, delta=delta)
        self._chunk_sizes(monkeypatch, lambda: lemma4_classify(spec, self.STAGES))

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_iterate(self, monkeypatch, exponent):
        self._iterate_case(monkeypatch, exponent, _wavy(0.4))

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    @pytest.mark.parametrize("k_min", [1, 7, 8, 37, 38, 40, 300])
    def test_sandwich(self, monkeypatch, exponent, k_min):
        self._sandwich_case(monkeypatch, exponent, k_min, _wavy(0.4))

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_classify(self, monkeypatch, exponent):
        self._classify_case(monkeypatch, exponent, _wavy(0.4))

    # a float delta reaches the loops as a zero-stride broadcast view
    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_iterate_constant_delta(self, monkeypatch, exponent):
        self._iterate_case(monkeypatch, exponent, 0.4)

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    @pytest.mark.parametrize("k_min", [1, 7, 8, 37, 38, 40, 300])
    def test_sandwich_constant_delta(self, monkeypatch, exponent, k_min):
        self._sandwich_case(monkeypatch, exponent, k_min, 0.4)

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_classify_constant_delta(self, monkeypatch, exponent):
        self._classify_case(monkeypatch, exponent, 0.4)

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_sandwich_series(self, monkeypatch, exponent):
        """The grid values the sandwich takes from its own pass are the
        series iterate_recursion returns, bit for bit."""
        spec = RecursionSpec(initial=0.6, exponent=exponent, delta=_wavy(0.4))

        def run():
            res = lemma3_sandwich(spec, 7, self.STAGES, grid=self.GRID)
            return res.series.stages.tolist(), res.series.values.tolist(), res.series.meta, (res.low, res.high)

        stages, values, meta, band = self._chunk_sizes(monkeypatch, run)
        expected = iterate_recursion(spec, self.STAGES, grid=self.GRID)
        assert (stages, values, meta) == (expected.stages.tolist(), expected.values.tolist(), expected.meta)
        plain = lemma3_sandwich(spec, 7, self.STAGES)
        assert plain.series is None and (plain.low, plain.high) == band
        with pytest.raises(ValueError, match="grid"):
            lemma3_sandwich(spec, 7, self.STAGES, grid=[0, 5])

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_spike_mid_segment(self, monkeypatch, exponent):
        spec = RecursionSpec(initial=0.6, exponent=exponent, delta=_spike(0.4))

        def run():
            errors = []
            for call in (
                lambda: iterate_recursion(spec, self.STAGES, grid=[1, 50, 250, self.STAGES]),
                lambda: lemma3_sandwich(spec, 20, self.STAGES),
            ):
                with pytest.raises(StepSizeError) as exc:
                    call()
                errors.append((exc.value.stage, exc.value.next_value))
            return errors

        errors = self._chunk_sizes(monkeypatch, run)
        c = _replay(0.6, exponent, _wavy(0.4), 100)[-1]
        step = 1e9 * c * c if exponent == 1 else (1e9 * c * c * c if exponent == 2 else 1e9 * c**4)
        assert errors == [(100, c - step)] * 2

    @staticmethod
    def _failing_delta(exponent, stage, mode):
        """_wavy(0.4) with a step at stage that no iterate survives, followed by
        'spike': the wavy deltas; 'nan': one wavy delta that sends the iterate
        to -inf or +inf and then zeros, 0 * inf making it NaN; 'overflow': the
        wavy deltas after a 1e300 step, so an n = 3 iterate overflows pow;
        'rebound': a delta that carries an n = 2 iterate from -c/2 back to c,
        then zeros."""
        base = _wavy(0.4)
        if mode == "rebound":
            c = _replay(0.6, exponent, base, stage)[-1]
            # stage: c -> c - 1.5 c = -c/2; stage + 1: -c/2 * (1 - 3) = c when c**n keeps its sign
            spike, after = {stage: 1.5 / c**exponent, stage + 1: 3.0 / (0.5 * c) ** exponent}, 0.0
        else:
            spike = {stage: 1e9 if mode == "spike" else 1e300}
            after = 0.0 if mode == "nan" else None

        def delta(ks):
            out = base(ks)
            if after is not None:
                out = np.where(ks > stage + 1, after, out)
            for k, v in spike.items():
                out = np.where(ks == k, v, out)
            return out

        return delta

    # stage 50 opens the iterate's grid segment 50..250; 150 is a checkpoint of
    # lemma4_classify at 300 stages and inside every trail; 259 = 7 * 37 ends a
    # chunk when _CHUNK is 7 or 37
    @pytest.mark.parametrize("exponent", [1, 2, 3])
    @pytest.mark.parametrize("stage", [50, 150, 259])
    @pytest.mark.parametrize("mode", ["spike", "nan", "overflow", "rebound"])
    def test_failure_matches_replay(self, monkeypatch, exponent, stage, mode):
        """A failed run raises StepSizeError with the naive replay's stage and
        value wherever the failing step falls, whatever the later deltas do."""
        spec = RecursionSpec(initial=0.6, exponent=exponent, delta=self._failing_delta(exponent, stage, mode))

        def run():
            errors = []
            for call in (
                lambda: iterate_recursion(spec, self.STAGES, grid=[1, 50, 250, self.STAGES]),
                lambda: iterate_recursion(spec, self.STAGES),
                lambda: lemma4_classify(spec, self.STAGES),
                lambda: lemma3_sandwich(spec, 20, self.STAGES),
                lambda: lemma3_sandwich(spec, 20, self.STAGES, grid=self.GRID),
            ):
                with pytest.raises(StepSizeError) as exc:
                    call()
                errors.append((exc.value.stage, exc.value.next_value))
            return errors

        errors = self._chunk_sizes(monkeypatch, run)
        assert errors == [_first_failure(0.6, exponent, spec.delta, self.STAGES)] * 5
        assert errors[0][0] == stage

    def test_memory_does_not_grow_with_stages(self, monkeypatch):
        """Only the chunk and the grid are held, so a 16x longer run peaks no
        higher.  A small chunk keeps the traced runs short."""
        monkeypatch.setattr(recursions, "_CHUNK", 1024)
        spec = RecursionSpec(initial=0.5, exponent=1, delta=lambda ks: 1.0 / ks)

        def peak(stages):
            tracemalloc.start()
            try:
                iterate_recursion(spec, stages)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(64 * recursions._CHUNK) <= 1.25 * peak(4 * recursions._CHUNK)


class TestWorkingSet:
    """At the default _CHUNK a chunk-sized float64 temporary takes 128 KiB,
    and a handful of them (deltas, trail, factor, the pow list's floats) set
    each run's traced peak."""

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_plateau_spec_at_a_million_stages(self):
        """thm7_plateau's spec; every chunk takes the delta callable's arrays."""
        spec = rate_recursion(BeliefModel(0.0), FlipSchedule("log_power", p=2.0), initial=0.3)
        assert self._peak(lambda: iterate_recursion(spec, 10**6)) <= 1 << 20
        assert self._peak(lambda: lemma4_classify(spec, 10**6)) <= 1 << 20

    def test_sandwich_pow_list(self):
        """n = 2 adds the pow list over every stage of a chunk past k_min."""
        spec = RecursionSpec(initial=0.5, exponent=2, delta=0.1)
        assert self._peak(lambda: lemma3_sandwich(spec, 10, 10**5)) <= 1.5 * (1 << 20)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestBitsPinned:
    """sha256 of float64 results, recorded from the earlier list-based loops:
    a rewrite of the stepping loops that moves one bit fails here."""

    def test_plateau_iterate(self):
        spec = rate_recursion(BeliefModel(0.0), FlipSchedule("log_power", p=2.0), initial=0.3)
        series = iterate_recursion(spec, 200_000)
        assert _sha256(series.values) == "ed5f638002398e05c93e963aca7dede88d6e2f63c3dcfcb49d93ee8f835b36eb"

    def test_plateau_iterate_dense_grid(self):
        """20,000 grid targets, recorded one by one in the iterate's loop and
        taken in one gather from each chunk of the sandwich's pass."""
        spec = rate_recursion(BeliefModel(0.0), FlipSchedule("log_power", p=2.0), initial=0.3)
        grid = np.arange(7, 200_001, 10)
        pin = "ca80b8eb00085ea17a72345f0af54f4b9b6d3fe7106649896e746487a351f879"
        assert _sha256(iterate_recursion(spec, 200_000, grid=grid).values) == pin
        assert _sha256(lemma3_sandwich(spec, 1000, 200_000, grid=grid).series.values) == pin

    def test_sandwich_n1(self):
        res = lemma3_sandwich(RecursionSpec(0.5, 1, 1.0), 1000, 200_000)
        assert _sha256([res.low, res.high]) == "fd44b16f99355d661ee5352c4cbd4e69cde1e54b24343ac92c1b74a30c9561ca"

    def test_sandwich_n2_series(self):
        spec = RecursionSpec(0.6, 2, lambda ks: 0.5 / np.log(ks + 1.0))
        res = lemma3_sandwich(spec, 1000, 100_000, grid=np.arange(1, 100_001, 997))
        assert (
            _sha256([res.low, res.high], res.series.values)
            == "7d24eb87e305688910c20dd8e3496529d0e37d261e8e2d93300ba7e4d6f39c11"
        )

    def test_sandwich_n3(self):
        res = lemma3_sandwich(RecursionSpec(0.6, 3, lambda ks: 0.5 / np.log(ks + 1.0)), 100, 50_000)
        assert _sha256([res.low, res.high]) == "33a6c4f7d18f9f16566a463e2b6473b6d07322e485b1a05f114d2902edeab160"


class TestRateBridge:
    def test_type1_bound_flat_tail(self):
        # beta = 0: gamma = 2, so the bound is half the squared belief and
        # lands one node later
        series = SeriesResult(np.array([1, 2, 3]), np.array([0.5, 0.3, 0.2]))
        bound = type1_lower_bound(series, BeliefModel(0.0))
        np.testing.assert_array_equal(bound.stages, [2, 3, 4])
        np.testing.assert_allclose(bound.values, [0.125, 0.045, 0.02])

    def test_type1_bound_steeper_tail(self):
        series = SeriesResult(np.array([5, 6]), np.array([0.1, 0.05]))
        bound = type1_lower_bound(series, BeliefModel(1.0))
        np.testing.assert_array_equal(bound.stages, [5, 6])
        # gamma / (beta + 1) = 6, power beta + 2 = 3
        np.testing.assert_allclose(bound.values, [6e-3, 7.5e-4])

    def test_informativeness_delta_constant(self):
        delta = rate_recursion(BeliefModel(0.0), FlipSchedule("constant", q=0.1), 0.5).delta
        np.testing.assert_allclose(delta(np.array([1, 5, 9])), 16.0 / 9.0)

    def test_informativeness_delta_power(self):
        delta = rate_recursion(BeliefModel(0.0), FlipSchedule("power", p=0.4), 0.5).delta
        assert delta(np.array([4]))[0] == pytest.approx(2.0 * 4.0 ** (-0.6))

    def test_denominator_variants(self):
        model = BeliefModel(1.0)
        sched = FlipSchedule("constant", q=0.0)
        tight = rate_recursion(model, sched, 0.5, "beta_plus_one").delta
        loose = rate_recursion(model, sched, 0.5, "beta").delta
        assert tight(np.array([1]))[0] == pytest.approx(6.0)
        assert loose(np.array([1]))[0] == pytest.approx(12.0)
        with pytest.raises(ValueError):
            rate_recursion(model, sched, 0.5, "half")

    def test_rate_recursion_spec(self):
        spec = rate_recursion(BeliefModel(0.0), FlipSchedule("constant", q=0.1), initial=0.5)
        assert spec.exponent == 1
        assert spec.delta(np.array([3]))[0] == pytest.approx(16.0 / 9.0)
        spec2 = rate_recursion(BeliefModel(1.0), FlipSchedule("constant", q=0.1), initial=0.5)
        assert spec2.exponent == 2

    def test_rate_recursion_needs_integer_beta(self):
        with pytest.raises(ValueError):
            rate_recursion(BeliefModel(0.5), FlipSchedule("constant", q=0.1), initial=0.5)

    def test_recursion_tracks_the_all_correct_path(self):
        """At beta = 0 and constant q = 0.1 the recursion from 1/2 follows the
        public belief on the path where every broadcast reads 0: their ratio
        goes to 1 (0.98635 at k = 10^3, 0.99836 at 10^4)."""
        model, sched = BeliefModel(0.0), FlipSchedule("constant", q=0.1)
        c = iterate_recursion(rate_recursion(model, sched, initial=0.5), 10**4, grid=[10**3, 10**4]).values
        b, path = 0.5, [0.5]  # path[k - 1] is the public belief entering stage k
        for q in flip_probs(sched, np.arange(1, 10**4)).tolist():
            b = float(clamp_belief(public_belief_step(b, q, 0, conditional_decision_probs(b, model))))
            path.append(b)
        ratio = c / np.array([path[10**3 - 1], path[10**4 - 1]])
        assert 0.98 < ratio[0] < 1.0
        assert 0.998 < ratio[1] < 1.0
        assert 1.0 - ratio[1] <= (1.0 - ratio[0]) / 5.0

    def test_constant_channel_decay_rate(self):
        # frozen from a million-step run: log-log slope -1 for n = 1
        spec = rate_recursion(BeliefModel(0.0), FlipSchedule("constant", q=0.1), initial=0.5)
        series = iterate_recursion(spec, 100_000)
        keep = series.stages >= 1000
        slope = np.polyfit(np.log(series.stages[keep]), np.log(series.values[keep]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.02)
