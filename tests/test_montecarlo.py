"""Monte Carlo engine tests.

The three things that matter here: configs that cannot be simulated
faithfully are rejected, estimates agree with the exact recursion within
binomial noise, and results are bit-identical however the work is split.
"""

from __future__ import annotations

import numpy as np
import pytest

import noisycast.montecarlo as mc
from noisycast.belief_model import BeliefModel
from noisycast.channels import ErasureSchedule, FlipSchedule
from noisycast.exact_dp import exact_error_series
from noisycast.montecarlo import (
    ExperimentConfig,
    config_hash,
    estimate_chain_success,
    estimate_error_series,
    herding_stats,
    run_trial,
)
from noisycast.topology import MemorySchedule, chain_success_probability

MODEL = BeliefModel(0.0)


def _flip_full(stages=60, trials=512, seed=3, **kw):
    return ExperimentConfig(
        model=MODEL,
        channel=FlipSchedule("constant", q=0.1),
        memory=MemorySchedule("full"),
        stages=stages,
        trials=trials,
        seed=seed,
        **kw,
    )


class TestConfigValidation:
    def test_flip_needs_shared_history(self):
        with pytest.raises(ValueError, match="full or bounded"):
            ExperimentConfig(
                model=MODEL,
                channel=FlipSchedule("constant", q=0.1),
                memory=MemorySchedule("power", sigma=0.5),
                stages=10,
                trials=10,
                seed=0,
            )

    def test_window_capacity_cap(self):
        with pytest.raises(ValueError, match="capped"):
            ExperimentConfig(
                model=MODEL,
                channel=FlipSchedule("constant", q=0.1),
                memory=MemorySchedule("bounded", capacity=13),
                stages=10,
                trials=10,
                seed=0,
            )

    def test_calibration_floor(self):
        with pytest.raises(ValueError, match="calibration"):
            ExperimentConfig(
                model=MODEL,
                channel=ErasureSchedule("constant", level=0.5),
                memory=MemorySchedule("full"),
                stages=10,
                trials=10,
                seed=0,
                calibration_trials=10,
            )

    def test_calibration_budget(self):
        with pytest.raises(ValueError, match="budget"):
            ExperimentConfig(
                model=MODEL,
                channel=ErasureSchedule("constant", level=0.5),
                memory=MemorySchedule("full"),
                stages=20_000,
                trials=10,
                seed=0,
                calibration_trials=2000,
            )

    def test_window_table_budget(self):
        erasure = ErasureSchedule("constant", level=0.3)
        with pytest.raises(ValueError, match="budget"):  # 3**12 states x 2000 stages: 8.5 GB of cutoffs
            ExperimentConfig(
                model=MODEL,
                channel=erasure,
                memory=MemorySchedule("bounded", capacity=12),
                stages=2000,
                trials=10,
                seed=0,
            )
        ExperimentConfig(  # 3**9 states x 500 stages: 79 MB
            model=MODEL,
            channel=erasure,
            memory=MemorySchedule("bounded", capacity=9),
            stages=500,
            trials=10,
            seed=0,
        )

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            _flip_full(grid=(5, 2))
        with pytest.raises(ValueError):
            _flip_full(grid=(0, 10))
        with pytest.raises(ValueError):
            _flip_full(grid=(1, 100))  # beyond stages=60

    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            _flip_full(stages=0)
        with pytest.raises(ValueError):
            _flip_full(trials=0)
        with pytest.raises(ValueError):
            _flip_full(seed=-1)
        with pytest.raises(ValueError):
            _flip_full(seed=2**64)

    def test_channel_type(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                model=MODEL,
                channel="bsc",
                memory=MemorySchedule("full"),
                stages=10,
                trials=10,
                seed=0,
            )

    def test_config_hash(self):
        a = config_hash(_flip_full())
        assert len(a) == 12 and a == config_hash(_flip_full())
        assert a != config_hash(_flip_full(seed=4))


class TestDeterminism:
    def test_thread_count_invisible(self, monkeypatch):
        one = estimate_error_series(_flip_full(), threads=1)
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 100)  # six blocks, so four threads share them
        four = estimate_error_series(_flip_full(), threads=4)
        np.testing.assert_array_equal(one.values, four.values)
        np.testing.assert_array_equal(one.extra["err0"], four.extra["err0"])
        np.testing.assert_array_equal(one.extra["err1"], four.extra["err1"])

    def test_block_size_invisible(self, monkeypatch):
        whole = estimate_error_series(_flip_full())
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 37)  # odd blocks: half of them start at an odd trial
        split = estimate_error_series(_flip_full())
        np.testing.assert_array_equal(whole.values, split.values)
        np.testing.assert_array_equal(whole.extra["err0"], split.extra["err0"])
        np.testing.assert_array_equal(whole.extra["err1"], split.extra["err1"])
        assert whole.meta["clamp_events"] == split.meta["clamp_events"]

    def test_rerun_identical(self):
        a = estimate_error_series(_flip_full())
        b = estimate_error_series(_flip_full())
        np.testing.assert_array_equal(a.values, b.values)

    def test_calibrated_scan_thread_invariant(self, monkeypatch):
        config = ExperimentConfig(
            model=MODEL,
            channel=ErasureSchedule("constant", level=0.9),
            memory=MemorySchedule("full"),
            stages=50,
            trials=400,
            seed=11,
            calibration_trials=100,
        )
        one = estimate_error_series(config, threads=1)
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 75)  # six blocks, so four threads share them
        four = estimate_error_series(config, threads=4)
        np.testing.assert_array_equal(one.values, four.values)
        assert np.all((one.values >= 0.0) & (one.values <= 1.0))

    def test_replay_matches_batch_counts(self):
        config = _flip_full(stages=20, trials=32, seed=9, grid=(5, 20))
        series = estimate_error_series(config)
        for hyp, col in ((0, "err0"), (1, "err1")):
            dec = np.stack(
                [run_trial(config, t, hyp).decisions for t in range(config.trials)]
            )
            wrong = dec == 1 if hyp == 0 else dec == 0
            assert wrong[:, 4].sum() == series.extra[col][0]
            assert wrong[:, 19].sum() == series.extra[col][1]

    @pytest.mark.parametrize(
        "channel,memory,calibration",
        [
            (FlipSchedule("constant", q=0.2), MemorySchedule("full"), 2000),
            (FlipSchedule("constant", q=0.2), MemorySchedule("bounded", capacity=2), 2000),
            (ErasureSchedule("constant", level=0.3), MemorySchedule("bounded", capacity=2), 2000),
            (ErasureSchedule("constant", level=0.5), MemorySchedule("power", sigma=0.5), 64),
        ],
    )
    def test_replay_is_stable(self, channel, memory, calibration):
        config = ExperimentConfig(
            model=MODEL,
            channel=channel,
            memory=memory,
            stages=25,
            trials=8,
            seed=21,
            calibration_trials=calibration,
        )
        a = run_trial(config, 3, 1)
        b = run_trial(config, 3, 1)
        np.testing.assert_array_equal(a.decisions, b.decisions)
        assert a.last_error_index == b.last_error_index
        assert 0 <= a.last_error_index <= config.stages

    def test_run_trial_validation(self):
        with pytest.raises(ValueError):
            run_trial(_flip_full(), 0, 2)
        with pytest.raises(ValueError):
            run_trial(_flip_full(), -1, 0)


class TestAgainstExact:
    def test_window_chain_within_binomial_noise(self):
        model = MODEL
        channel = FlipSchedule("constant", q=0.2)
        memory = MemorySchedule("bounded", capacity=1)
        stages, trials = 50, 4000
        exact = exact_error_series(model, channel, memory, stages)
        config = ExperimentConfig(
            model=model,
            channel=channel,
            memory=memory,
            stages=stages,
            trials=trials,
            seed=7,
            grid=tuple(range(1, stages + 1)),
        )
        est = estimate_error_series(config)
        p0 = exact.extra["p0_type1"]
        p1 = exact.extra["p1_type2"]
        sigma = np.sqrt(
            0.25 * p0 * (1 - p0) / trials + 0.25 * p1 * (1 - p1) / trials
        )
        gaps = np.abs(est.values - exact.values) / sigma
        assert (gaps <= 3.0).mean() >= 0.95
        assert gaps.max() <= 5.0

    @pytest.mark.parametrize("memory", [MemorySchedule("full"), MemorySchedule("bounded", capacity=2)])
    def test_beta_one_within_five_sigma(self, memory):
        """beta = 1 has a polynomial cdf, so this checks the decision
        u > F_h(cut) away from the beta = 0 closed form.  Up to stage C + 1 a
        window of capacity C sees the whole history, so full memory follows
        the exact C = 3 series there.  Each stage misses 5 sigma with probability 5.7e-7 under the
        normal approximation; over the four stages the false-failure rate is
        below 2.3e-6."""
        model = BeliefModel(1.0)
        channel = FlipSchedule("constant", q=0.2)
        stages, trials = 4, 20_000
        window = memory if memory.family == "bounded" else MemorySchedule("bounded", capacity=3)
        exact = exact_error_series(model, channel, window, stages)
        config = ExperimentConfig(
            model=model,
            channel=channel,
            memory=memory,
            stages=stages,
            trials=trials,
            seed=17,
            grid=tuple(range(1, stages + 1)),
        )
        est = estimate_error_series(config)
        p0 = exact.extra["p0_type1"]
        p1 = exact.extra["p1_type2"]
        sigma = np.sqrt(0.25 * p0 * (1 - p0) / trials + 0.25 * p1 * (1 - p1) / trials)
        assert np.all(np.abs(est.values - exact.values) <= 5.0 * sigma)

    def test_chain_success_within_noise(self):
        est = estimate_chain_success(0.5, 10, 20_000, seed=5)
        exact = chain_success_probability(0.5, 10)
        sigma = np.sqrt(exact * (1 - exact) / 20_000)
        assert abs(est.p_hat - exact) <= 3.0 * sigma
        assert est.ci_low <= est.p_hat <= est.ci_high
        assert est.successes == round(est.p_hat * est.trials)

    def test_chain_success_degenerate_levels(self):
        assert estimate_chain_success(0.0, 4, 100, seed=0).p_hat == 1.0
        assert estimate_chain_success(1.0, 4, 100, seed=0).p_hat == 0.0

    def test_chain_success_validation(self):
        with pytest.raises(ValueError):
            estimate_chain_success(1.5, 4, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_chain_success(0.5, 0, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_chain_success(0.5, 4, 0, seed=0)


class TestSeriesShape:
    def test_meta_and_ci(self):
        series = estimate_error_series(_flip_full())
        assert series.meta["producer"] == "simulate"
        assert series.meta["seed"] == 3
        assert series.meta["trials"] == 512
        assert len(series.meta["config_hash"]) == 12
        assert series.meta["clamp_events"] >= 0
        low, high = series.extra["ci_low"], series.extra["ci_high"]
        assert np.all(low <= series.values) and np.all(series.values <= high)
        assert np.all((low >= 0.0) & (high <= 1.0))

    def test_single_trial_has_degenerate_ci(self):
        series = estimate_error_series(_flip_full(trials=1, stages=5))
        for v, lo, hi in zip(series.values, series.extra["ci_low"], series.extra["ci_high"]):
            assert v in (0.0, 0.5, 1.0)
            assert lo == hi == v

    def test_custom_grid(self):
        series = estimate_error_series(_flip_full(grid=(1, 10, 60)))
        np.testing.assert_array_equal(series.stages, [1, 10, 60])


class TestHerding:
    def _config(self, stages=40):
        return _flip_full(stages=stages, trials=256, seed=2)

    def test_report_shape(self):
        rep = herding_stats(self._config(), k0_fraction=0.5)
        assert rep.k0_stage == 20
        assert rep.stages == 40 and rep.trials == 256 and rep.seed == 2
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert 0.0 <= row.late_error_fraction <= 1.0
            assert 0.0 <= row.q50 <= row.q90 <= row.q99 <= 40.0
        expect = 0.5 * (rep.rows[0].late_error_fraction + rep.rows[1].late_error_fraction)
        assert rep.combined_late_fraction == pytest.approx(expect)

    def test_threads_invisible(self):
        a = herding_stats(self._config(), threads=1)
        b = herding_stats(self._config(), threads=4)
        assert a == b

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            herding_stats(self._config(), k0_fraction=0.0)
        with pytest.raises(ValueError):
            herding_stats(self._config(), k0_fraction=1.0)

    def test_late_errors_vanish_on_clean_channel(self):
        config = ExperimentConfig(
            model=MODEL,
            channel=FlipSchedule("constant", q=0.0),
            memory=MemorySchedule("full"),
            stages=400,
            trials=200,
            seed=6,
        )
        rep = herding_stats(config, k0_fraction=0.5)
        assert rep.combined_late_fraction < 0.1
