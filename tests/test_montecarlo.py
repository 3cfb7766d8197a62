"""Monte Carlo engine tests.

The three things that matter here: configs that cannot be simulated
faithfully are rejected, estimates agree with the exact recursion within
binomial noise, and results are bit-identical however the work is split.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import noisycast.montecarlo as mc
from noisycast.belief_model import BeliefModel, cdf
from noisycast.channels import ErasureSchedule, FlipSchedule, flip_probs
from noisycast.exact_dp import MAX_MARTINGALE_DEPTH
from noisycast.montecarlo import (
    ExperimentConfig,
    config_hash,
    estimate_error_series,
    herding_stats,
    run_trial,
)
from noisycast.presets import cross_check, reference
from noisycast.recursions import RecursionSpec, iterate_recursion
from noisycast.strategy import BELIEF_CEIL, BELIEF_FLOOR
from noisycast.topology import MemorySchedule

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

    def test_window_table_budget(self):
        # one decision table is live at a time, so the largest window is
        # accepted whatever the stage count (constructed only, not run)
        ExperimentConfig(
            model=MODEL,
            channel=ErasureSchedule("constant", level=0.3),
            memory=MemorySchedule("bounded", capacity=12),
            stages=2000,
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

    def test_grid_check_is_the_recursions(self):
        """A non-integral grid is refused, not truncated to stages 1, 3 and
        7, with the message the recursions give; an integer-valued float
        grid is kept as its int stages."""
        spec = RecursionSpec(initial=0.5, exponent=1, delta=0.1)
        with pytest.raises(ValueError) as recursion_error:
            iterate_recursion(spec, 60, grid=[1.5, 3.9, 7])
        with pytest.raises(ValueError) as config_error:
            _flip_full(grid=(1.5, 3.9, 7))
        assert str(config_error.value) == str(recursion_error.value)
        grid = _flip_full(grid=(1.0, 7.0)).grid
        assert grid == (1, 7) and all(type(k) is int for k in grid)

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

    def test_config_hash_reads_every_grid_stage(self):
        """numpy prints a 2000-stage array as its first and last three
        entries, so two grids that differ only in the middle once shared a
        hash.  The config keeps its grid as a tuple of ints: every stage is
        hashed, an array grid hashes like the same tuple, and hash() works."""
        skip_1001, skip_1002 = (np.delete(np.arange(1, 2002), i) for i in (1000, 1001))
        a, b = (_flip_full(stages=2001, grid=g) for g in (skip_1001, skip_1002))
        assert config_hash(a) != config_hash(b)
        as_tuple = _flip_full(stages=2001, grid=tuple(skip_1001.tolist()))
        assert a.grid == as_tuple.grid and type(a.grid[0]) is int
        assert config_hash(a) == config_hash(as_tuple)
        assert hash(a) == hash(as_tuple)

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                dict(model=BeliefModel(np.float64(0.0), np.float64(0.5)),
                     channel=FlipSchedule("constant", q=np.float32(0.25)),
                     memory=MemorySchedule("bounded", capacity=np.int64(2)),
                     stages=np.int64(40), trials=np.int32(64), seed=np.uint64(9)),
                dict(model=BeliefModel(0.0, 0.5), channel=FlipSchedule("constant", q=0.25),
                     memory=MemorySchedule("bounded", capacity=2), stages=40, trials=64, seed=9),
            ),
            (dict(model=BeliefModel(0)), dict(model=BeliefModel(0.0))),
            (dict(channel=ErasureSchedule("constant", level=0)), dict(channel=ErasureSchedule("constant", level=0.0))),
            (dict(memory=MemorySchedule("power", sigma=1)), dict(memory=MemorySchedule("power", sigma=1.0))),
            (dict(stages=100.0, trials=512.0, grid=(1.0, 100.0)), dict(stages=100, trials=512, grid=(1, 100))),
            (dict(calibration_trials=10), dict(calibration_trials=2000)),
        ],
    )
    def test_equal_configs_share_one_identity(self, first, second):
        """Configs that compare equal are one run: one config_hash and one
        hash(), whatever numeric types built them; calibration_trials is
        read by nothing, so it names nothing."""
        base = dict(model=MODEL, channel=ErasureSchedule("constant", level=0.5), memory=MemorySchedule("full"),
                    stages=60, trials=512, seed=3)
        a, b = ExperimentConfig(**{**base, **first}), ExperimentConfig(**{**base, **second})
        assert a == b and hash(a) == hash(b)
        assert config_hash(a) == config_hash(b)
        assert a.stages == b.stages and type(a.stages) is int and type(a.model.beta) is float

    def test_config_hash_is_the_canonical_json_digest(self):
        """A config is named like any payload: the sha256 of the canonical
        JSON of the fields its equality compares."""
        cfg = _flip_full(calibration_trials=7)
        doc = {"model": {"beta": 0.0, "prior_1": 0.5}, "channel": {"family": "constant", "q": 0.1, "p": None,
               "scale": 1.0}, "memory": {"family": "full", "capacity": None, "sigma": None},
               "stages": 60, "trials": 512, "seed": 3, "grid": None}
        assert config_hash(cfg) == config_hash(doc)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()[:12]

    @pytest.mark.parametrize("kw", [{"stages": 5.7}, {"trials": True}, {"seed": "3"}, {"stages": float("inf")}])
    def test_counts_are_integers(self, kw):
        with pytest.raises(ValueError, match="must be an integer"):
            _flip_full(**kw)


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
        "channel,capacity",
        [(ErasureSchedule("constant", level=0.2, level_one=0.6), 3), (FlipSchedule("constant", q=0.15), 2)],
        ids=["erasure", "flip"],
    )
    def test_window_invariant_to_blocks_threads_and_replay(self, monkeypatch, channel, capacity):
        """Every block and every replay drives its own exact recursion, so
        the decision tables must come out the same in each."""
        config = ExperimentConfig(
            model=BeliefModel(1.0, prior_1=0.3),
            channel=channel,
            memory=MemorySchedule("bounded", capacity=capacity),
            stages=30,
            trials=150,
            seed=13,
            grid=(3, 17, 30),
        )
        whole = estimate_error_series(config)
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 37)  # five blocks, half of them at an odd trial
        split = estimate_error_series(config, threads=4)
        for col in ("err0", "err1"):
            np.testing.assert_array_equal(whole.extra[col], split.extra[col])
        np.testing.assert_array_equal(whole.values, split.values)
        for hyp, col in ((0, "err0"), (1, "err1")):
            dec = np.stack([run_trial(config, t, hyp).decisions for t in range(config.trials)])
            wrong = dec != hyp
            np.testing.assert_array_equal(wrong[:, np.asarray(config.grid) - 1].sum(axis=0), whole.extra[col])

    def test_window_memory_does_not_grow_with_stages(self):
        """3**10 states: a table per stage would make the 80-stage peak
        about four times the 20-stage one."""

        def peak(stages):
            config = ExperimentConfig(
                model=MODEL,
                channel=ErasureSchedule("constant", level=0.3),
                memory=MemorySchedule("bounded", capacity=10),
                stages=stages,
                trials=50,
                seed=1,
            )
            tracemalloc.start()
            try:
                estimate_error_series(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(80) <= 1.25 * peak(20)

    @pytest.mark.parametrize(
        "channel,memory,stages",
        [
            (FlipSchedule("constant", q=0.2), MemorySchedule("full"), 2000),
            (FlipSchedule("constant", q=0.2), MemorySchedule("bounded", capacity=2), 2000),
            (ErasureSchedule("constant", level=0.3), MemorySchedule("bounded", capacity=2), 2000),
            (ErasureSchedule("constant", level=0.5), MemorySchedule("power", sigma=0.5), 64),
        ],
    )
    def test_replay_is_stable(self, channel, memory, stages):
        config = ExperimentConfig(
            model=MODEL,
            channel=channel,
            memory=memory,
            stages=stages,
            trials=8,
            seed=21,
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


def _recording_step(seen: list):
    """A step factory that keeps every (u, v) it is given, row r of the
    block's draws at [stage - 1, h, r], and decides 0 throughout."""

    def make_step(config, width):
        draws = np.zeros((config.stages, 2, width, 2))
        seen.append(draws)

        def step(k, u, v):
            draws[k - 1, ..., 0], draws[k - 1, ..., 1] = u, v
            return np.zeros((2, width), dtype=bool), None

        return step

    return make_step


class TestStream:
    """The layout of the draws: stage k of hypothesis h reads row k of
    PCG64DXSM(SeedSequence(seed, spawn_key=(0, h))), the stream as numpy's
    jumped(k - 1) leaves it, and trial t takes its outputs 2t (u) and
    2t + 1 (v).  So each (trial, stage) draw is fixed on its own."""

    @pytest.mark.parametrize(
        "bounds",
        [[(1, 6)], [(0, 5)], [(lo, min(lo + 37, 150)) for lo in range(0, 150, 37)],
         [(lo, min(lo + 64, 150)) for lo in range(0, 150, 64)]],
        ids=["odd_first", "odd_count", "blocks_37", "blocks_64"],
    )
    def test_stage_rows_are_numpys_jumps(self, bounds):
        config = _flip_full(stages=7, trials=150, seed=77)
        streams = [np.random.PCG64DXSM(np.random.SeedSequence(config.seed, spawn_key=(0, h))) for h in (0, 1)]
        rows = np.stack([
            [np.random.Generator(bits.jumped(k - 1)).random((config.trials, 2)) for bits in streams]
            for k in range(1, config.stages + 1)
        ])  # [stage - 1, h, trial, (u, v)]
        seen = []
        for lo, hi in bounds:
            mc._run_block(config, lo, hi, _recording_step(seen))
        for (lo, _), draws in zip(bounds, seen):  # row r of a block's draws is trial 2 * (lo // 2) + r
            first = 2 * (lo // 2)
            np.testing.assert_array_equal(draws, rows[:, :, first:first + draws.shape[2]])

    def test_fewer_trials_are_a_prefix(self):
        """The last erring stages of T trials are those of the first T of 2T."""
        short = mc._collect_blocks(_flip_full(trials=75), None, 1)[1]
        long = mc._collect_blocks(_flip_full(trials=150), None, 1)[1]
        np.testing.assert_array_equal(short, long[:, :75])

    def test_shorter_horizon_is_a_prefix(self):
        """thm9_herding's constant case at two horizons: the 2500-stage
        decision paths are the first 2500 stages of the 5000-stage ones, so
        both horizons' late errors can be read from one pass."""

        def paths(stages):
            config = ExperimentConfig(
                MODEL, FlipSchedule("constant", q=0.05), MemorySchedule("full"), stages=stages, trials=64, seed=1104
            )
            return mc._run_block(config, 1, 64, mc._step_for(config), collect=True)[3]

        half, full = paths(2500), paths(5000)
        assert half.shape == (2, 63, 2500)
        np.testing.assert_array_equal(half, full[:, :, :2500])


def _allocating_flip_step(config: ExperimentConfig, m: int):
    """The flip kernel as plainly allocating steps: both cdfs at the cutoff,
    a np.where decision, the Bayes step with np.where likelihoods and a
    clip, and the clamp mask every stage."""
    model = config.model
    qs = flip_probs(config.channel, np.arange(1, config.stages + 1))
    b = np.full((2, m), model.prior_1)

    def step(k, u, v):
        nonlocal b
        f0, f1 = cdf(model, 0, 1.0 - b), cdf(model, 1, 1.0 - b)
        d = u > np.where([[False], [True]], f1, f0)
        q = float(qs[k - 1])
        w = 1.0 - 2.0 * q
        is0 = (d != (v < q)) == 0
        like1 = np.where(is0, q + w * f1, q + w * (1.0 - f1))
        like0 = np.where(is0, q + w * f0, q + w * (1.0 - f0))
        num = like1 * b
        b = np.clip(num / (num + like0 * (1.0 - b)), BELIEF_FLOOR, BELIEF_CEIL)
        return d, (b <= BELIEF_FLOOR) | (b >= BELIEF_CEIL)

    return step


def _flip_run(config: ExperimentConfig, threads: int = 1):
    """Every-stage error counts and clamp totals, and last erring stages."""
    counts, _, clamps = mc._collect_blocks(config, np.arange(-1, config.stages), threads)
    return counts, clamps, mc._collect_blocks(config, None, threads)[1]


class TestFlipKernel:
    """The buffered flip kernel must reproduce, bit for bit, the same stages
    written with a fresh array for every intermediate."""

    @pytest.mark.parametrize("prior", [0.5, 0.3])
    @pytest.mark.parametrize("beta", [0.0, 2.0])
    @pytest.mark.parametrize(
        "channel",
        [
            FlipSchedule("constant", q=0.15),
            FlipSchedule("power", p=0.5, scale=0.7),
            FlipSchedule("log_power", p=1.5, scale=0.9),
        ],
        ids=["constant", "power", "log_power"],
    )
    def test_matches_allocating_reference(self, monkeypatch, prior, beta, channel):
        config = ExperimentConfig(
            model=BeliefModel(beta, prior_1=prior),
            channel=channel,
            memory=MemorySchedule("full"),
            stages=40,
            trials=90,
            seed=31,
        )
        with monkeypatch.context() as patch:
            patch.setattr(mc, "_flip_full_step", _allocating_flip_step)
            want = _flip_run(config)
        for block, threads in ((mc._BLOCK_TRIALS, 1), (mc._BLOCK_TRIALS, 3), (37, 1), (37, 3)):
            monkeypatch.setattr(mc, "_BLOCK_TRIALS", block)  # 37: three blocks, one at an odd trial
            got = _flip_run(config, threads)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("prior", [BELIEF_FLOOR, BELIEF_CEIL])
    def test_clamp_branch(self, monkeypatch, prior):
        """A prior at the floor or the ceiling seeds every public belief
        there, so the kernel's clip and clamp mask run from stage 1."""
        config = ExperimentConfig(
            model=BeliefModel(0.0, prior_1=prior),
            channel=FlipSchedule("constant", q=0.1),
            memory=MemorySchedule("full"),
            stages=30,
            trials=64,
            seed=5,
        )
        got = _flip_run(config)
        monkeypatch.setattr(mc, "_flip_full_step", _allocating_flip_step)
        want = _flip_run(config)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert got[1].sum() > 0

    def test_bits_pinned(self):
        """sha256 of the per-stage error counts and each trial's last erring
        stage of one config, recorded before the kernel was rewritten in
        place, re-recorded when the cutoff became the Bayes test at every
        prior (test_matches_allocating_reference vouches for the new bits)
        and when the draws moved to PCG64DXSM stage rows (TestStream and
        TestAgainstExact vouch for the stream); a change to any bit of the
        flip kernel fails here."""
        config = ExperimentConfig(
            model=BeliefModel(1.0, prior_1=0.4),
            channel=FlipSchedule("power", p=0.5, scale=0.8),
            memory=MemorySchedule("full"),
            stages=48,
            trials=40,
            seed=2718,
            grid=tuple(range(1, 49)),
        )
        series = estimate_error_series(config)
        last = [run_trial(config, t, h).last_error_index for h in (0, 1) for t in range(config.trials)]
        blob = np.concatenate([series.extra["err0"], series.extra["err1"], np.asarray(last, dtype=np.int64)])
        assert series.meta["clamp_events"] == 0
        assert (
            hashlib.sha256(blob.astype(np.int64).tobytes()).hexdigest()
            == "fd70fa2056e28bfa699f981c0cca67845f46e075fe660b24446a882b7229d296"
        )


def _cross_check(config: ExperimentConfig, alpha: float) -> dict:
    """cross_check of config's Monte Carlo counts against its reference."""
    return cross_check(estimate_error_series(config), reference(config), alpha)


class TestAgainstExact:
    """Each test states the false-failure rate alpha that cross_check's
    union bound gives it, whatever the correlation between stages."""

    def test_window_chain_within_binomial_noise(self):
        """alpha = 1e-4 over the 100 counts of 50 stages."""
        config = ExperimentConfig(
            model=MODEL,
            channel=FlipSchedule("constant", q=0.2),
            memory=MemorySchedule("bounded", capacity=1),
            stages=50,
            trials=4000,
            seed=7,
            grid=tuple(range(1, 51)),
        )
        result = _cross_check(config, 1e-4)
        assert result["passed"], result

    @pytest.mark.parametrize("memory", [MemorySchedule("full"), MemorySchedule("bounded", capacity=2)])
    def test_beta_one_within_five_sigma(self, memory):
        """beta = 1 has a polynomial cdf, so this checks the decision
        u > F_h(cut) away from the beta = 0 closed form, against the history
        enumeration (full memory) or the window recursion.  alpha = 2.3e-6
        over the eight counts of four stages."""
        config = ExperimentConfig(
            model=BeliefModel(1.0),
            channel=FlipSchedule("constant", q=0.2),
            memory=memory,
            stages=4,
            trials=20_000,
            seed=17,
            grid=tuple(range(1, 5)),
        )
        result = _cross_check(config, 2.3e-6)
        assert result["passed"], result

    @pytest.mark.parametrize(
        "model,channel,memory",
        [
            (MODEL, ErasureSchedule("constant", level=0.9), MemorySchedule("full")),
            (MODEL, ErasureSchedule("constant", level=0.5), MemorySchedule("power", sigma=0.5)),
            (BeliefModel(0.0, prior_1=0.3), ErasureSchedule("constant", level=0.2, level_one=0.6),
             MemorySchedule("full")),
        ],
        ids=["full", "sqrt_window", "unequal_levels"],
    )
    def test_erasure_scan_within_binomial_noise(self, model, channel, memory):
        """The scan kernel against the exact scan over all 300 stages:
        alpha = 1.9e-5 per case over its 600 counts."""
        config = ExperimentConfig(
            model=model, channel=channel, memory=memory, stages=300, trials=4000, seed=2024,
            grid=tuple(range(1, 301)),
        )
        result = _cross_check(config, 1.9e-5)
        assert result["passed"], result

    @pytest.mark.parametrize(
        "channel,memory",
        [
            (FlipSchedule("constant", q=0.2), MemorySchedule("full")),
            (FlipSchedule("constant", q=0.2), MemorySchedule("bounded", capacity=2)),
            (ErasureSchedule("constant", level=0.2, level_one=0.6), MemorySchedule("bounded", capacity=2)),
            (ErasureSchedule("constant", level=0.5), MemorySchedule("full")),
        ],
        ids=["flip_kernel", "window_flip", "window_erasure", "scan"],
    )
    def test_bayes_rule_at_prior_08(self, channel, memory):
        """At prior_1 = 0.8 and beta = 0 node 1 decides 1 above 0.2 and errs
        0.2 * 0.64 + 0.8 * 0.04 = 0.16; the prior-free cutoff 1/2 errred
        0.25.  Every error count of stages 1-4, err0 and err1, is checked
        against the reference (the history enumeration, the window
        recursion or the scan) at alpha = 8e-6 per case, 3.2e-5 over the
        four.  At stage 1 the old rule's type-1 rate, 0.25 against 0.64,
        is about 180 binomial SE away."""
        config = ExperimentConfig(
            BeliefModel(0.0, prior_1=0.8), channel, memory, stages=4, trials=20_000, seed=808,
            grid=tuple(range(1, 5)),
        )
        ref = reference(config)
        assert ref.values[0] == pytest.approx(0.16, abs=1e-15)
        result = cross_check(estimate_error_series(config), ref, 8e-6)
        assert result["passed"], result

    @pytest.mark.parametrize("beta,prior", [(0.0, 0.5), (1.0, 0.5), (0.0, 0.8)])
    def test_flip_kernel_against_the_enumeration(self, beta, prior):
        """The full-memory flip kernel through the enumeration's last stage,
        14: alpha = 1e-5 per case over its 28 counts."""
        config = ExperimentConfig(
            BeliefModel(beta, prior_1=prior), FlipSchedule("constant", q=0.2), MemorySchedule("full"),
            stages=MAX_MARTINGALE_DEPTH, trials=20_000, seed=1414, grid=tuple(range(1, MAX_MARTINGALE_DEPTH + 1)),
        )
        result = _cross_check(config, 1e-5)
        assert result["passed"], result


class TestWindowBitsPinned:
    """sha256 of the window kernel's (err0, err1) counts, recorded from the
    kernel that coded erasures as digit 2 and dropped the oldest symbol by
    a modulo, with a window recursion that carried both mass rows: a
    rewrite of either that moves one decision fails here.  The prior-0.3
    digests were re-recorded when the cutoff became the Bayes test at every
    prior, and all three when the draws moved to PCG64DXSM stage rows; the
    oracle tests of test_exact_dp vouch for the tables the kernel reads,
    test_window_chain_within_binomial_noise for the kernel on the new
    stream."""

    @pytest.mark.parametrize(
        "model,channel,capacity,digest",
        [
            (BeliefModel(1.0), FlipSchedule("constant", q=0.1), 10,
             "ebd8415ac8a693e91d37fcc3014080a77f0aa39390bab088e7bbf53ad2bf636c"),
            (BeliefModel(0.0, prior_1=0.3), ErasureSchedule("constant", level=0.2, level_one=0.6), 6,
             "36a2a0b435f1bdc858268f7eb7d2d430f7560f4ea9d8e734622ac7eb80a3976b"),
            (BeliefModel(0.0, prior_1=0.3), ErasureSchedule("constant", level=0.5), 12,
             "1c308d80fa20945fb3657c957c6fe77c4493a32bacbcb5bd970b60fcba747d8b"),
        ],
        ids=["flip", "unequal_erasure", "equal_erasure"],
    )
    def test_counts(self, model, channel, capacity, digest):
        config = ExperimentConfig(
            model, channel, MemorySchedule("bounded", capacity=capacity), stages=200, trials=3000, seed=99
        )
        series = estimate_error_series(config)
        blob = np.concatenate([series.extra["err0"], series.extra["err1"]]).astype(np.int64)
        assert hashlib.sha256(blob.tobytes()).hexdigest() == digest


class TestScanBitsPinned:
    """sha256 of the scan kernel's (err0, err1) counts on the default grid
    and each trial's last erring stage, recorded from the kernel that
    rebuilt its evidence codes with np.where every stage: a rewrite that
    moves one decision fails here.  Re-recorded when the cutoff became the
    Bayes test at every prior and when the draws moved to PCG64DXSM stage
    rows; the scan oracle of test_exact_dp vouches for the table and
    test_erasure_scan_within_binomial_noise for the kernel."""

    @pytest.mark.parametrize(
        "channel,memory,digest",
        [
            (ErasureSchedule("constant", level=0.9), MemorySchedule("full"),
             "4378704ec5c855bbd43c0cd9c77969e062b46eb2fa6c3c0f2e8f08bfcf748d17"),
            (ErasureSchedule("constant", level=0.5), MemorySchedule("power", sigma=0.5),
             "113b40dfd948fa892f5989b1208cb00f9d663b799c46489a740a0962a5cd870d"),
            (ErasureSchedule("constant", level=0.6), MemorySchedule("sporadic"),
             "5b76cbdd49ceb240263a3b57742f8da02c45df181e54579d0ee95bb2c3f71837"),
            (ErasureSchedule("constant", level=0.3, level_one=0.7), MemorySchedule("full"),
             "801b541e71b2386cc108e38dd7fb3e460a94db2775a86a9efd8e93c5e27d79f1"),
            (ErasureSchedule("theorem4", c=1.0, eps=2.0), MemorySchedule("full"),
             "480b9b3c40f39390de7fdb80fc73382163ea0d0a9003804785b588e2489aac3b"),
        ],
        ids=["full", "power", "sporadic", "asymmetric", "theorem4"],
    )
    def test_counts_and_last_stages(self, channel, memory, digest):
        config = ExperimentConfig(
            BeliefModel(1.0, prior_1=0.3), channel, memory, stages=300, trials=700, seed=99
        )
        series = estimate_error_series(config)
        last = mc._collect_blocks(config, None, 1)[1]
        blob = np.concatenate([series.extra["err0"], series.extra["err1"], last.ravel()]).astype(np.int64)
        assert hashlib.sha256(blob.tobytes()).hexdigest() == digest


class TestKernelAllocations:
    """Warm kernel steps work in the buffers made once per block: a (2, m)
    array made per stage would take 8 KB (bool) to 64 KB (int64, float) at
    m = 4096, against the few hundred bytes of a step's small Python objects.
    Two measures are asserted over the traced steps: the largest peak of one
    step above the memory that step starts from, which catches a per-stage
    buffer, and the net growth from the first step's start to the last
    step's end, which catches memory kept from stage to stage.  The warm-up
    runs long enough to fill the capped caches that numpy keeps of what a
    step frees (about 8 KB of 120-byte blocks behind `np.take` fill within
    80 steps), so neither measure depends on what ran before in the process."""

    M = 4096

    WARM = 100

    def _assert_lean(self, config, stages=200):
        step = mc._step_for(config)(config, self.M)
        rng = np.random.default_rng(3)
        u, v = rng.random((2, 2, self.M))
        for k in range(1, 1 + self.WARM):
            step(k, u, v)
        tracemalloc.start()
        try:
            peak = 0
            start = tracemalloc.get_traced_memory()[0]
            for k in range(1 + self.WARM, 1 + self.WARM + stages):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert step(k, u, v)[1] is None  # no clamps
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            growth = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert peak < 4096
        # what the steps replace (the window step's current stage tables) stays under 1.1 KB;
        # one small object kept per stage, 32 B or more, would add 6400 B over 200 steps
        assert growth < 2048

    @pytest.mark.parametrize("model", [MODEL, BeliefModel(2.0, prior_1=0.3)], ids=["beta0", "beta2_prior03"])
    def test_flip_step(self, model):
        config = ExperimentConfig(
            model, FlipSchedule("constant", q=0.1), MemorySchedule("full"), stages=310, trials=self.M, seed=1
        )
        self._assert_lean(config)

    @pytest.mark.parametrize(
        "channel,memory",
        [
            (ErasureSchedule("constant", level=0.9), MemorySchedule("full")),
            (ErasureSchedule("constant", level=0.5), MemorySchedule("power", sigma=0.5)),
            (ErasureSchedule("constant", level=0.3, level_one=0.7), MemorySchedule("full")),
        ],
        ids=["full", "power", "asymmetric"],
    )
    def test_scan_step(self, channel, memory):
        config = ExperimentConfig(MODEL, channel, memory, stages=310, trials=self.M, seed=1)
        self._assert_lean(config)

    # the window is full from stage 3, so every traced step takes the oldest digit off.  About
    # 3 KB of each step is the views and floats of the step's own exact recursion
    @pytest.mark.parametrize(
        "channel",
        [
            ErasureSchedule("constant", level=0.3),
            ErasureSchedule("constant", level=0.3, level_one=0.7),
            FlipSchedule("constant", q=0.1),
        ],
        ids=["equal", "unequal", "flip"],
    )
    def test_window_step(self, channel):
        config = ExperimentConfig(
            MODEL, channel, MemorySchedule("bounded", capacity=2), stages=310, trials=self.M, seed=1
        )
        self._assert_lean(config)

    @pytest.mark.parametrize("lo,hi", [(1, M), (0, M - 1)], ids=["odd_first", "odd_count"])
    @pytest.mark.parametrize(
        "channel,memory",
        [
            (FlipSchedule("constant", q=0.1), MemorySchedule("full")),
            (ErasureSchedule("constant", level=0.9), MemorySchedule("full")),
            (ErasureSchedule("constant", level=0.3), MemorySchedule("bounded", capacity=4)),
        ],
        ids=["flip", "scan", "window"],
    )
    def test_odd_block_bounds(self, channel, memory, lo, hi):
        """A block that starts at an odd trial or holds an odd count still
        gives its step contiguous (2, width) draws.  Each whole warm stage of
        _run_block (the step, the count bookkeeping and the next draws) is
        traced from one step call to the next; a strided u or v would cost a
        64 KB iteration buffer per ufunc."""
        config = ExperimentConfig(MODEL, channel, memory, stages=self.WARM + 200, trials=self.M, seed=1)
        make_step = mc._step_for(config)
        peaks, base = [], 0

        def traced(config, width):
            step = make_step(config, width)

            def stage(k, u, v):
                nonlocal base
                if k > self.WARM:
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                elif k == self.WARM:
                    tracemalloc.start()
                if k >= self.WARM:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                return step(k, u, v)

            return stage

        try:
            _, _, clamps, _ = mc._run_block(config, lo, hi, traced, slot=np.arange(-1, config.stages))
        finally:
            tracemalloc.stop()
        assert clamps.tolist() == [0, 0] and len(peaks) == 200
        assert max(peaks) < 4096

    def test_a_scan_run_keeps_nothing(self):
        """The scan's (2, 2K + 2) table, 0.32 MB at K = 10 000, lives only as
        long as its run: a process-wide cache once kept up to 8 of them.
        The warm-up at another stage count makes what any run makes once.
        K stays at 10 000 because tracing slows the kernel about tenfold."""
        channel, memory = ErasureSchedule("constant", level=0.9), MemorySchedule("full")
        estimate_error_series(ExperimentConfig(MODEL, channel, memory, stages=500, trials=2, seed=1))
        config = ExperimentConfig(MODEL, channel, memory, stages=10_000, trials=2, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimate_error_series(config)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 32_000  # a tenth of the table; about 1 KB is held


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

    @given(values=st.lists(st.integers(0, 10**6), min_size=1, max_size=400), top=st.sampled_from([1, 2, 4, 10**6 + 1]))
    @example(values=[7], top=10**6 + 1)
    @example(values=[5] * 400, top=1)
    def test_percentiles_are_numpys(self, values, top):
        """herding_stats' quantiles equal np.percentile's linear method bit for
        bit: single values, heavy ties (top 2 or 4) and all-zero rows (top 1)."""
        last = np.array(values, dtype=np.int64) % top
        got = np.array(mc._percentiles(last, (50, 90, 99)))
        assert got.tobytes() == np.percentile(last, [50, 90, 99]).tobytes()

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
