"""Registry hygiene for the named experiment presets plus one cheap
end-to-end smoke run."""

import json
import os
import platform
import subprocess
import sys
import textwrap
from importlib import metadata

import numpy as np
import pytest

import noisycast
from noisycast.analysis import SeriesResult
from noisycast.belief_model import BeliefModel
from noisycast.channels import FlipSchedule
from noisycast.montecarlo import ExperimentConfig, estimate_error_series
from noisycast.presets import (
    PRESET_INFO,
    PRESETS,
    Overrides,
    PresetError,
    UnknownPresetError,
    cross_check,
    list_presets,
    reference,
    run_preset,
)
from noisycast.topology import MemorySchedule

EXPECTED = [
    "lemma1_martingale",
    "lemma3_n1",
    "lemma3_n2",
    "lemma4_div",
    "lemma4_sum",
    "mc_vs_exact",
    "prop1_full",
    "prop1_sigma03",
    "prop1_sigma05",
    "thm10_poly",
    "thm7_plateau",
    "thm8_i",
    "thm8_ii",
    "thm8_iii",
    "thm8_iv",
    "thm9_herding",
    "thm_erasure_bounded",
    "thm_erasure_to_one",
    "thm_erasure_unbounded",
    "thm_flip_bounded",
    "thm_flip_learning",
    "thm_rate_k2",
]


class TestRegistry:
    def test_listing_is_sorted_and_matches_registry(self):
        names = list_presets()
        assert names == sorted(names)
        assert names == sorted(PRESETS)

    def test_expected_names_present(self):
        assert list_presets() == EXPECTED

    def test_every_preset_has_a_description(self):
        assert set(PRESET_INFO) == set(PRESETS)
        assert all(isinstance(v, str) and v for v in PRESET_INFO.values())

    def test_unknown_preset_error_payload(self, tmp_path):
        with pytest.raises(UnknownPresetError) as err:
            run_preset("nope", tmp_path)
        assert err.value.name == "nope"
        assert err.value.known == list_presets()
        assert "unknown preset 'nope'" in str(err.value)
        assert "lemma1_martingale" in str(err.value)
        assert not (tmp_path / "verdict.json").exists()


class TestRunPreset:
    def test_smoke_run_writes_verdict_and_files(self, tmp_path):
        verdict = run_preset("lemma3_n1", tmp_path, Overrides(stages=20_000))
        assert verdict["preset"] == "lemma3_n1"
        assert verdict["passed"] is True
        assert verdict["runtime_seconds"] >= 0
        for name in verdict["files"]:
            assert (tmp_path / name).exists()
        with open(tmp_path / "verdict.json", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == verdict
        assert all({"name", "value", "target", "comparator", "passed"} <= set(c) for c in verdict["checks"])
        assert verdict["versions"] == {
            "noisycast": noisycast.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
        }
        # the interpreter and numpy alone take more than 10 MB; a KiB/byte mix-up is off by 1024
        assert 10.0 < verdict["process_peak_rss_mb"] < 10_000.0

    def test_peak_rss_is_the_process_peak(self):
        """The recorded peak covers the whole process, not the one run: a
        small run after 64 MB were touched and freed reports them.  On Linux
        a child also starts from its parent's peak, so the small run's own
        reading is not asserted: in a large pytest process it reads the
        parent's 80 MB."""
        code = textwrap.dedent(
            """
            import json
            import tempfile
            import numpy as np
            import noisycast as nc

            def peak():
                with tempfile.TemporaryDirectory() as out:
                    return nc.run_preset("lemma3_n1", out, nc.Overrides(stages=2000))["process_peak_rss_mb"]

            before = peak()
            big = np.ones(8_000_000)  # 64 MB, every page touched
            del big
            print(json.dumps([before, peak()]))
            """
        )
        src = os.path.dirname(os.path.dirname(noisycast.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        # the array plus the 10 MB or more of the interpreter and numpy; the run itself peaks near 50 MB
        assert after > 64.0 + 10.0
        assert after >= before

    def test_stage_override_changes_the_series(self, tmp_path):
        run_preset("lemma3_n1", tmp_path / "short", Overrides(stages=20_000))
        run_preset("lemma3_n1", tmp_path / "long", Overrides(stages=40_000))
        short = (tmp_path / "short" / "series.csv").read_text()
        long = (tmp_path / "long" / "series.csv").read_text()
        assert short != long
        assert long.splitlines()[-1].startswith("40000,")

    def test_seed_override_of_a_deterministic_preset_is_refused(self, tmp_path):
        with pytest.raises(PresetError, match="has no seed setting"):
            run_preset("lemma3_n1", tmp_path / "refused", Overrides(stages=20_000, seed=3))
        assert not (tmp_path / "refused").exists()
        verdict = run_preset("lemma3_n1", tmp_path, Overrides(stages=20_000))
        assert verdict["seed"] == 0
        assert (tmp_path / "series.csv").read_text().splitlines()[0].endswith("seed=0")

    def test_monte_carlo_verdict_records_clamp_events(self, tmp_path):
        verdict = run_preset("thm_flip_learning", tmp_path, Overrides(trials=200, stages=30))
        assert isinstance(verdict["clamp_events"], int) and verdict["clamp_events"] >= 0

    def test_overrides_defaults(self):
        ov = Overrides()
        assert (ov.seed, ov.trials, ov.stages, ov.threads) == (None, None, None, 1)

    @pytest.mark.parametrize(
        "kw", [{"stages": 0}, {"trials": 0}, {"threads": 0}, {"threads": -2}, {"seed": -1}, {"seed": 2**64}]
    )
    def test_overrides_reject_out_of_range_values(self, kw):
        with pytest.raises(ValueError):
            Overrides(**kw)
        Overrides(seed=2**64 - 1, trials=1, stages=1, threads=1)

    @pytest.mark.parametrize("kw", [{"trials": 5.7}, {"stages": True}, {"seed": "7"}, {"threads": 1.5}])
    def test_overrides_refuse_what_is_no_count(self, kw):
        with pytest.raises(ValueError, match="must be an integer"):
            Overrides(**kw)

    def test_overrides_store_integral_floats_as_ints(self):
        ov = Overrides(seed=7.0, trials=2e2, stages=np.int64(30))
        assert ov == Overrides(seed=7, trials=200, stages=30)
        assert all(type(v) is int for v in (ov.seed, ov.trials, ov.stages))


def _counts(trials: int, err0, err1) -> SeriesResult:
    """A Monte Carlo series on stages 1..len(err0) with the given counts."""
    stages = np.arange(1, len(err0) + 1)
    return SeriesResult(stages, np.zeros(stages.size), meta={"trials": trials},
                        extra={"err0": np.asarray(err0), "err1": np.asarray(err1)})


def _rates(p0, p1) -> SeriesResult:
    stages = np.arange(1, len(p0) + 1)
    return SeriesResult(stages, np.zeros(stages.size), extra={"p0_type1": np.asarray(p0), "p1_type2": np.asarray(p1)})


class TestCrossCheck:
    def test_rejects_the_rates_of_another_prior(self):
        """test_bayes_rule_at_prior_08's window counts at prior 0.8 against
        the window rates at prior 1/2: stage 1's type-1 count sits about
        128 SE from the prior-1/2 rate."""
        config = ExperimentConfig(BeliefModel(0.0, prior_1=0.8), FlipSchedule("constant", q=0.2),
                                  MemorySchedule("bounded", capacity=2), stages=4, trials=20_000, seed=808,
                                  grid=tuple(range(1, 5)))
        wrong = reference(ExperimentConfig(BeliefModel(0.0), config.channel, config.memory, 4, 20_000, 808))
        result = cross_check(estimate_error_series(config), wrong, 1e-4)
        assert not result["passed"]
        assert (result["stage"], result["hypothesis"]) == (1, 0)
        assert result["z"] == pytest.approx(128, abs=2)

    def test_a_zero_rate_passes_only_a_zero_count(self):
        rates = _rates([0.0, 0.5], [0.5, 1.0])
        assert cross_check(_counts(100, [0, 50], [50, 100]), rates, 1e-4)["passed"]
        result = cross_check(_counts(100, [1, 50], [50, 100]), rates, 1e-4)
        assert not result["passed"]
        assert (result["stage"], result["hypothesis"], result["z"], result["union_bound"]) == (1, 0, np.inf, 0.0)
        assert not cross_check(_counts(100, [0, 50], [50, 99]), rates, 1e-4)["passed"]

    def test_result_records_the_worst_count(self):
        """Four counts: the one of stage 2 under h = 1, 20 above n p = 50
        at n = 100, has the smallest Chernoff bound
        2 exp(-100 KL(0.7 || 0.5)) = 5.3e-4; the union over four is 2.1e-3."""
        mc, rates = _counts(100, [50, 50], [50, 70]), _rates([0.5, 0.5], [0.5, 0.5])
        result = cross_check(mc, rates, 1e-2)
        kl = 0.7 * np.log(0.7 / 0.5) + 0.3 * np.log(0.3 / 0.5)
        assert (result["alpha"], result["stage"], result["hypothesis"], result["z"]) == (1e-2, 2, 1, 4.0)
        assert result["union_bound"] == pytest.approx(4 * 2 * np.exp(-100 * kl), rel=1e-12)
        assert (result["name"], result["value"], result["target"]) == ("cross_check", result["union_bound"], 1e-2)
        assert result["passed"] is False
        assert cross_check(mc, rates, 1e-3)["passed"] is True

    def test_reference_refuses_a_flip_chain_past_the_enumeration(self):
        config = ExperimentConfig(BeliefModel(0.0), FlipSchedule("constant", q=0.2), MemorySchedule("full"),
                                  stages=15, trials=10, seed=0)
        with pytest.raises(ValueError, match=r"k_max must lie in \[1, 14\]"):
            reference(config)

    def test_verdict_records_the_cross_check(self, tmp_path):
        verdict = run_preset("mc_vs_exact", tmp_path, Overrides(stages=20, trials=2000))
        (check,) = verdict["checks"]
        assert {"name", "value", "target", "comparator", "informational", "passed", "alpha", "stage", "hypothesis",
                "z", "union_bound"} == set(check)
        assert (check["name"], check["alpha"], check["passed"]) == ("cross_check", 1e-4, True)
