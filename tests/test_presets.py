"""Registry hygiene for the named experiment presets plus one cheap
end-to-end smoke run."""

import json

import pytest

from noisycast.presets import (
    PRESET_INFO,
    PRESETS,
    Overrides,
    UnknownPresetError,
    list_presets,
    run_preset,
)

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

    def test_stage_override_changes_the_series(self, tmp_path):
        run_preset("lemma3_n1", tmp_path / "short", Overrides(stages=20_000))
        run_preset("lemma3_n1", tmp_path / "long", Overrides(stages=40_000))
        short = (tmp_path / "short" / "series.csv").read_text()
        long = (tmp_path / "long" / "series.csv").read_text()
        assert short != long
        assert long.splitlines()[-1].startswith("40000,")

    def test_monte_carlo_verdict_records_clamp_events(self, tmp_path):
        verdict = run_preset("thm_flip_learning", tmp_path, Overrides(trials=200, stages=30))
        assert isinstance(verdict["clamp_events"], int) and verdict["clamp_events"] >= 0

    def test_overrides_defaults(self):
        ov = Overrides()
        assert (ov.seed, ov.trials, ov.stages, ov.threads) == (None, None, None, 1)
