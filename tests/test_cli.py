"""Command-line interface tests, run in process through main().

Exit-code contract: 0 success, 1 failed checks or runtime errors, 2 usage
and configuration problems.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from noisycast.analysis import read_series_csv, write_series_csv
from noisycast.cli import ConfigError, main, parse_config
from noisycast.presets import list_presets


def _write_config(path, **overrides):
    doc = {
        "schema": 1,
        "task": "exact",
        "channel": {"kind": "flip", "q": 0.2},
        "memory": {"family": "bounded", "capacity": 1},
        "run": {"stages": 50},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestListing:
    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in list_presets():
            assert name in out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        assert "lemma1_martingale" in capsys.readouterr().out


class TestPresetRuns:
    def test_unknown_preset(self, tmp_path, capsys):
        code = main(["preset", "nonesuch", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown preset" in err
        assert "lemma1_martingale" in err

    def test_small_preset_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["preset", "lemma3_n1", "--nodes", "20000", "--out", str(out)])
        assert code == 0
        assert "preset lemma3_n1: PASS" in capsys.readouterr().out
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"] is True
        assert (out / "series.csv").exists()

    def test_preset_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["preset", "lemma3_n1", "--nodes", "20000", "--out", str(a)]) == 0
        assert main(["preset", "lemma3_n1", "--nodes", "20000", "--out", str(b)]) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_preset_flag_form(self, tmp_path):
        out = tmp_path / "flag"
        code = main(["--preset", "lemma3_n1", "--nodes", "20000", "--out", str(out)])
        assert code == 0
        assert (out / "verdict.json").exists()


class TestConfigRuns:
    def test_exact_task(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
        cols, meta = read_series_csv(out / "series.csv")
        assert meta["producer"] == "exact"
        assert len(meta["config_hash"]) == 12
        assert list(cols) == ["k", "pe_exact", "p0_type1", "p1_type2"]
        assert cols["pe_exact"][0] == pytest.approx(0.25)
        assert cols["pe_exact"][1] == pytest.approx(0.2275)

    def test_simulate_task(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="simulate",
            channel={"kind": "flip", "q": 0.1},
            memory={"family": "full"},
            run={"stages": 30, "trials": 200, "seed": 4},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        cols, meta = read_series_csv(out / "series.csv")
        assert list(cols) == ["k", "pe_hat", "ci_low", "ci_high", "p0_type1_hat", "p1_type2_hat"]
        assert meta["producer"] == "simulate"
        assert meta["clamp_events"].isdigit()
        assert np.all(cols["ci_low"] <= cols["pe_hat"])

    def test_run_overrides_are_hashed(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="simulate",
            channel={"kind": "flip", "q": 0.1},
            memory={"family": "full"},
            run={"stages": 20, "trials": 100, "seed": 4},
        )
        hashes = {}
        for name, trials in (("a", "200"), ("b", "400"), ("c", "200")):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--trials", trials]) == 0
            hashes[name] = read_series_csv(out / "series.csv")[1]["config_hash"]
        assert hashes["a"] != hashes["b"]
        assert hashes["a"] == hashes["c"]
        assert hashes["a"] != parse_config(cfg).digest

    def test_simulate_thread_invariance(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="simulate",
            channel={"kind": "flip", "q": 0.1},
            memory={"family": "full"},
            run={"stages": 30, "trials": 200, "seed": 4},
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b), "--threads", "4"]) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_martingale_under_exact_subcommand(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="martingale",
            channel={"kind": "flip", "q": 0.25},
            memory={"family": "full"},
            run={"stages": 8},
        )
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
        cols, _ = read_series_csv(out / "series.csv")
        assert list(cols) == ["k", "max_deviation", "tail_mass"]
        assert cols["max_deviation"].max() < 1e-10

    def test_recursion_task(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="recursion",
            channel={"kind": "flip", "q": 0.1},
            memory=None,
            run={"stages": 2000},
            recursion={"initial": 0.5},
        )
        out = tmp_path / "out"
        assert main(["recursion", "--config", str(cfg), "--out", str(out)]) == 0
        cols, _ = read_series_csv(out / "series.csv")
        assert list(cols) == ["k", "b_k", "type1_bound"]
        assert cols["b_k"][0] == 0.5

    def test_herding_task(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="herding",
            channel={"kind": "flip", "q": 0.1},
            memory={"family": "full"},
            run={"stages": 40, "trials": 200, "seed": 2},
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        cols, _ = read_series_csv(out / "series.csv")
        assert "late_error_fraction" in cols

    def test_fold_warning_is_surfaced(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", channel={"kind": "flip", "q": 0.7})
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "note:" in err and "0.3" in err

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="simulate",
            channel={"kind": "flip", "q": 0.1},
            memory={"family": "full"},
            run={"stages": 20, "trials": 100, "seed": 4},
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "5"]) == 0
        assert (a / "series.csv").read_bytes() != (b / "series.csv").read_bytes()


class TestConfigErrors:
    def _expect_2(self, tmp_path, capsys, **overrides):
        cfg = _write_config(tmp_path / "c.json", **overrides)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json")]) == 2

    def test_wrong_schema(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, schema=2)

    def test_unknown_top_key(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, topology={"family": "full"})

    def test_unknown_task(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, task="optimize")

    def test_martingale_needs_flip(self, tmp_path, capsys):
        self._expect_2(
            tmp_path,
            capsys,
            task="martingale",
            channel={"kind": "erasure", "level": 0.3},
            memory={"family": "full"},
        )

    def test_exact_needs_bounded(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, memory={"family": "full"})

    def test_recursion_needs_flip(self, tmp_path, capsys):
        self._expect_2(
            tmp_path,
            capsys,
            task="recursion",
            channel={"kind": "erasure", "level": 0.3},
            memory=None,
        )

    def test_simulate_needs_memory(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, task="simulate", memory=None)

    def test_unknown_run_key(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, run={"stages": 10, "burn_in": 5})

    def test_unknown_channel_key(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, channel={"kind": "flip", "q": 0.1, "rate": 2})

    def test_task_subcommand_mismatch(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "c.json",
            task="simulate",
            channel={"kind": "flip", "q": 0.1},
            memory={"family": "full"},
        )
        code = main(["recursion", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_capacity_rejected(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, memory={"family": "bounded", "capacity": 0})


class TestParseConfig:
    def test_round_numbers_coerced(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            task="simulate",
            channel={"kind": "flip", "q": 0.1},
            memory={"family": "full"},
            run={"stages": 1e3, "trials": 2e2, "seed": 0},
        )
        parsed = parse_config(cfg)
        assert parsed.run.stages == 1000 and isinstance(parsed.run.stages, int)
        assert parsed.run.trials == 200

    def test_defaults(self, tmp_path):
        parsed = parse_config(_write_config(tmp_path / "c.json"))
        assert parsed.task == "exact"
        assert parsed.run.trials == 10_000
        assert parsed.recursion.initial == 0.5
        assert parsed.model.prior_1 == 0.5
        assert len(parsed.digest) == 12
        assert parsed.warnings == []

    def test_default_task_fills_in(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        doc = json.loads(cfg.read_text())
        del doc["task"]
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert parse_config(cfg, default_task="exact").task == "exact"
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_warning_capture(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", channel={"kind": "flip", "q": 0.7})
        parsed = parse_config(cfg)
        assert len(parsed.warnings) == 1
        assert "0.3" in parsed.warnings[0]


class TestFit:
    def _power_csv(self, path):
        ks = np.unique(np.geomspace(1, 10_000, 80).astype(np.int64))
        write_series_csv(
            path,
            {"k": ks, "pe": 3.0 * ks.astype(float) ** -0.7},
            meta={"producer": "test"},
        )

    def test_power_fit_passes(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        self._power_csv(csv)
        code = main(
            ["fit", "--series", str(csv), "--kind", "power", "--target-slope", "-0.7", "--slope-tol", "0.01"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "power"
        assert report["slope"] == pytest.approx(-0.7, abs=1e-9)
        assert report["coeff"] == pytest.approx(3.0, rel=1e-9)
        assert report["verdicts"][0]["passed"] is True

    def test_power_fit_fails_wrong_target(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        self._power_csv(csv)
        code = main(
            ["fit", "--series", str(csv), "--kind", "power", "--target-slope", "-0.5", "--slope-tol", "0.01"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"][0]["passed"] is False

    def test_reciprocal_log_fit(self, tmp_path, capsys):
        ks = np.unique(np.geomspace(2, 10_000, 80).astype(np.int64))
        csv = tmp_path / "s.csv"
        write_series_csv(
            csv,
            {"k": ks, "b": 1.0 / (0.4 + 2.0 * np.log(ks.astype(float)))},
            meta={},
        )
        code = main(["fit", "--series", str(csv), "--kind", "reciprocal_log"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slope"] == pytest.approx(2.0, abs=1e-6)

    def test_missing_series(self, tmp_path):
        assert main(["fit", "--series", str(tmp_path / "absent.csv")]) == 2


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_conflicting_flags(self, tmp_path, capsys):
        assert main(["--preset", "x", "--config", str(tmp_path / "c.json")]) == 2

    def test_console_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "noisycast.cli", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "thm_rate_k2" in proc.stdout
