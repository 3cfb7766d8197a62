"""Command-line interface tests, run in process through main().

Exit-code contract: 0 success, 1 failed checks or runtime errors, 2 usage
and configuration problems.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisycast
from noisycast.analysis import read_series_csv, write_series_csv
from noisycast.cli import ConfigError, _parser, _subcommand_argv, main, parse_config
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

    def test_exact_task_at_a_skewed_prior(self, tmp_path):
        """prior_1 = 0.8 reaches the engine: node 1 runs the Bayes test at
        cutoff 0.2 and errs 0.2 * 0.64 + 0.8 * 0.04 = 0.16, not the 0.25 of
        cutoff 1/2."""
        cfg = _write_config(tmp_path / "c.json", prior_1=0.8)
        out = tmp_path / "out"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
        cols, _ = read_series_csv(out / "series.csv")
        assert cols["pe_exact"][0] == pytest.approx(0.16, abs=1e-15)

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
        verdict = json.loads((out / "verdict.json").read_text())
        assert str(verdict["clamp_events"]).isdigit()
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

    def test_one_run_writes_one_hash(self, tmp_path):
        """config_hash names the validated settings in effect, not the
        document as written: each spelling of one run writes one hash."""

        def config_hash(name, command, *flags, **doc):
            out = tmp_path / name
            cfg = _write_config(tmp_path / f"{name}.json", **doc)
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
            return read_series_csv(out / "series.csv")[1]["config_hash"]

        assert config_hash("int", "exact", run={"stages": 10}) == config_hash("float", "exact", run={"stages": 1e1})
        spelled = config_hash("spelled", "exact", beta=0.0, prior_1=0.5,
                              run={"stages": 10, "seed": 0, "k0_fraction": 0.5})
        assert spelled == config_hash("omitted", "exact", run={"stages": 10})
        # a setting the task does not read does not name the run
        assert spelled == config_hash("unread", "exact", run={"stages": 10, "k0_fraction": 0.3},
                                      recursion={"initial": 0.2, "coefficient": "beta"})
        rec = {"task": "recursion", "memory": None, "run": {"stages": 50}}
        assert config_hash("rec", "recursion", **rec) != config_hash("rec_beta", "recursion", **rec,
                                                                       recursion={"coefficient": "beta"})
        herd = {"task": "herding", "memory": {"family": "full"}}
        assert config_hash("herd", "run", run={"stages": 20, "trials": 50}, **herd) != config_hash(
            "herd_k0", "run", run={"stages": 20, "trials": 50, "k0_fraction": 0.3}, **herd)
        sim = {"task": "simulate", "channel": {"kind": "flip", "q": 0.1}, "memory": {"family": "full"}}
        flag = config_hash("flag", "simulate", "--trials", "200", run={"stages": 20, "trials": 100, "seed": 4}, **sim)
        sim["run"] = {"stages": 20, "trials": 200, "seed": 4}
        assert flag == config_hash("doc", "simulate", **sim)
        assert flag != config_hash("more", "simulate", "--trials", "400", **sim)
        assert flag == config_hash("threads", "simulate", "--threads", "4", **sim)
        assert (tmp_path / "threads" / "series.csv").read_bytes() == (tmp_path / "flag" / "series.csv").read_bytes()
        assert len(flag) == 12

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


# One small config per task, the sha256 of the series.csv it writes, and the
# sha256 of the rows below its `#` line.  The rows are those the config
# tasks wrote before they ran as unnamed presets; the first line moved when
# config_hash came to name the validated settings, not the document, and
# again when it came to name only the settings the task reads.
_PINNED_CONFIGS = {
    "simulate": (
        {"channel": {"kind": "flip", "q": 0.1}, "memory": {"family": "full"},
         "run": {"stages": 30, "trials": 200, "seed": 4}},
        "b8011c77a52c539804323aaf9b4c15fef45e4db3ad03d44d8a1709faec919065",
        "6879b2112db87591a0a969af23712b92df8228ddad43865d8363dfbf509e5777",
    ),
    "herding": (
        {"channel": {"kind": "flip", "q": 0.1}, "memory": {"family": "full"},
         "run": {"stages": 40, "trials": 200, "seed": 2}},
        "833684bb0b174fa19771800adb7a1e61ba98646e76b83f75d3921b297a8cea64",
        "8f028b5c02d8650481d2e97fb7be00d26b71e16d185503f42fb19dbe3dac4b8e",
    ),
    "exact": (
        {"channel": {"kind": "erasure", "level": 0.3}, "memory": {"family": "bounded", "capacity": 2},
         "run": {"stages": 50}},
        "5449055536608173da8091f7137eb19daa992bf0341225ab4bc3446e48a23b71",
        "117d0da45f79902360b7f8bbc4b002d46606c3daa4ab89974bb872d3174ccc43",
    ),
    "martingale": (
        {"channel": {"kind": "flip", "q": 0.25}, "memory": {"family": "full"}, "run": {"stages": 8}},
        "ca69403aef6b742bf0fd8af484980ef18abad23fd3d7a0482e5789d913f478e8",
        "5273d603c27d8e72dd3710b9e82c1820001a08f7ca00007653884b9730131c56",
    ),
    "recursion": (
        {"channel": {"kind": "flip", "q": 0.1}, "run": {"stages": 2000}, "recursion": {"initial": 0.5}},
        "b570537870df0b8b72e48ae804d3c44614c760d49e8aeea58586e0741601d3eb",
        "411b8d0c3b27a7e3689eed756219f109abf5ddc8b1d239d9b273779d985c51bb",
    ),
}


@pytest.mark.parametrize("task", sorted(_PINNED_CONFIGS))
def test_config_run_csv_is_pinned(tmp_path, task):
    body, digest, rows_digest = _PINNED_CONFIGS[task]
    cfg = tmp_path / f"{task}.json"
    cfg.write_text(json.dumps({"schema": 1, "task": task, **body}), encoding="utf-8")
    out = tmp_path / task
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    data = (out / "series.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest() == rows_digest
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["config_hash"] == read_series_csv(out / "series.csv")[1]["config_hash"]
    assert verdict["checks"] == [] and verdict["passed"] is True


def test_readme_example_config_runs(tmp_path):
    """README's example config is read by parse_config and runs, so the
    example cannot drift from the schema."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "example.json"
    cfg.write_text(example, encoding="utf-8")
    task = parse_config(cfg).task
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--nodes", "30", "--trials", "200", "--out", str(out)]) == 0
    assert read_series_csv(out / "series.csv")[1]["producer"] == task


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

    def test_calibration_trials_is_an_unknown_run_key(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, run={"stages": 10, "calibration_trials": 2000})

    def test_recursion_k_min_is_an_unknown_key(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "c.json",
            task="recursion",
            channel={"kind": "flip", "q": 0.1},
            memory=None,
            recursion={"initial": 0.5, "k_min": 1000},
        )
        assert main(["recursion", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown key(s) in recursion: k_min" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, 5, [1], "stages"], ids=["null", "number", "list", "string"])
    @pytest.mark.parametrize("section", ["run", "recursion"])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section, value):
        """null, 5 and [1] once raised a TypeError (exit 1), and "stages"
        was read key by key as its letters."""
        cfg = _write_config(tmp_path / "c.json", **{section: value})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: '{section}' must be an object" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["0.3", True, None], ids=["string", "bool", "null"])
    @pytest.mark.parametrize("section,key", [("recursion", "initial"), ("run", "k0_fraction")])
    def test_float_settings_are_real_numbers(self, tmp_path, capsys, section, key, value):
        """A string or a bool was once read through float(), so "0.3" ran
        as 0.3 and true as 1.0."""
        cfg = _write_config(tmp_path / "c.json", **{section: {key: value}})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {cfg}: {key} must be a real number" in capsys.readouterr().err

    def test_float_settings_store_floats(self, tmp_path):
        parsed = parse_config(_write_config(tmp_path / "c.json", run={"stages": 50, "k0_fraction": 1},
                                            recursion={"initial": 1}))
        assert type(parsed.k0_fraction) is float and type(parsed.recursion.initial) is float

    @pytest.mark.parametrize("memory", [{"family": "power", "sigma": 0.5}, {"family": "bounded", "capacity": 13}])
    def test_simulate_config_the_engine_refuses_is_a_config_error(self, tmp_path, capsys, memory):
        """ExperimentConfig refuses a flip channel over partial unbounded
        memory and a window past MAX_CAPACITY; the config is refused when it
        is read, before anything is written."""
        self._expect_2(tmp_path, capsys, task="simulate", channel={"kind": "flip", "q": 0.1}, memory=memory)
        assert not (tmp_path / "o").exists()

    def test_exact_config_past_the_closed_form_beta_runs(self, tmp_path):
        """beta = 520 reads scipy's betainc; its binomial sums once overflowed (exit 1)."""
        cfg = _write_config(tmp_path / "c.json", beta=520)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_exact_config_past_the_window_cap_is_a_config_error(self, tmp_path, capsys):
        """The same window in a simulate config exits 2; exact once ran into the engine's refusal (exit 1)."""
        self._expect_2(tmp_path, capsys, memory={"family": "bounded", "capacity": 13})
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", [{"beta": 0.5}, {"recursion": {"initial": 1.5}}], ids=["beta", "initial"])
    def test_recursion_config_the_engine_refuses_is_a_config_error(self, tmp_path, capsys, doc):
        """rate_recursion refuses a non-integer beta and an initial value
        outside (0, 1); both once exited 1, from the run."""
        self._expect_2(tmp_path, capsys, task="recursion", channel={"kind": "flip", "q": 0.1}, memory=None, **doc)
        assert not (tmp_path / "o").exists()

    def test_herding_k0_fraction_outside_the_unit_interval_is_a_config_error(self, tmp_path, capsys):
        """herding_stats refuses it too, but only once the trials have run."""
        self._expect_2(tmp_path, capsys, task="herding", channel={"kind": "flip", "q": 0.1},
                       memory={"family": "full"}, run={"stages": 40, "trials": 200, "k0_fraction": 1.5})
        assert not (tmp_path / "o").exists()

    def test_unknown_recursion_coefficient_is_a_config_error(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, task="recursion", channel={"kind": "flip", "q": 0.1}, memory=None,
                       run={"stages": 200}, recursion={"coefficient": "nope"})
        assert not (tmp_path / "o").exists()

    def test_bad_capacity_rejected(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, memory={"family": "bounded", "capacity": 0})

    @pytest.mark.parametrize("run", [{"stages": 5.7}, {"seed": True}, {"stages": "12"}, {"trials": 2.5}])
    def test_run_counts_are_not_truncated_or_coerced(self, tmp_path, capsys, run):
        """A fraction, a bool or a string is no count: the run is refused
        before anything is written, where it once ran int(value)."""
        self._expect_2(tmp_path, capsys, run=run)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model", [{"beta": "0.5"}, {"beta": True}, {"prior_1": "0.3"}])
    def test_model_numbers_are_not_coerced(self, tmp_path, capsys, model):
        """beta and prior_1 are read by BeliefModel alone, which stores a
        real number as a float and refuses a string or a bool."""
        self._expect_2(tmp_path, capsys, **model)
        assert not (tmp_path / "o").exists()

    def test_fractional_capacity_rejected(self, tmp_path, capsys):
        self._expect_2(tmp_path, capsys, memory={"family": "bounded", "capacity": 2.5})
        assert not (tmp_path / "o").exists()

    def test_integral_float_capacity_runs_as_its_int(self, tmp_path):
        """capacity 2.0 is stored as int 2: the engines run, where a float
        capacity once crashed the window workspace, and write the rows of 2."""
        bodies = []
        for cap in (2, 2.0):
            cfg = _write_config(tmp_path / f"{cap}.json", memory={"family": "bounded", "capacity": cap})
            assert main(["exact", "--config", str(cfg), "--out", str(tmp_path / str(cap))]) == 0
            bodies.append((tmp_path / str(cap) / "series.csv").read_text().split("\n", 1)[1])
        assert bodies[0] == bodies[1]


class TestOverrideFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["preset", "lemma3_n1", "--nodes", "0"],
            ["preset", "mc_vs_exact", "--trials", "0"],
            ["preset", "lemma3_n1", "--threads", "-2"],
            ["preset", "lemma3_n1", "--threads", "0"],
            ["preset", "mc_vs_exact", "--seed", "-1"],
            ["preset", "mc_vs_exact", "--seed", str(2**64)],
            ["--preset", "lemma3_n1", "--nodes", "0"],
        ],
    )
    def test_out_of_range_override_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["preset", "thm_rate_k2", "--trials", "7", "--seed", "3"],
            ["preset", "thm_erasure_to_one", "--nodes", "5"],
            ["preset", "thm_erasure_to_one", "--trials", "7"],
            ["preset", "thm_erasure_to_one", "--seed", "3"],
            ["--preset", "lemma3_n1", "--seed", "3"],
        ],
    )
    def test_override_the_preset_does_not_declare_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert "setting to override" in capsys.readouterr().err
        assert not out.exists()

    def test_martingale_beyond_its_enumeration_bound_is_refused(self, tmp_path, capsys):
        assert main(["preset", "lemma1_martingale", "--nodes", "20", "--out", str(tmp_path / "p")]) == 1
        assert "k_max must lie in [1, 14]" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()
        cfg = _write_config(
            tmp_path / "c.json", task="martingale", channel={"kind": "flip", "q": 0.25}, memory={"family": "full"}
        )
        assert main(["exact", "--config", str(cfg), "--nodes", "20", "--out", str(tmp_path / "c")]) == 2
        assert "at most 14 stages, got 20" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_martingale_config_without_stages_is_refused(self, tmp_path, capsys):
        """run.stages defaults to 1000; --nodes can bring it within the bound."""
        cfg = _write_config(
            tmp_path / "c.json", task="martingale", channel={"kind": "flip", "q": 0.25}, memory={"family": "full"}, run={}
        )
        out = tmp_path / "c"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "at most 14 stages, got 1000" in capsys.readouterr().err
        assert not out.exists()
        assert main(["run", "--config", str(cfg), "--nodes", "14", "--out", str(out)]) == 0
        assert len(read_series_csv(out / "series.csv")[0]["k"]) == 14

    def test_config_run_validates_overrides_too(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert main(["exact", "--config", str(cfg), "--nodes", "0", "--out", str(out)]) == 2
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--preset", "lemma3_n1", "preset", "lemma3_n2"],
            ["preset", "lemma3_n1", "--preset", "lemma3_n2"],
            ["--config", "c.json", "simulate", "--config", "c.json"],
            ["simulate", "--config", "c.json", "--list"],
            ["--list", "list"],
        ],
    )
    def test_flag_form_mixed_with_a_subcommand(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--out", "OUT", "preset", "lemma3_n1"],
            ["--nodes", "20000", "preset", "lemma3_n1"],
            ["--threads", "2", "list"],
            ["--seed", "3", "simulate", "--config", "c.json"],
        ],
    )
    def test_override_flags_before_a_subcommand(self, tmp_path, argv):
        out = tmp_path / "o"
        assert main([str(out) if a == "OUT" else a for a in argv]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag_form, twin",
        [
            (["--list"], ["list"]),
            (["--nodes", "20000", "--preset", "lemma3_n1"], ["preset", "lemma3_n1", "--nodes", "20000"]),
            (["--preset=lemma3_n1", "--nodes=20000"], ["preset", "lemma3_n1", "--nodes=20000"]),
            (["--config", "c.json", "--seed", "3"], ["run", "--config", "c.json", "--seed", "3"]),
        ],
    )
    def test_flag_form_parses_as_its_subcommand_twin(self, flag_form, twin):
        parser = _parser()
        assert parser.parse_args(_subcommand_argv(parser, flag_form)) == parser.parse_args(twin)

    def test_console_module(self):
        """The child imports the package this process imported, installed or not."""
        path = [str(Path(noisycast.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "noisycast.cli", "list"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert "thm_rate_k2" in proc.stdout
