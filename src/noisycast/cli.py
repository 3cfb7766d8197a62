"""Command-line front end.

Two entry styles share one implementation: bare flags
(``--preset NAME | --config FILE | --list``) and subcommands
(``list / preset / simulate / exact / recursion / fit``).  Exit codes:
0 run completed and every check passed, 1 a check failed or the run
errored, 2 usage or config problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    fit_power,
    fit_power_of_log,
    fit_reciprocal_log,
    series_from_csv,
    write_series_csv,
)
from .belief_model import BeliefModel
from .channels import Channel, ErasureSchedule, FlipSchedule
from .exact_dp import exact_error_series, martingale_check
from .montecarlo import ExperimentConfig, estimate_error_series, herding_stats
from .presets import Overrides, PRESET_INFO, UnknownPresetError, list_presets, run_preset
from .recursions import iterate_recursion, rate_recursion, type1_lower_bound
from .topology import MemorySchedule


class ConfigError(ValueError):
    pass


_TASKS = ("simulate", "exact", "recursion", "martingale", "herding")
_SUBCOMMANDS = ("list", "preset", "simulate", "exact", "recursion", "fit")


@dataclass(frozen=True)
class RunSettings:
    stages: int = 1000
    trials: int = 10_000
    seed: int = 0
    calibration_trials: int = 2000
    k0_fraction: float = 0.5


@dataclass(frozen=True)
class RecursionSettings:
    initial: float = 0.5
    coefficient: str = "beta_plus_one"
    k_min: int = 1000


@dataclass
class ParsedConfig:
    task: str
    model: BeliefModel
    channel: Channel
    memory: MemorySchedule | None
    run: RunSettings
    recursion: RecursionSettings
    warnings: list[str]
    doc: dict

    @property
    def digest(self) -> str:
        """Hash of the JSON document, run overrides included."""
        blob = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def experiment(self) -> ExperimentConfig:
        if self.memory is None:
            raise ConfigError("this task needs a 'memory' section")
        try:
            return ExperimentConfig(
                self.model,
                self.channel,
                self.memory,
                stages=self.run.stages,
                trials=self.run.trials,
                seed=self.run.seed,
                calibration_trials=self.run.calibration_trials,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _require_keys(section: str, doc: dict, allowed: set[str]) -> None:
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(extra))}")


def _build_channel(doc: dict) -> Channel:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("'channel' must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "flip":
        _require_keys("channel", doc, {"kind", "family", "q", "p", "scale"})
        return FlipSchedule(
            doc.get("family", "constant"),
            q=doc.get("q"),
            p=doc.get("p"),
            scale=doc.get("scale", 1.0),
        )
    if kind == "erasure":
        _require_keys("channel", doc, {"kind", "family", "level", "c", "eps", "level_one"})
        return ErasureSchedule(
            doc.get("family", "constant"),
            level=doc.get("level"),
            c=doc.get("c"),
            eps=doc.get("eps"),
            level_one=doc.get("level_one"),
        )
    raise ConfigError(f"channel.kind must be 'flip' or 'erasure', got {kind!r}")


def _build_memory(doc: dict | None) -> MemorySchedule | None:
    if doc is None:
        return None
    if not isinstance(doc, dict) or "family" not in doc:
        raise ConfigError("'memory' must be an object with a 'family' key")
    _require_keys("memory", doc, {"family", "capacity", "sigma"})
    return MemorySchedule(doc["family"], capacity=doc.get("capacity"), sigma=doc.get("sigma"))


def parse_config(path, default_task: str | None = None) -> ParsedConfig:
    """Load and validate a JSON experiment description."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be an object")
    _require_keys("config", doc, {"schema", "task", "beta", "prior_1", "channel", "memory", "run", "recursion"})
    if doc.get("schema") != 1:
        raise ConfigError(f"{p}: 'schema' must be 1, got {doc.get('schema')!r}")

    task = doc.get("task", default_task)
    if task is None:
        raise ConfigError(f"{p}: 'task' is required (one of {', '.join(_TASKS)})")
    if task not in _TASKS:
        raise ConfigError(f"{p}: unknown task {task!r} (one of {', '.join(_TASKS)})")
    if default_task is not None and doc.get("task") not in (None, default_task):
        ok = {"simulate": {"simulate", "herding"}, "exact": {"exact", "martingale"}}.get(default_task, {default_task})
        if doc["task"] not in ok:
            raise ConfigError(f"{p}: task {doc['task']!r} does not match the {default_task!r} subcommand")
        task = doc["task"]

    try:
        model = BeliefModel(beta=float(doc.get("beta", 0.0)), prior_1=float(doc.get("prior_1", 0.5)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{p}: bad model parameters: {exc}") from exc

    if "channel" not in doc:
        raise ConfigError(f"{p}: 'channel' is required")
    captured: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            channel = _build_channel(doc["channel"])
            memory = _build_memory(doc.get("memory"))
        captured = [str(w.message) for w in rec]
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{p}: {exc}") from exc

    run_doc = doc.get("run", {})
    _require_keys("run", run_doc, {"stages", "trials", "seed", "calibration_trials", "k0_fraction"})
    rec_doc = doc.get("recursion", {})
    _require_keys("recursion", rec_doc, {"initial", "coefficient", "k_min"})
    try:
        run = RunSettings(**run_doc)
        run = replace(
            run,
            stages=int(run.stages),
            trials=int(run.trials),
            seed=int(run.seed),
            calibration_trials=int(run.calibration_trials),
            k0_fraction=float(run.k0_fraction),
        )
        recursion = RecursionSettings(**rec_doc)
        recursion = replace(recursion, initial=float(recursion.initial), k_min=int(recursion.k_min))
    except TypeError as exc:
        raise ConfigError(f"{p}: {exc}") from exc
    if run.stages < 1:
        raise ConfigError(f"{p}: run.stages must be >= 1")

    flip = isinstance(channel, FlipSchedule)
    if task == "martingale":
        if not flip:
            raise ConfigError(f"{p}: task 'martingale' needs channel.kind == 'flip' (full-memory flip only)")
        if memory is not None and memory.family != "full":
            raise ConfigError(f"{p}: task 'martingale' needs memory.family == 'full', got {memory.family!r}")
    if task == "exact" and (memory is None or memory.family != "bounded"):
        raise ConfigError(f"{p}: task 'exact' needs memory.family == 'bounded'")
    if task == "recursion" and not flip:
        raise ConfigError(f"{p}: task 'recursion' needs channel.kind == 'flip'")
    if task in ("simulate", "herding") and memory is None:
        raise ConfigError(f"{p}: task {task!r} needs a 'memory' section")

    return ParsedConfig(task, model, channel, memory, run, recursion, captured, doc)


# ---------------------------------------------------------------------------
# task runners


def _apply_run_overrides(cfg: ParsedConfig, ns) -> ParsedConfig:
    """Apply --seed, --trials and --nodes to the run settings and to the
    document's run section, so the config hash names the config that ran."""
    kw = {}
    if getattr(ns, "seed", None) is not None:
        kw["seed"] = ns.seed
    if getattr(ns, "trials", None) is not None:
        kw["trials"] = ns.trials
    if getattr(ns, "nodes", None) is not None:
        kw["stages"] = ns.nodes
    if kw:
        cfg.run = replace(cfg.run, **kw)
        cfg.doc = dict(cfg.doc, run={**cfg.doc.get("run", {}), **kw})
    return cfg


def _meta(cfg: ParsedConfig) -> dict:
    return {"config_hash": cfg.digest, "seed": cfg.run.seed, "producer": cfg.task}


def _task_simulate(cfg: ParsedConfig, out: Path, threads: int) -> list[str]:
    series = estimate_error_series(cfg.experiment(), threads=threads)
    meta = dict(_meta(cfg), clamp_events=series.meta["clamp_events"])
    write_series_csv(
        out / "series.csv",
        {
            "k": series.stages,
            "pe_hat": series.values,
            "ci_low": series.extra["ci_low"],
            "ci_high": series.extra["ci_high"],
            "p0_type1_hat": series.extra["p0_type1_hat"],
            "p1_type2_hat": series.extra["p1_type2_hat"],
        },
        meta,
    )
    return ["series.csv"]


def _task_herding(cfg: ParsedConfig, out: Path, threads: int) -> list[str]:
    rep = herding_stats(cfg.experiment(), k0_fraction=cfg.run.k0_fraction, threads=threads)
    n = len(rep.rows)
    write_series_csv(
        out / "series.csv",
        {
            "hypothesis": np.arange(n),
            "late_error_fraction": np.asarray([r.late_error_fraction for r in rep.rows]),
            "q50": np.asarray([r.q50 for r in rep.rows]),
            "q90": np.asarray([r.q90 for r in rep.rows]),
            "q99": np.asarray([r.q99 for r in rep.rows]),
            "K": np.full(n, rep.stages),
            "N": np.full(n, rep.trials),
            "seed": np.full(n, rep.seed),
        },
        _meta(cfg),
    )
    return ["series.csv"]


def _task_exact(cfg: ParsedConfig, out: Path) -> list[str]:
    series = exact_error_series(cfg.model, cfg.channel, cfg.memory, cfg.run.stages)
    write_series_csv(
        out / "series.csv",
        {
            "k": series.stages,
            "pe_exact": series.values,
            "p0_type1": series.extra["p0_type1"],
            "p1_type2": series.extra["p1_type2"],
        },
        _meta(cfg),
    )
    return ["series.csv"]


def _task_martingale(cfg: ParsedConfig, out: Path) -> list[str]:
    k_max = min(cfg.run.stages, 14)
    rep = martingale_check(cfg.channel, cfg.model, k_max)
    write_series_csv(
        out / "series.csv",
        {
            "k": np.arange(1, k_max + 1),
            "max_deviation": rep.stage_deviations,
            "tail_mass": rep.tail_mass,
        },
        _meta(cfg),
    )
    return ["series.csv"]


def _task_recursion(cfg: ParsedConfig, out: Path) -> list[str]:
    spec = rate_recursion(cfg.model, cfg.channel, cfg.recursion.initial, cfg.recursion.coefficient)
    series = iterate_recursion(spec, cfg.run.stages)
    bound = type1_lower_bound(series, cfg.model)
    write_series_csv(
        out / "series.csv",
        {"k": series.stages, "b_k": series.values, "type1_bound": bound.values},
        _meta(cfg),
    )
    return ["series.csv"]


def _run_config(cfg: ParsedConfig, out: Path, threads: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for note in cfg.warnings:
        print(f"note: {note}", file=sys.stderr)
    if cfg.task == "simulate":
        files = _task_simulate(cfg, out, threads)
    elif cfg.task == "herding":
        files = _task_herding(cfg, out, threads)
    elif cfg.task == "exact":
        files = _task_exact(cfg, out)
    elif cfg.task == "martingale":
        files = _task_martingale(cfg, out)
    else:
        files = _task_recursion(cfg, out)
    for name in files:
        print(f"wrote {out / name}")
    return 0


def _run_named_preset(name: str, out_dir: Path | None, ns) -> int:
    out = out_dir if out_dir is not None else Path("runs") / name
    ov = Overrides(
        seed=getattr(ns, "seed", None),
        trials=getattr(ns, "trials", None),
        stages=getattr(ns, "nodes", None),
        threads=getattr(ns, "threads", 1) or 1,
    )
    verdict = run_preset(name, out, ov)
    for chk in verdict["checks"]:
        tag = "info" if chk["informational"] else ("PASS" if chk["passed"] else "FAIL")
        print(f"  [{tag}] {chk['name']}: {chk['value']} (target {chk['comparator']} {chk['target']})")
    status = "PASS" if verdict["passed"] else "FAIL"
    print(f"preset {name}: {status} ({verdict['runtime_seconds']}s, files: {', '.join(verdict['files'])})")
    return 0 if verdict["passed"] else 1


def _print_preset_list() -> int:
    for name in list_presets():
        print(f"{name:22s} {PRESET_INFO[name]}")
    return 0


def _run_fit(ns) -> int:
    series = series_from_csv(ns.series, column=ns.column)
    if ns.reciprocal:
        from .analysis import SeriesResult

        series = SeriesResult(series.stages, 1.0 / series.values)
    k_min = ns.k_min
    if ns.kind == "power":
        fit = fit_power(series, k_min=k_min or 1)
        coeff = math.exp(fit.intercept)
    elif ns.kind == "reciprocal_log":
        fit = fit_reciprocal_log(series, ns.transform, k_min=k_min or 2, q=ns.log_exponent)
        coeff = fit.slope
    else:
        fit = fit_power_of_log(series, k_min=k_min or 3)
        coeff = math.exp(fit.intercept)
    verdicts = []
    if ns.target_slope is not None:
        tol = ns.slope_tol if ns.slope_tol is not None else 0.05
        verdicts.append(
            {
                "name": "slope_within_tolerance",
                "value": fit.slope,
                "target": ns.target_slope,
                "tolerance": tol,
                "passed": abs(fit.slope - ns.target_slope) <= tol,
            }
        )
    report = {
        "kind": fit.kind,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "coeff": coeff,
        "r2": fit.r2,
        "n_points": fit.n_points,
        "window": list(fit.window),
        "verdicts": verdicts,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all(v["passed"] for v in verdicts) else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument("--nodes", type=int, default=None, help="override the number of stages")
    p.add_argument("--threads", type=int, default=1, help="Monte Carlo worker threads")


def _flag_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="noisycast", description=__doc__)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true", help="list the preset registry")
    g.add_argument("--preset", metavar="NAME", help="run a named preset")
    g.add_argument("--config", metavar="FILE", type=Path, help="run a JSON config file")
    _add_override_flags(p)
    return p


def _subcommand_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="noisycast")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the preset registry")

    sp = sub.add_parser("preset", help="run a named preset")
    sp.add_argument("name")
    _add_override_flags(sp)

    for cmd, blurb in (
        ("simulate", "Monte Carlo error series from a config file"),
        ("exact", "exact window-recursion error series from a config file"),
        ("recursion", "deterministic rate recursion from a config file"),
    ):
        sp = sub.add_parser(cmd, help=blurb)
        sp.add_argument("--config", type=Path, required=True)
        _add_override_flags(sp)

    sp = sub.add_parser("fit", help="fit a rate law to a series CSV")
    sp.add_argument("--series", type=Path, required=True, help="CSV written by another subcommand")
    sp.add_argument("--kind", choices=("power", "reciprocal_log", "power_of_log"), default="power")
    sp.add_argument("--column", default=None, help="value column (default: second column)")
    sp.add_argument("--k-min", dest="k_min", type=int, default=None)
    sp.add_argument("--transform", choices=("log", "log_pow", "loglog"), default="log")
    sp.add_argument("--log-exponent", dest="log_exponent", type=float, default=None)
    sp.add_argument("--reciprocal", action="store_true", help="fit 1/value instead of the value")
    sp.add_argument("--target-slope", dest="target_slope", type=float, default=None)
    sp.add_argument("--slope-tol", dest="slope_tol", type=float, default=None)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            ns = _subcommand_parser().parse_args(argv)
            if ns.command == "list":
                return _print_preset_list()
            if ns.command == "preset":
                return _run_named_preset(ns.name, ns.out, ns)
            if ns.command == "fit":
                return _run_fit(ns)
            cfg = _apply_run_overrides(parse_config(ns.config, default_task=ns.command), ns)
            out = ns.out if ns.out is not None else Path("runs") / cfg.task
            return _run_config(cfg, out, ns.threads or 1)

        ns = _flag_parser().parse_args(argv)
        if ns.list:
            return _print_preset_list()
        if ns.preset is not None:
            return _run_named_preset(ns.preset, ns.out, ns)
        cfg = _apply_run_overrides(parse_config(ns.config), ns)
        out = ns.out if ns.out is not None else Path("runs") / cfg.task
        return _run_config(cfg, out, ns.threads or 1)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    except UnknownPresetError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
