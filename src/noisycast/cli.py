"""Command-line front end.

One parser of subcommands: list, preset, run, simulate, exact, recursion
and fit.  The flag form (one of --list, --preset NAME and --config FILE,
among the override flags) is read as its subcommand twin: list,
preset NAME, run --config FILE.  A config file is parsed and checked here,
then runs as presets.config_preset's unnamed preset through run_preset,
which writes its series.csv and verdict.json.  Exit codes: 0 run completed
and every check passed, 1 a check failed or the run errored, 2 usage or
config problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from .analysis import SeriesResult, fit_power, fit_power_of_log, fit_reciprocal_log, series_from_csv, store_floats
from .belief_model import BeliefModel
from .channels import Channel, ErasureSchedule, FlipSchedule
from .exact_dp import MAX_MARTINGALE_DEPTH
from .montecarlo import ExperimentConfig
from .presets import PRESET_INFO, Overrides, Preset, PresetError, config_preset, list_presets, run_preset
from .recursions import rate_recursion
from .topology import MemorySchedule

_TASKS = ("simulate", "exact", "recursion", "martingale", "herding")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RecursionSettings:
    initial: float = 0.5
    coefficient: str = "beta_plus_one"

    def __post_init__(self) -> None:
        store_floats(self, "initial", optional=False)
        if self.coefficient not in ("beta_plus_one", "beta"):  # the denominators rate_recursion takes
            raise ValueError(f"coefficient must be beta_plus_one or beta, got {self.coefficient!r}")


@dataclass
class ParsedConfig:
    task: str
    model: BeliefModel
    channel: Channel
    memory: MemorySchedule | None
    run: Overrides
    k0_fraction: float
    recursion: RecursionSettings
    warnings: list[str]

    def __post_init__(self) -> None:
        store_floats(self, "k0_fraction", optional=False)  # parse_config checks its range for herding


def _require_keys(section: str, doc: dict, allowed: set[str]) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"'{section}' must be an object")
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(extra))}")


def _build_schedule(section: str, params: dict, schedule):
    """schedule(**params), each key a field of the schedule type."""
    _require_keys(section, params, {f.name for f in fields(schedule)})
    return schedule(**params)


def _build_channel(doc: dict) -> Channel:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("'channel' must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind not in ("flip", "erasure"):
        raise ConfigError(f"channel.kind must be 'flip' or 'erasure', got {kind!r}")
    params = {"family": "constant", **{key: value for key, value in doc.items() if key != "kind"}}
    return _build_schedule("channel", params, FlipSchedule if kind == "flip" else ErasureSchedule)


def _build_memory(doc: dict | None) -> MemorySchedule | None:
    if doc is None:
        return None
    if not isinstance(doc, dict) or "family" not in doc:
        raise ConfigError("'memory' must be an object with a 'family' key")
    return _build_schedule("memory", doc, MemorySchedule)


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
        model = BeliefModel(beta=doc.get("beta", 0.0), prior_1=doc.get("prior_1", 0.5))
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
    _require_keys("run", run_doc, {"stages", "trials", "seed", "k0_fraction"})
    rec_doc = doc.get("recursion", {})
    _require_keys("recursion", rec_doc, {"initial", "coefficient"})
    try:
        counts = {"stages": 1000, "trials": 10_000, "seed": 0, **run_doc}
        k0_fraction = counts.pop("k0_fraction", 0.5)
        parsed = ParsedConfig(task, model, channel, memory, Overrides(**counts), k0_fraction,
                              RecursionSettings(**rec_doc), captured)
        if task == "recursion":  # its own refusals: a non-integer beta, an initial outside (0, 1)
            rate_recursion(model, channel, parsed.recursion.initial, parsed.recursion.coefficient)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{p}: {exc}") from exc

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
    if task == "herding" and not 0.0 < parsed.k0_fraction < 1.0:
        raise ConfigError(f"{p}: k0_fraction must lie in (0, 1), got {parsed.k0_fraction!r}")
    if task in ("simulate", "herding", "exact"):
        if memory is None:
            raise ConfigError(f"{p}: task {task!r} needs a 'memory' section")
        try:  # the engines' own refusals, e.g. a flip channel over power memory or a window past MAX_CAPACITY
            ExperimentConfig(model, channel, memory, stages=parsed.run.stages, trials=parsed.run.trials,
                             seed=parsed.run.seed)
        except ValueError as exc:
            raise ConfigError(f"{p}: {exc}") from exc

    return parsed


# ---------------------------------------------------------------------------
# runs


def _check_depth(cfg: ParsedConfig, ov: Overrides) -> None:
    """Refuse a martingale config whose stages, after --nodes, pass the
    bound that martingale_check enumerates."""
    stages = cfg.run.stages if ov.stages is None else ov.stages
    if cfg.task == "martingale" and stages > MAX_MARTINGALE_DEPTH:
        raise ConfigError(f"task 'martingale' enumerates at most {MAX_MARTINGALE_DEPTH} stages, got {stages}")


def _run(preset: str | Preset, label: str, out: Path, ov: Overrides) -> int:
    verdict = run_preset(preset, out, ov)
    for chk in verdict["checks"]:
        tag = "info" if chk["informational"] else ("PASS" if chk["passed"] else "FAIL")
        print(f"  [{tag}] {chk['name']}: {chk['value']} (target {chk['comparator']} {chk['target']})")
    status = "PASS" if verdict["passed"] else "FAIL"
    print(f"{label}: {status} ({verdict['runtime_seconds']}s, files: {', '.join(verdict['files'])} in {out})")
    return 0 if verdict["passed"] else 1


def _print_preset_list() -> int:
    for name in list_presets():
        print(f"{name:22s} {PRESET_INFO[name]}")
    return 0


def _run_fit(ns) -> int:
    series = series_from_csv(ns.series, column=ns.column)
    if ns.reciprocal:
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


def _overrides(parser: argparse.ArgumentParser, ns) -> Overrides:
    """The override flags, validated once for presets and config runs alike."""
    try:
        return Overrides(seed=ns.seed, trials=ns.trials, stages=ns.nodes, threads=ns.threads)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2, as for any other usage error


_FLAG_FORMS = {"--list": "list", "--preset": "preset", "--config": "run"}


def _subcommand_argv(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with its flag form read as the subcommand twin: --list becomes
    list, --preset NAME becomes preset NAME and --config FILE becomes
    run --config FILE.  Every other argument stays where it was."""
    head = argv[0] if argv else "-"
    if not head.startswith("-") or head in ("-h", "--help"):
        return argv
    at = [i for i, arg in enumerate(argv) if arg.partition("=")[0] in _FLAG_FORMS]
    if len(at) != 1:
        parser.error("give a subcommand, or one of --list, --preset NAME and --config FILE")
    i = at[0]
    flag, _, value = argv[i].partition("=")
    command = _FLAG_FORMS[flag]
    # the run subcommand takes --config itself; NAME may follow --preset or be joined by '='
    form = argv[i:i + 1] if command == "run" else [value] if value else []
    return [command, *argv[:i], *form, *argv[i + 1:]]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="noisycast", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the preset registry")

    sp = sub.add_parser("preset", help="run a named preset")
    sp.add_argument("name")
    _add_override_flags(sp)

    for cmd, blurb in (
        ("run", "any task from a config file"),
        ("simulate", "Monte Carlo error series from a config file"),
        ("exact", "exact window-recursion error series from a config file"),
        ("recursion", "deterministic rate recursion from a config file"),
    ):
        sp = sub.add_parser(cmd, help=blurb)
        sp.add_argument("--config", type=Path, required=True)
        _add_override_flags(sp)
        sp.set_defaults(task=None if cmd == "run" else cmd)

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
    parser = _parser()
    try:
        ns = parser.parse_args(_subcommand_argv(parser, argv))
        if ns.command == "list":
            return _print_preset_list()
        if ns.command == "fit":
            return _run_fit(ns)
        ov = _overrides(parser, ns)
        if ns.command == "preset":
            return _run(ns.name, f"preset {ns.name}", ns.out or Path("runs") / ns.name, ov)
        cfg = parse_config(ns.config, default_task=ns.task)
        _check_depth(cfg, ov)
        for note in cfg.warnings:
            print(f"note: {note}", file=sys.stderr)
        return _run(config_preset(cfg), f"{cfg.task} config", ns.out or Path("runs") / cfg.task, ov)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    except PresetError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
