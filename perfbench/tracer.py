"""Spans at the package's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces module attributes such as
``noisycast.montecarlo.sample`` with timing wrappers, at the module where the
engines look each name up, and ``Tracer.restore`` puts the originals back.
A span records its name, start, end, parent span, iteration id, thread and
a unit count (draws, elements, states, rows, ...).  Spans stay in memory
until the iteration ends.  Each thread keeps its own parent stack; a span
opened on a pool thread with an empty stack takes the innermost open span
of the thread that installed the tracer as its parent, because the Monte
Carlo blocks run on pool threads while their entry call waits.

A name that a later version of the package no longer has is skipped; the
metrics fed only by it are reported as not measured.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from noisycast import ErasureSchedule


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 for a root span
    iteration: int
    thread: int
    units: int


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _one(args, kwargs, result):
    return 1


def _size_of(index, name):
    return lambda args, kwargs, result: int(np.size(_arg(args, kwargs, index, name)))


def _int_arg(index, name):
    return lambda args, kwargs, result: int(_arg(args, kwargs, index, name))


def _draws(args, kwargs, result):
    return int(np.size(result))


def _window_states(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "dist").mass0.size)


def _table_bytes(args, kwargs, result):
    if isinstance(result, tuple):
        return sum(int(t.nbytes) for t in result[1])
    return 0


def _trial_stages(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    measured = 2 * config.trials * config.stages
    calibrated = isinstance(config.channel, ErasureSchedule) and config.memory.family != "bounded"
    return measured + (2 * config.calibration_trials * config.stages if calibrated else 0)


def _rows_written(args, kwargs, result):
    columns = _arg(args, kwargs, 1, "columns")
    return len(next(iter(columns.values())))


def _rows_read(args, kwargs, result):
    return int(result.stages.size)


# (module under noisycast, attribute, layer, unit count of one call)
WRAPS = (
    ("montecarlo", "sample", "belief_model.sample", _draws),
    ("strategy", "cdf", "belief_model.cdf", _size_of(2, "r")),
    ("exact_dp", "cdf", "belief_model.cdf", _size_of(2, "r")),
    ("montecarlo", "update_public_belief", "strategy.update_public_belief", _size_of(0, "public_belief")),
    ("montecarlo", "flip_probs", "channels.schedule", _one),
    ("montecarlo", "erasure_levels", "channels.schedule", _one),
    # exact_dp reaches these through channels.flip_prob and the erasure-level helper
    ("channels", "flip_probs", "channels.schedule", _one),
    ("channels", "erasure_levels", "channels.schedule", _one),
    ("recursions", "target_informativeness", "channels.schedule", _one),
    ("montecarlo", "memory_size", "topology.memory_size", _one),
    ("topology", "backward_search_depth", "topology.backward_search_depth", _one),
    ("exact_dp", "evolve_window", "exact_dp.evolve_window", _window_states),
    ("exact_dp", "exact_error_series", "exact_dp.exact_error_series", _table_bytes),
    ("montecarlo", "exact_error_series", "exact_dp.exact_error_series", _table_bytes),
    ("recursions", "iterate_recursion", "recursions.iterate_recursion", _int_arg(1, "stages")),
    ("recursions", "lemma3_sandwich", "recursions.lemma3_sandwich", _int_arg(2, "stages")),
    ("recursions", "lemma4_classify", "recursions.lemma4_classify", _int_arg(1, "stages")),
    ("montecarlo", "estimate_error_series", "montecarlo.estimate_error_series", _trial_stages),
    ("analysis", "write_series_csv", "analysis.write_series_csv", _rows_written),
    ("analysis", "series_from_csv", "analysis.series_from_csv", _rows_read),
)

# Every per-layer metric: (name, unit, layer it is read from).  The last
# three come from whole iterations, not from spans: run.py fills them in.
PER_LAYER = (
    ("belief_model.sample.ns_per_draw", "ns", "belief_model.sample"),
    ("belief_model.sample.draws", "count", "belief_model.sample"),
    ("belief_model.sample.calls", "count", "belief_model.sample"),
    ("belief_model.cdf.ns_per_eval", "ns", "belief_model.cdf"),
    ("belief_model.cdf.evals", "count", "belief_model.cdf"),
    ("strategy.update_public_belief.self_ns_per_elem", "ns", "strategy.update_public_belief"),
    ("strategy.update_public_belief.calls", "count", "strategy.update_public_belief"),
    ("strategy.update_public_belief.elems_per_call", "count", "strategy.update_public_belief"),
    ("channels.schedule.s", "s", "channels.schedule"),
    ("channels.schedule.calls", "count", "channels.schedule"),
    ("topology.memory_size.calls", "count", "topology.memory_size"),
    ("topology.memory_size.ns_per_call", "ns", "topology.memory_size"),
    ("topology.backward_search_depth.calls", "count", "topology.backward_search_depth"),
    ("topology.backward_search_depth.ns_per_k", "ns", "topology.backward_search_depth"),
    ("exact_dp.evolve_window.self_ns_per_state_stage", "ns", "exact_dp.evolve_window"),
    ("exact_dp.state_stages", "count", "exact_dp.evolve_window"),
    ("exact_dp.exact_error_series.s", "s", "exact_dp.exact_error_series"),
    ("exact_dp.exact_error_series.calls", "count", "exact_dp.exact_error_series"),
    ("exact_dp.table_mb", "MB", "exact_dp.exact_error_series"),
    ("recursions.iterate_recursion.ns_per_stage", "ns", "recursions.iterate_recursion"),
    ("recursions.lemma3_sandwich.ns_per_stage", "ns", "recursions.lemma3_sandwich"),
    ("recursions.lemma4_classify.s", "s", "recursions.lemma4_classify"),
    ("recursions.stages_stepped", "count", "recursions.iterate_recursion"),
    ("montecarlo.estimate_error_series.s", "s", "montecarlo.estimate_error_series"),
    ("montecarlo.kernel_self.ns_per_trial_stage", "ns", "montecarlo.estimate_error_series"),
    ("montecarlo.trial_stages", "count", "montecarlo.estimate_error_series"),
    ("analysis.write_series_csv.ns_per_row", "ns", "analysis.write_series_csv"),
    ("analysis.series_from_csv.ns_per_row", "ns", "analysis.series_from_csv"),
    ("analysis.csv_rows", "count", "analysis.write_series_csv"),
    ("montecarlo.calibrate.s", "s", None),
    ("montecarlo.speedup_2t", "x", None),
    ("trace.overhead_s", "s", None),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


class Tracer:
    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, units) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else 0
            # next() on a count and list.append are single atomic steps under the GIL
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                end = time.perf_counter_ns()
            finally:
                stack.pop()
            tracer.spans.append(Span(
                sid, name, start, end, parent, tracer.iteration, threading.get_ident(),
                units(args, kwargs, result),
            ))
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))
        self.installed.add(name)

    def install(self) -> None:
        for module_name, attr, name, units in WRAPS:
            self.wrap(importlib.import_module(f"noisycast.{module_name}"), attr, name, units)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(list(Span._fields)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_ns(span: Span, children) -> int:
    """A span's duration minus the part of it that its child spans cover."""
    return span.end - span.start - covered_ns(span.start, span.end, [(c.start, c.end) for c in children])


def layer_metrics(spans, installed) -> tuple[dict, list[str]]:
    """Per-layer metrics of one iteration, and the names not measured
    because no wrapper of their layer could be installed.  A layer that is
    installed but never called on this workload reads 0."""
    by_layer = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_layer[s.name].append(s)
        children[s.parent].append(s)

    def calls(layer):
        return len(by_layer[layer])

    def units(layer):
        return sum(s.units for s in by_layer[layer])

    def busy_ns(layer):
        return sum(s.end - s.start for s in by_layer[layer])

    def self_total_ns(layer):
        return sum(self_ns(s, children[s.id]) for s in by_layer[layer])

    def per(num, den):
        return num / den if den else 0.0

    stepped = units("recursions.iterate_recursion") + units("recursions.lemma3_sandwich")
    m = {
        "belief_model.sample.ns_per_draw": per(busy_ns("belief_model.sample"), units("belief_model.sample")),
        "belief_model.sample.draws": units("belief_model.sample"),
        "belief_model.sample.calls": calls("belief_model.sample"),
        "belief_model.cdf.ns_per_eval": per(busy_ns("belief_model.cdf"), units("belief_model.cdf")),
        "belief_model.cdf.evals": units("belief_model.cdf"),
        "strategy.update_public_belief.self_ns_per_elem": per(
            self_total_ns("strategy.update_public_belief"), units("strategy.update_public_belief")
        ),
        "strategy.update_public_belief.calls": calls("strategy.update_public_belief"),
        "strategy.update_public_belief.elems_per_call": per(
            units("strategy.update_public_belief"), calls("strategy.update_public_belief")
        ),
        "channels.schedule.s": busy_ns("channels.schedule") / 1e9,
        "channels.schedule.calls": calls("channels.schedule"),
        "topology.memory_size.calls": calls("topology.memory_size"),
        "topology.memory_size.ns_per_call": per(busy_ns("topology.memory_size"), calls("topology.memory_size")),
        "topology.backward_search_depth.calls": calls("topology.backward_search_depth"),
        "topology.backward_search_depth.ns_per_k": per(
            busy_ns("topology.backward_search_depth"), calls("topology.backward_search_depth")
        ),
        "exact_dp.evolve_window.self_ns_per_state_stage": per(
            self_total_ns("exact_dp.evolve_window"), units("exact_dp.evolve_window")
        ),
        "exact_dp.state_stages": units("exact_dp.evolve_window"),
        "exact_dp.exact_error_series.s": busy_ns("exact_dp.exact_error_series") / 1e9,
        "exact_dp.exact_error_series.calls": calls("exact_dp.exact_error_series"),
        "exact_dp.table_mb": units("exact_dp.exact_error_series") / 1e6,
        "recursions.iterate_recursion.ns_per_stage": per(
            busy_ns("recursions.iterate_recursion"), units("recursions.iterate_recursion")
        ),
        "recursions.lemma3_sandwich.ns_per_stage": per(
            busy_ns("recursions.lemma3_sandwich"), units("recursions.lemma3_sandwich")
        ),
        "recursions.lemma4_classify.s": busy_ns("recursions.lemma4_classify") / 1e9,
        "recursions.stages_stepped": stepped,
        "montecarlo.estimate_error_series.s": busy_ns("montecarlo.estimate_error_series") / 1e9,
        "montecarlo.kernel_self.ns_per_trial_stage": per(
            self_total_ns("montecarlo.estimate_error_series"), units("montecarlo.estimate_error_series")
        ),
        "montecarlo.trial_stages": units("montecarlo.estimate_error_series"),
        "analysis.write_series_csv.ns_per_row": per(
            busy_ns("analysis.write_series_csv"), units("analysis.write_series_csv")
        ),
        "analysis.series_from_csv.ns_per_row": per(
            busy_ns("analysis.series_from_csv"), units("analysis.series_from_csv")
        ),
        "analysis.csv_rows": units("analysis.write_series_csv"),
    }
    not_measured = [name for name, _, layer in PER_LAYER if layer is not None and layer not in installed]
    for name in not_measured:
        m[name] = 0
    return m, not_measured


def median_metrics(rows: list[dict]) -> dict:
    """Median of each metric over iterations; counts keep their own value."""
    return {
        name: (statistics.median_low if name in COUNT_METRICS else statistics.median)(row[name] for row in rows)
        for name in rows[0]
    }
