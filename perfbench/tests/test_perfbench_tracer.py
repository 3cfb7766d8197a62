"""Span arithmetic and wrapper bookkeeping of the benchmark tracer."""

import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

import tracer
from tracer import Span, covered_ns, layer_metrics, self_ns


def span(sid, name, start, end, parent=0, units=1):
    return Span(sid, name, start, end, parent, 0, 1, units)


def test_covered_ns_merges_overlaps_and_clips_to_the_parent():
    assert covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
    assert covered_ns(0, 100, [(10, 50), (20, 30)]) == 40
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(50, 60, [(0, 10), (70, 80)]) == 0


def test_self_time_subtracts_children_covered_once():
    parent = span(1, "p", 0, 100)
    children = [span(2, "c", 10, 30, 1), span(3, "c", 20, 40, 1), span(4, "c", 90, 120, 1)]
    assert self_ns(parent, children) == 60


def test_layer_metrics_self_time_per_element_excludes_cdf():
    spans = [
        span(1, "strategy.update_public_belief", 0, 1000, units=10),
        span(2, "belief_model.cdf", 100, 400, parent=1, units=10),
        span(3, "belief_model.cdf", 500, 700, parent=1, units=10),
        span(4, "strategy.update_public_belief", 2000, 2600, units=10),
    ]
    m, not_measured = layer_metrics(spans, {"strategy.update_public_belief", "belief_model.cdf"})
    assert m["strategy.update_public_belief.calls"] == 2
    assert m["strategy.update_public_belief.elems_per_call"] == 10
    assert m["strategy.update_public_belief.self_ns_per_elem"] == (500 + 600) / 20
    assert m["belief_model.cdf.ns_per_eval"] == 500 / 20
    assert m["belief_model.sample.calls"] == 0
    assert "belief_model.sample.calls" in not_measured
    assert "belief_model.cdf.evals" not in not_measured


def test_kernel_self_time_subtracts_the_union_of_pool_thread_children():
    spans = [
        span(1, "montecarlo.estimate_error_series", 0, 1000, units=100),
        span(2, "belief_model.sample", 100, 600, parent=1),
        span(3, "belief_model.sample", 300, 800, parent=1),
    ]
    m, _ = layer_metrics(spans, {"montecarlo.estimate_error_series", "belief_model.sample"})
    assert m["montecarlo.kernel_self.ns_per_trial_stage"] == (1000 - 700) / 100
    assert m["montecarlo.trial_stages"] == 100


def test_install_and_restore_put_back_every_original_attribute():
    import importlib

    modules = {mod: importlib.import_module(f"noisycast.{mod}") for mod, *_ in tracer.WRAPS}
    originals = {(mod, attr): getattr(modules[mod], attr) for mod, attr, *_ in tracer.WRAPS}
    tr = tracer.Tracer()
    tr.install()
    try:
        for (mod, attr), original in originals.items():
            assert getattr(modules[mod], attr) is not original
        assert not tr.missing
    finally:
        tr.restore()
    for (mod, attr), original in originals.items():
        assert getattr(modules[mod], attr) is original


def test_missing_attribute_is_skipped_and_reported():
    module = SimpleNamespace(__name__="fake")
    tr = tracer.Tracer()
    tr.wrap(module, "gone", "belief_model.sample", tracer._one)
    assert tr.missing == ["fake.gone"]
    _, not_measured = layer_metrics([], tr.installed)
    assert "belief_model.sample.ns_per_draw" in not_measured


def test_pool_thread_spans_take_the_owner_span_as_parent():
    module = SimpleNamespace(__name__="fake", outer=None, inner=lambda x: x)
    tr = tracer.Tracer()

    def outer():
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(module.inner, range(4)))

    module.outer = outer
    tr.wrap(module, "inner", "inner", tracer._one)
    tr.wrap(module, "outer", "outer", tracer._one)
    try:
        assert module.outer() == [0, 1, 2, 3]
    finally:
        tr.restore()
    (root,) = [s for s in tr.spans if s.name == "outer"]
    inner = [s for s in tr.spans if s.name == "inner"]
    assert len(inner) == 4
    assert all(s.parent == root.id for s in inner)
    assert any(s.thread != threading.get_ident() for s in inner)


def test_a_raising_call_leaves_the_stack_balanced():
    def boom():
        raise RuntimeError("boom")

    module = SimpleNamespace(__name__="fake", boom=boom)
    tr = tracer.Tracer()
    tr.wrap(module, "boom", "boom", tracer._one)
    with pytest.raises(RuntimeError):
        module.boom()
    tr.restore()
    assert tr._owner_stack == []
    assert tr.spans == []
