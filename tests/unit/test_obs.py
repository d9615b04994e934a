"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs.explain import OperatorNode
from repro.obs.metrics import METRICS, MetricsRegistry, enabled_metrics
from repro.obs.trace import (NULL_TRACER, TRACE_VERSION, Tracer,
                             validate_trace)


class TestMetricsRegistry:
    def test_disabled_by_default(self):
        assert METRICS.enabled is False

    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 2.5)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a"] == 5
        assert snapshot["gauges"]["g"] == 2.5
        histogram = snapshot["histograms"]["h"]
        assert histogram["count"] == 2
        assert histogram["sum"] == 4.0
        assert histogram["min"] == 1.0
        assert histogram["max"] == 3.0
        assert histogram["avg"] == 2.0

    def test_hit_ratio_derived(self):
        registry = MetricsRegistry()
        registry.inc("querycache.hits", 3)
        registry.inc("querycache.misses", 1)
        assert registry.snapshot()["derived"]["querycache.hit_ratio"] \
            == 0.75

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_enabled_metrics_restores_state(self):
        registry = MetricsRegistry()
        with enabled_metrics(registry) as active:
            assert active.enabled is True
            active.inc("x")
        assert registry.enabled is False
        assert registry.counter("x") == 1
        registry.enable()
        with enabled_metrics(registry, fresh=True):
            assert registry.counter("x") == 0
        assert registry.enabled is True  # was enabled before the block

    def test_render_is_line_per_metric(self):
        registry = MetricsRegistry()
        registry.inc("index.probes", 2)
        registry.observe("query.seconds", 0.5)
        rendered = registry.render()
        assert "index.probes 2" in rendered
        assert "query.seconds count=1" in rendered


class TestTracer:
    def test_nested_spans(self):
        tracer = Tracer("q", "xquery")
        with tracer.span("plan") as plan:
            with tracer.span("index-scan", index="i") as scan:
                scan.set(actual_rows=3)
            plan.set(probes=1)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "plan"
        assert root.attrs["probes"] == 1
        assert root.children[0].attrs == {"index": "i", "actual_rows": 3}
        assert root.duration >= root.children[0].duration

    def test_exception_attaches_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert "nope" in tracer.roots[0].attrs["error"]
        # The stack unwound: new spans are roots again.
        with tracer.span("after"):
            pass
        assert [span.name for span in tracer.roots] == ["boom", "after"]

    def test_to_dict_validates_and_roundtrips_json(self):
        tracer = Tracer("stmt", "sql")
        with tracer.span("parse", kind="SelectStmt"):
            pass
        payload = json.loads(tracer.to_json())
        assert payload["trace_version"] == TRACE_VERSION
        assert payload["language"] == "sql"
        assert validate_trace(payload) == []

    def test_validate_trace_rejects_bad_payloads(self):
        assert validate_trace([]) != []
        assert validate_trace({}) != []
        good = Tracer("s", "xquery")
        with good.span("a"):
            pass
        payload = good.to_dict()
        payload["spans"][0]["attrs"] = {"bad": ["not", "scalar"]}
        assert any("non-scalar" in problem
                   for problem in validate_trace(payload))
        payload = good.to_dict()
        payload["language"] = "prolog"
        assert any("language" in problem
                   for problem in validate_trace(payload))


class TestNullTracer:
    def test_one_shared_falsy_span(self):
        with NULL_TRACER.span("plan", candidates=3) as outer:
            with NULL_TRACER.span("index-scan") as inner:
                assert inner is outer
        assert not outer and not NULL_TRACER
        assert (None or NULL_TRACER) is NULL_TRACER
        assert bool(Tracer()) is True

    def test_set_records_nothing_and_chains(self):
        with NULL_TRACER.span("plan") as span:
            assert span.set(actual_rows=7) is span
        assert not hasattr(span, "attrs")

    def test_exceptions_propagate(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("boom"):
                raise KeyError("nope")


class TestOperatorNode:
    def test_from_span_lifts_cardinality_attrs(self):
        tracer = Tracer()
        with tracer.span("index-scan", index="i") as span:
            span.set(actual_rows=10, estimated_rows=5, unit="documents")
        node = OperatorNode.from_span(tracer.roots[0])
        assert node.actual_rows == 10
        assert node.estimated_rows == 5
        assert node.unit == "documents"
        assert node.attrs == {"index": "i"}
        assert node.q_error() == 2.0

    def test_q_error_none_when_unknown(self):
        node = OperatorNode(name="x", time_ms=1.0, actual_rows=4)
        assert node.q_error() is None

    def test_q_error_zero_actual(self):
        node = OperatorNode(name="x", time_ms=1.0, actual_rows=0,
                            estimated_rows=2)
        assert node.q_error() > 1.0

    def test_find_descends(self):
        child = OperatorNode(name="scan", time_ms=0.1)
        root = OperatorNode(name="root", time_ms=1.0, children=[child])
        assert root.find("scan") == [child]
        assert root.find("root") == [root]

    def test_render_contains_estimates(self):
        node = OperatorNode(name="scan", time_ms=0.5, actual_rows=2,
                            estimated_rows=4, unit="documents")
        rendered = node.render()
        assert "est documents=4" in rendered
        assert "actual documents=2" in rendered
        assert "err=2.00x" in rendered


class TestDisabledCost:
    def test_instrumented_paths_record_nothing_when_disabled(self):
        from repro.storage.btree import BPlusTree
        registry_snapshot = METRICS.snapshot()
        tree = BPlusTree(order=4)
        for key in range(50):
            tree.insert(key, key)
        tree.get(25)
        list(tree.scan(10, 20))
        assert METRICS.snapshot() == registry_snapshot

    def test_btree_metrics_when_enabled(self):
        from repro.storage.btree import BPlusTree
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        with enabled_metrics() as metrics:
            tree.get(42)
            list(tree.scan(10, 60))
            snapshot = metrics.snapshot()
        assert snapshot["counters"]["btree.node_visits"] >= 2
        assert snapshot["counters"]["btree.leaf_scans"] >= 1
