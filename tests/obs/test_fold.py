"""Tests for shard-count-invariant folding of repro.obs exports."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_obs,
    fold_exports,
    strip_metrics,
    to_json,
    validate_export,
)


def make_doc(counters=(), gauges=(), hist=(), meta=None, now_ns=100):
    reg = MetricsRegistry()
    for name, v in counters:
        reg.inc(name, v)
    for name, v in gauges:
        reg.set_gauge(name, v)
    for name, values in hist:
        for v in values:
            reg.observe(name, v)
    return export_obs(reg, meta=meta or {"experiment": "t"}, now_ns=now_ns)


class TestStripMetrics:
    def test_engine_prefixed_metrics_dropped(self):
        doc = make_doc(counters=[("engine.events", 5), ("fleet.failures", 2)])
        out = strip_metrics(doc)
        assert "engine.events" not in out["metrics"]["counters"]
        assert out["metrics"]["counters"]["fleet.failures"] == 2
        # The input document is untouched.
        assert doc["metrics"]["counters"]["engine.events"] == 5

    def test_custom_prefixes(self):
        doc = make_doc(counters=[("a.x", 1), ("b.x", 1)])
        out = strip_metrics(doc, prefixes=("a.",))
        assert list(out["metrics"]["counters"]) == ["b.x"]


class TestFoldExports:
    def test_counters_sum_and_gauges_max(self):
        a = make_doc(counters=[("c", 3)], gauges=[("g", 7)])
        b = make_doc(counters=[("c", 4)], gauges=[("g", 5)])
        out = fold_exports([a, b])
        assert out["metrics"]["counters"]["c"] == 7
        assert out["metrics"]["gauges"]["g"] == 7

    def test_histograms_fold_elementwise(self):
        a = make_doc(hist=[("lat_ns", [100, 5000])])
        b = make_doc(hist=[("lat_ns", [200_000])])
        out = fold_exports([a, b])
        h = out["metrics"]["histograms"]["lat_ns"]
        assert h["count"] == 3
        assert h["sum"] == 205_100
        assert h["min"] == 100 and h["max"] == 200_000
        assert sum(h["counts"]) == 3
        validate_export(out)

    def test_single_doc_normalizes_through_same_path(self):
        """fold_exports([doc]) is the 1-shard side of the byte gate."""
        doc = make_doc(counters=[("c", 1)], hist=[("lat_ns", [5])])
        assert to_json(fold_exports([doc])) == to_json(
            fold_exports([doc, make_doc(counters=[], now_ns=100)]))

    def test_fold_is_order_invariant(self):
        docs = [make_doc(counters=[("c", i)], hist=[("lat_ns", [i * 10])],
                         now_ns=100 + i) for i in (1, 2, 3)]
        assert to_json(fold_exports(docs)) == to_json(
            fold_exports(list(reversed(docs))))

    def test_virtual_time_is_max(self):
        docs = [make_doc(now_ns=50), make_doc(now_ns=90)]
        assert fold_exports(docs)["virtual_time_ns"] == 90

    def test_mixed_numeric_gauges_fold_with_max(self):
        a = make_doc(gauges=[("g", 2)])
        b = make_doc(gauges=[("g", 3.5)])
        assert fold_exports([a, b])["metrics"]["gauges"]["g"] == 3.5

    def test_identical_nonnumeric_gauges_pass_through(self):
        a = make_doc(gauges=[("mode", "steady")])
        b = make_doc(gauges=[("mode", "steady")])
        assert fold_exports([a, b])["metrics"]["gauges"]["mode"] == "steady"

    def test_differing_nonnumeric_gauges_raise_named_error(self):
        """Non-numeric gauges used to die with a bare TypeError from
        ``max``; now the error names the offending metric."""
        a = make_doc(gauges=[("mode", "steady"), ("ok", 1)])
        b = make_doc(gauges=[("mode", "draining"), ("ok", 2)])
        with pytest.raises(ObservabilityError, match="gauge 'mode'"):
            fold_exports([a, b])

    def test_nonnumeric_vs_numeric_gauge_raises_not_typeerror(self):
        a = make_doc(gauges=[("g", "high")])
        b = make_doc(gauges=[("g", 7)])
        with pytest.raises(ObservabilityError, match="gauge 'g'"):
            fold_exports([a, b])

    def test_meta_mismatch_rejected(self):
        a = make_doc(meta={"experiment": "t", "shard": 0})
        b = make_doc(meta={"experiment": "t", "shard": 1})
        with pytest.raises(ObservabilityError, match="shard identity"):
            fold_exports([a, b])

    def test_bucket_mismatch_rejected(self):
        a = make_doc(hist=[("lat_ns", [5])])
        b = make_doc(hist=[("lat_ns", [5])])
        b["metrics"]["histograms"]["lat_ns"]["buckets"] = [1, 2]
        b["metrics"]["histograms"]["lat_ns"]["counts"] = [1, 0, 0]
        with pytest.raises(ObservabilityError, match="bucket mismatch"):
            fold_exports([a, b])

    def test_empty_fold_rejected(self):
        with pytest.raises(ObservabilityError, match="nothing to fold"):
            fold_exports([])

    def test_spans_concatenate_sorted(self):
        reg = MetricsRegistry()
        t1, t2 = Tracer(clock=lambda: 10), Tracer(clock=lambda: 5)
        with t1.span("b"):
            pass
        with t2.span("a"):
            pass
        a = export_obs(reg, tracer=t1, meta={"experiment": "t"}, now_ns=20)
        b = export_obs(MetricsRegistry(), tracer=t2,
                       meta={"experiment": "t"}, now_ns=20)
        out = fold_exports([a, b])
        begins = [s["begin_ns"] for s in out["spans"]]
        assert begins == sorted(begins)
        assert len(out["spans"]) == 2


COUNTER_NAMES = ["a.x", "a.y", "b.z", "c.w"]
HIST_NAMES = ["lat_ns", "queue_depth"]


@st.composite
def export_doc(draw):
    """Random export documents: sparse counter sets, string gauges,
    float samples and span buffers."""
    reg = MetricsRegistry()
    for name in sorted(draw(st.sets(st.sampled_from(COUNTER_NAMES)))):
        reg.inc(name, draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        reg.set_gauge("g.num", draw(st.integers(-5, 500)))
    if draw(st.booleans()):
        # Identical in every doc, as the fold contract requires.
        reg.set_gauge("g.mode", "steady")
    for name in sorted(draw(st.sets(st.sampled_from(HIST_NAMES)))):
        for v in draw(st.lists(
                st.integers(0, 10**9)
                | st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
                max_size=6)):
            reg.observe(name, v)
    clock = {"t": draw(st.integers(0, 100))}
    tracer = Tracer(clock=lambda: clock["t"])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        clock["t"] += draw(st.integers(0, 100))
        with tracer.span(draw(st.sampled_from(["s1", "s2"]))):
            clock["t"] += draw(st.integers(1, 50))
    return export_obs(reg, tracer=tracer, meta={"experiment": "prop-fold"},
                      now_ns=clock["t"] + draw(st.integers(0, 100)))


class TestFoldProperties:
    """Properties of the one fold over random export documents."""

    @settings(deadline=None, max_examples=60)
    @given(docs=st.lists(export_doc(), min_size=1, max_size=5))
    def test_refolding_a_folded_document_is_identity(self, docs):
        folded = fold_exports(docs)
        assert to_json(fold_exports([folded])) == to_json(folded)

    @settings(deadline=None, max_examples=60)
    @given(docs=st.lists(export_doc(), min_size=1, max_size=5))
    def test_totals_equal_per_document_sums(self, docs):
        out = fold_exports(docs)["metrics"]
        for name in COUNTER_NAMES:
            total = sum(d["metrics"]["counters"].get(name, 0) for d in docs)
            assert out["counters"].get(name, 0) == total
        for name in HIST_NAMES:
            hs = [d["metrics"]["histograms"][name] for d in docs
                  if name in d["metrics"]["histograms"]]
            if not hs:
                assert name not in out["histograms"]
                continue
            assert out["histograms"][name]["counts"] == [
                sum(col) for col in zip(*(h["counts"] for h in hs))]
            assert out["histograms"][name]["count"] == sum(
                h["count"] for h in hs)
