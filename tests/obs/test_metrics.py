"""Unit tests for the typed metrics registry."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    BYTES_BUCKETS,
    MetricsRegistry,
    TIME_NS_BUCKETS,
    export_obs,
    to_json,
    validate_export,
)
from repro.obs.metrics import default_buckets


def test_counter_inc_and_default():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("a", 4)
    assert reg.counter("a").value == 5
    assert reg.counters() == {"a": 5}


def test_gauge_last_value_wins():
    reg = MetricsRegistry()
    reg.set_gauge("g", 10)
    reg.set_gauge("g", 3.5)
    assert reg.gauge("g").value == 3.5


def test_histogram_bucket_edges_inclusive_upper_bound():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=[10, 100])
    for v in (1, 10, 11, 100, 101):
        h.observe(v)
    # counts: <=10, <=100, overflow
    assert h.counts == [2, 2, 1]
    assert h.count == 5
    assert h.sum == 223
    assert h.min == 1 and h.max == 101
    assert h.mean == pytest.approx(223 / 5)


def test_histogram_rejects_empty_and_duplicate_buckets():
    with pytest.raises(ObservabilityError):
        MetricsRegistry().histogram("h", buckets=[])
    with pytest.raises(ObservabilityError):
        MetricsRegistry().histogram("h", buckets=[5, 5])


def test_bucket_presets_inferred_from_name():
    assert default_buckets("checkpoint.stall_ns") == TIME_NS_BUCKETS
    assert default_buckets("capture.bytes") == BYTES_BUCKETS
    assert default_buckets("checkpoint.capture_bytes") == BYTES_BUCKETS
    assert default_buckets("misc.ratio") not in (TIME_NS_BUCKETS, BYTES_BUCKETS)


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.inc("x")
    with pytest.raises(ObservabilityError):
        reg.observe("x", 1)
    with pytest.raises(ObservabilityError):
        reg.gauge("x")


def test_to_dict_is_kind_grouped_and_name_sorted():
    reg = MetricsRegistry()
    reg.inc("z.c")
    reg.inc("a.c")
    reg.set_gauge("m.g", 7)
    reg.observe("t_ns", 5_000)
    d = reg.to_dict()
    assert list(d) == ["counters", "gauges", "histograms"]
    assert list(d["counters"]) == ["a.c", "z.c"]
    assert d["gauges"] == {"m.g": 7}
    assert d["histograms"]["t_ns"]["count"] == 1


def test_export_json_roundtrip_validates():
    reg = MetricsRegistry()
    reg.inc("c", 2)
    reg.observe("lat_ns", 123_456)
    doc = export_obs(reg, meta={"experiment": "unit"})
    text = to_json(doc)
    validate_export(json.loads(text))
    assert json.loads(text)["metrics"]["counters"]["c"] == 2


def test_validate_rejects_malformed_documents():
    reg = MetricsRegistry()
    reg.observe("h", 3, buckets=[10])
    doc = export_obs(reg)

    bad = json.loads(to_json(doc))
    bad["schema"] = "other/v0"
    with pytest.raises(ObservabilityError):
        validate_export(bad)

    bad = json.loads(to_json(doc))
    bad["metrics"]["histograms"]["h"]["counts"] = [1]  # arity broken
    with pytest.raises(ObservabilityError):
        validate_export(bad)

    bad = json.loads(to_json(doc))
    bad["metrics"]["counters"]["c"] = 1.5  # non-int counter
    with pytest.raises(ObservabilityError):
        validate_export(bad)


class TestObserveMany:
    """Batched histogram recording must equal one-at-a-time recording
    exactly -- the window driver renders barrier tallies through it."""

    def test_matches_repeated_observe_including_floats(self):
        from repro.obs import Histogram

        values = [0, 1, 999, 1_000, 5.5, 10**12, 3, 1_000_000, 0.25]
        one = Histogram("h_ns", buckets=(1, 1_000, 1_000_000))
        for v in values:
            one.observe(v)
        many = Histogram("h_ns", buckets=(1, 1_000, 1_000_000))
        many.observe_many(values)
        # Same float accumulation order: to_dict is equal bit-for-bit.
        assert many.to_dict() == one.to_dict()

    def test_empty_batch_is_a_noop(self):
        from repro.obs import Histogram

        h = Histogram("h", buckets=(1, 2))
        h.observe_many([])
        assert h.count == 0 and h.min is None

    def test_registry_observe_many(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.observe_many("lat_ns", [100, 2_000_000])
        reg.observe("lat_ns", 7)
        h = reg.get("lat_ns")
        assert h.count == 3 and h.sum == 2_000_107
