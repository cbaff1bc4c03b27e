"""Shard-count-invariant folding of ``repro.obs`` exports.

The conservative parallel engine gives every shard its own engine and
therefore its own :class:`~repro.obs.MetricsRegistry`.  To compare a
1-shard run against an N-shard run byte-for-byte, the N per-shard
export documents must fold into one canonical document through an
operation that is **associative and commutative** -- the grouping of
machines into shards must not be recoverable from the result:

* counters: integer sum (event contributions are disjoint per shard);
* histograms: identical fixed buckets (enforced), element-wise count
  sum, ``count``/``sum`` sums, min-of-mins / max-of-maxes;
* gauges: maximum for numeric values.  Last-value-wins is *not*
  order-invariant across shards, so sharded scenarios should prefer
  counters and histograms; the max fold is provided for completeness
  and documented as such.  Non-numeric gauges (labels, mode strings)
  fold only when identical in every shard -- otherwise the fold fails
  with a per-metric error rather than a ``TypeError``;
* spans: concatenated and re-sorted by ``(begin_ns, span_id)``.  Span
  ids are engine-scoped, so cross-shard id collisions are possible;
  the byte-identity gate therefore applies to span-free runs (the
  sharded fleet scenarios trace nothing);
* ``virtual_time_ns``: maximum (all shards park at the same barrier,
  so in practice the values are equal);
* ``meta``: must be identical across shards (it carries experiment
  parameters, never shard identity).

Engine-internal metrics (``engine.*``) count scheduler bookkeeping --
dispatcher events, compactions -- whose *number* legitimately depends
on how machines are grouped into engines.  :func:`strip_metrics` drops
them before folding; the parallel runner reports scheduler totals in
its barrier stats instead.

``fold_exports([doc])`` of a single document normalizes through the
same code path as an N-way fold, which is precisely what makes
"1 shard vs N shards" testable as byte equality of the folded JSON.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import ObservabilityError
from .export import SCHEMA_VERSION, to_json, validate_export

__all__ = [
    "ENGINE_METRIC_PREFIXES",
    "fold_exports",
    "strip_metrics",
]

#: Metric-name prefixes that are shard-topology-dependent by nature.
ENGINE_METRIC_PREFIXES: Tuple[str, ...] = ("engine.",)


def strip_metrics(
    doc: Mapping[str, Any],
    prefixes: Sequence[str] = ENGINE_METRIC_PREFIXES,
) -> Dict[str, Any]:
    """Return a copy of ``doc`` without metrics under ``prefixes``."""
    out = dict(doc)
    metrics = {}
    for group, values in doc["metrics"].items():
        metrics[group] = {
            name: value
            for name, value in values.items()
            if not any(name.startswith(p) for p in prefixes)
        }
    out["metrics"] = metrics
    return out


def _min_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _max_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _fold_gauge(name: str, a, b):
    """Fold two shard values of one gauge.

    Numeric gauges fold with ``max`` (order-invariant).  Non-numeric
    gauges -- labels, mode strings -- have no meaningful maximum:
    identical values pass through (a constant label is shard-
    invariant), differing ones raise a per-metric
    :class:`~repro.errors.ObservabilityError` instead of the bare
    ``TypeError`` ``max`` used to throw.
    """
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric):
        return max(a, b)
    if a == b:
        return a
    raise ObservabilityError(
        f"gauge {name!r}: cannot fold non-numeric values {a!r} and {b!r} "
        "across shards (max is only defined for numbers; non-numeric "
        "gauges must be identical in every shard)"
    )


def fold_exports(docs: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard export documents into one canonical document.

    Raises :class:`~repro.errors.ObservabilityError` when the documents
    are not foldable (mismatched meta, mismatched histogram buckets).
    The result is re-validated before it is returned.
    """
    if not docs:
        raise ObservabilityError("nothing to fold")
    for doc in docs:
        validate_export(doc)
    meta_key = to_json(docs[0]["meta"])
    for doc in docs[1:]:
        if to_json(doc["meta"]) != meta_key:
            raise ObservabilityError(
                "cannot fold exports with differing meta (meta must not "
                "carry shard identity)"
            )

    counters: Dict[str, int] = {}
    gauges: Dict[str, Any] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    spans: List[Dict[str, Any]] = []
    spans_dropped = 0
    virtual_time = None
    for doc in docs:
        m = doc["metrics"]
        for name, v in m["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, v in m["gauges"].items():
            gauges[name] = v if name not in gauges else _fold_gauge(
                name, gauges[name], v
            )
        for name, h in m["histograms"].items():
            acc = histograms.get(name)
            if acc is None:
                histograms[name] = {
                    "buckets": list(h["buckets"]),
                    "counts": list(h["counts"]),
                    "count": h["count"],
                    "sum": h["sum"],
                    "min": h.get("min"),
                    "max": h.get("max"),
                }
            else:
                if list(h["buckets"]) != acc["buckets"]:
                    raise ObservabilityError(
                        f"histogram {name!r} bucket mismatch across shards"
                    )
                acc["counts"] = [a + b for a, b in zip(acc["counts"],
                                                       h["counts"])]
                acc["count"] += h["count"]
                acc["sum"] += h["sum"]
                acc["min"] = _min_opt(acc["min"], h.get("min"))
                acc["max"] = _max_opt(acc["max"], h.get("max"))
        spans.extend(dict(s) for s in doc["spans"])
        spans_dropped += doc.get("spans_dropped", 0)
        if doc.get("virtual_time_ns") is not None:
            virtual_time = _max_opt(virtual_time, doc["virtual_time_ns"])
    spans.sort(key=lambda s: (s["begin_ns"], s["span_id"]))

    out: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "meta": {str(k): v for k, v in sorted(docs[0]["meta"].items())},
        "virtual_time_ns": virtual_time,
        "metrics": {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "histograms": {k: histograms[k] for k in sorted(histograms)},
        },
        "spans": spans,
        "spans_dropped": spans_dropped,
    }
    validate_export(out)
    return out


#: Alias kept because ``perfbench/hosttrace.py`` traces this name;
#: :func:`fold_exports` is the one fold.
fold_exports_arrays = fold_exports
