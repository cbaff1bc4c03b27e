"""Structured observability over the simulator's virtual clock.

The autonomic direction the paper argues for -- a checkpoint entity
that retunes itself from its own measurements -- needs one consistent
source of truth for those measurements.  This package provides it:

* :class:`MetricsRegistry` -- typed counters, gauges and fixed-bucket
  histograms, keyed by a flat dotted name (``checkpoint.stall_ns``,
  ``dedup.hits``).  The engine owns one registry; every subsystem
  records into it, replacing the untyped ``Engine.counters`` dict
  (which survives as a compatibility view over the registry).
* :class:`Tracer` / :class:`Span` -- span-based tracing on virtual
  time: begin/end timestamps, parent spans, attributes.  Replaces the
  flat ``TraceRecord`` list for structural analysis; ordering of the
  exported span log is deterministic for a given seed + call sequence.
* :func:`export_obs` / :func:`to_json` / :func:`validate_export` --
  one canonical, schema-checked JSON document (``repro.obs/v1``) that
  experiments dump alongside their text tables and the timeline
  renderer consumes.

Nothing here reads wall-clock time: all timestamps come from the
engine's virtual clock, so two same-seed runs export byte-identical
documents.
"""

from .export import SCHEMA_VERSION, export_obs, to_json, validate_export
from .fold import fold_exports, strip_metrics
from .metrics import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TIME_NS_BUCKETS,
)
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_NS_BUCKETS",
    "BYTES_BUCKETS",
    "Span",
    "Tracer",
    "SCHEMA_VERSION",
    "export_obs",
    "to_json",
    "validate_export",
    "fold_exports",
    "strip_metrics",
]
