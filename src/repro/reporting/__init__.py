"""Rendering helpers for tables, bars, series and event timelines."""

from .survivability import render_replication_table
from .tables import fmt_bytes, fmt_ns, render_series, render_table
from .timeline import export_metrics_json, render_timeline, timeline_events

__all__ = [
    "render_table",
    "render_series",
    "render_replication_table",
    "render_timeline",
    "timeline_events",
    "export_metrics_json",
    "fmt_bytes",
    "fmt_ns",
]
