"""Per-job event timelines and metrics-export plumbing over ``repro.obs``.

The observability subsystem records *what happened when* on the virtual
clock -- checkpoint spans, restarts, node failures, storage repairs.
This module turns that raw record into the two artifacts benchmarks
consume:

* :func:`render_timeline` -- a human-readable, time-ordered ASCII table
  of the failure/checkpoint/restart story of a run, the narrative behind
  every survivability experiment.
* :func:`export_metrics_json` -- the canonical (byte-stable) JSON export
  of an engine's metrics registry and tracer, schema-validated before it
  leaves the process.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..obs import Span, export_obs, to_json
from .tables import fmt_ns, render_table

__all__ = ["TIMELINE_SPANS", "timeline_events", "render_timeline", "export_metrics_json"]

#: Span names that tell the failure/checkpoint/restart story of a run.
#: Everything else the tracer records (freeze windows, rollbacks, ...)
#: stays available via ``Tracer.export`` but would drown the narrative.
TIMELINE_SPANS = (
    "checkpoint",
    "restart",
    "node.fail",
    "node.repair",
    "storage.repair",
    "preempt.park_failed",
)


def _span_detail(span: Span) -> str:
    """Compact ``k=v`` attribute summary, deterministic order."""
    return " ".join(f"{k}={span.attrs[k]}" for k in sorted(span.attrs))


def timeline_events(engine, pid: Optional[int] = None) -> List[Span]:
    """The :data:`TIMELINE_SPANS` spans, in deterministic (begin, id)
    order.

    Parameters
    ----------
    engine:
        Any :class:`~repro.simkernel.engine.Engine` (a cluster exposes
        its shared one as ``cluster.engine``).
    pid:
        Restrict to spans carrying this ``pid`` attribute (spans with no
        ``pid`` attr, e.g. node failures, are always kept -- they affect
        every process).
    """
    wanted = set(TIMELINE_SPANS)
    out = []
    for span in engine.tracer.ordered():
        if span.name not in wanted:
            continue
        if pid is not None and "pid" in span.attrs and span.attrs["pid"] != pid:
            continue
        out.append(span)
    return out


def render_timeline(engine, title: Optional[str] = None) -> str:
    """Render the run's failure/checkpoint/restart timeline as a table.

    Open spans (a checkpoint abandoned when its node died mid-capture)
    render with an ``(open)`` duration -- that a span never closed is
    itself evidence.
    """
    rows: List[List[Any]] = []
    for span in timeline_events(engine):
        duration = fmt_ns(span.duration_ns) if span.finished else "(open)"
        rows.append([fmt_ns(span.begin_ns), span.name, duration, _span_detail(span)])
    if not rows:
        rows.append(["-", "(no events)", "-", ""])
    return render_table(["t", "event", "duration", "detail"], rows, title=title)


def export_metrics_json(
    engine,
    meta: Optional[Dict[str, Any]] = None,
    path: Optional[str] = None,
) -> str:
    """Export an engine's metrics + spans as canonical, validated JSON.

    The output is byte-stable across same-seed runs (sorted keys,
    compact separators, deterministic span ordering), so benchmarks can
    diff it directly.  When ``path`` is given the document is also
    written there.
    """
    doc = export_obs(engine.metrics, tracer=engine.tracer, meta=meta)
    text = to_json(doc)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
