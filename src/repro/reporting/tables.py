"""ASCII table / series renderers for benchmark output.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = ["render_table", "render_series", "fmt_bytes", "fmt_ns"]


def _cell(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    srows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    out: List[str] = []
    if title:
        out.append(title)
        out.append("")
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in srows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_series(
    x_label: str,
    xs: Sequence[Any],
    series: Dict[str, Sequence[float]],
    title: Optional[str] = None,
) -> str:
    """Render multiple y-series against a shared x column."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return render_table(headers, rows, title=title)


def fmt_bytes(n: float) -> str:
    """Human-readable byte count."""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GiB"


def fmt_ns(ns: float) -> str:
    """Human-readable duration from nanoseconds."""
    if abs(ns) < 1e3:
        return f"{ns:.0f}ns"
    if abs(ns) < 1e6:
        return f"{ns / 1e3:.1f}us"
    if abs(ns) < 1e9:
        return f"{ns / 1e6:.2f}ms"
    return f"{ns / 1e9:.3f}s"
