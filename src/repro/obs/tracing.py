"""Span-based tracing on the virtual clock.

A :class:`Span` is a named interval of virtual time with attributes and
an optional parent, so a run's log has structure: a checkpoint is one
span whose begin/end are the request's initiation and completion, a
node failure is an instant (zero-length) span, a storage repair is a
span covering the copy.

Determinism guarantees:

* Span ids come from a process-local monotonic counter seeded at 1; the
  same call sequence yields the same ids.
* All timestamps are read from the supplied virtual ``clock``; nothing
  reads wall-clock time.
* :meth:`Tracer.export` orders spans by ``(begin_ns, span_id)``, so two
  same-seed runs export identical lists.

Spans for work that may be abandoned mid-flight (a capture generator
dropped when its node fails) are ended explicitly by the owner of the
lifecycle (e.g. ``Checkpointer._complete``/``_fail``); an abandoned span
simply stays open (``end_ns is None``) rather than recording a
garbage-collection-dependent end time.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One traced interval of virtual time."""

    __slots__ = ("span_id", "name", "begin_ns", "end_ns", "parent_id", "attrs", "_tracer")

    def __init__(
        self,
        span_id: int,
        name: str,
        begin_ns: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
        tracer: "Tracer",
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.begin_ns = begin_ns
        self.end_ns: Optional[int] = None
        self.parent_id = parent_id
        self.attrs = attrs
        self._tracer = tracer

    def end(self, **attrs: Any) -> "Span":
        """Close the span at the current virtual time (idempotent)."""
        if self.end_ns is None:
            self.end_ns = self._tracer._clock()
        if attrs:
            self.attrs.update(attrs)
        return self

    @property
    def finished(self) -> bool:
        """Whether :meth:`end` has run."""
        return self.end_ns is not None

    @property
    def duration_ns(self) -> Optional[int]:
        """Span length in virtual ns (None while open)."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.begin_ns

    def to_dict(self) -> Dict[str, Any]:
        """Export dict with JSON-safe, deterministically-ordered attrs."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
            "parent_id": self.parent_id,
            "attrs": {k: _jsonable(v) for k, v in sorted(self.attrs.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"..{self.end_ns}" if self.end_ns is not None else " open"
        return f"<Span #{self.span_id} {self.name} @{self.begin_ns}{state}>"


def _jsonable(v: Any) -> Any:
    """Coerce an attribute value to a JSON-safe scalar."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


class Tracer:
    """Records spans against a virtual clock.

    Parameters
    ----------
    clock:
        Callable returning the current virtual time in nanoseconds.
    max_spans:
        Optional retention cap; once reached, further spans are counted
        in :attr:`dropped` instead of stored (long unattended runs).
    """

    def __init__(self, clock: Callable[[], int], max_spans: Optional[int] = None) -> None:
        self._clock = clock
        self._seq = itertools.count(1)
        self.spans: List[Span] = []
        self.max_spans = max_spans
        self.dropped = 0
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    def start_span(
        self, name: str, parent_id: Optional[int] = None, **attrs: Any
    ) -> Span:
        """Open a span now; close it later with :meth:`Span.end`.

        The parent defaults to the innermost active ``with span(...)``
        block (explicit ``parent_id`` overrides).
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        sp = Span(next(self._seq), name, self._clock(), parent_id, dict(attrs), self)
        self._keep(sp)
        return sp

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context manager: span covers the block, children nest under it.

        Only use around code that runs to completion within one virtual
        instantiation of control flow -- for work driven by generators
        that may be abandoned, pair :meth:`start_span` with an explicit
        ``end()`` at the lifecycle terminus instead.
        """
        sp = self.start_span(name, **attrs)
        self._stack.append(sp.span_id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end()

    def instant(self, name: str, **attrs: Any) -> Span:
        """A zero-length span marking a point event (failure, retune)."""
        sp = self.start_span(name, **attrs)
        sp.end_ns = sp.begin_ns
        return sp

    def record(
        self,
        name: str,
        begin_ns: int,
        end_ns: int,
        **attrs: Any,
    ) -> Span:
        """Append an already-measured span (begin/end known post hoc)."""
        parent_id = self._stack[-1] if self._stack else None
        sp = Span(next(self._seq), name, int(begin_ns), parent_id, dict(attrs), self)
        sp.end_ns = int(end_ns)
        self._keep(sp)
        return sp

    def _keep(self, sp: Span) -> None:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(sp)

    # ------------------------------------------------------------------
    def ordered(self) -> List[Span]:
        """All spans (open ones included) in (begin_ns, id) order."""
        return sorted(self.spans, key=lambda s: (s.begin_ns, s.span_id))

    def finished(self, name: Optional[str] = None) -> List[Span]:
        """Closed spans, optionally filtered by name, in export order."""
        out = [
            s
            for s in self.spans
            if s.end_ns is not None and (name is None or s.name == name)
        ]
        out.sort(key=lambda s: (s.begin_ns, s.span_id))
        return out

    def export(self) -> List[Dict[str, Any]]:
        """All spans as export dicts, ordered by (begin_ns, id)."""
        return [s.to_dict() for s in self.ordered()]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer spans={len(self.spans)} dropped={self.dropped}>"
