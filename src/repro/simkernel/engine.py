"""Deterministic discrete-event simulation engine.

The engine owns the virtual clock and the event schedule.  Everything
else in the simulated kernel -- scheduler ticks, I/O completions, signal
posts, node failures -- is expressed as events scheduled here.  Two runs
with the same seed and the same call sequence produce identical traces;
nothing in the package reads wall-clock time or unseeded randomness.

Times are integer nanoseconds (see :mod:`repro.simkernel.costs`).

The schedule is one binary heap (:mod:`heapq`) of plain tuples
``(time_ns, seq, fn, event_or_None)``, totally ordered by ``(time_ns,
seq)``; ``seq`` is unique, so comparisons never reach ``fn`` and never
leave C.  The anonymous fast path (:meth:`Engine.after_anon`) skips
:class:`Event` allocation entirely for fire-and-forget callbacks.

Cancellation is lazy: a cancelled entry stays stored until it reaches
the head of the heap or until cancelled entries outnumber live ones and
the heap is compacted, so schedule/cancel churn (retry timers,
speculative watchers) keeps memory and pop cost bounded.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs import MetricsRegistry, Tracer

__all__ = ["Event", "Completion", "Engine"]

#: Compaction trigger: compact once at least this many cancelled entries
#: are stored *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 512


class Event:
    """A scheduled callback, ordered by ``(time_ns, seq)`` for determinism.

    Only *labelled* schedules (:meth:`Engine.at` / :meth:`Engine.after`)
    allocate an ``Event``; the anonymous fast path stores a bare tuple.
    """

    __slots__ = ("time_ns", "seq", "fn", "label", "cancelled", "popped",
                 "_engine")

    def __init__(
        self,
        time_ns: int,
        seq: int,
        fn: Callable[[], None],
        label: str = "",
        _engine: Optional["Engine"] = None,
    ) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False
        #: Set once the engine has removed the event from the schedule
        #: (whether it ran or was discarded as cancelled).  Guards the
        #: live count: cancelling an event that already executed must be
        #: a no-op.
        self.popped = False
        self._engine = _engine

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is reached.

        Cancelling an event that was already popped (it ran, or it was
        already discarded as cancelled) is a no-op -- in particular it
        must not drive the engine's pending count negative.
        """
        if self.cancelled or self.popped:
            return
        self.cancelled = True
        eng = self._engine
        if eng is not None:
            eng._ndone += 1
            eng._n_cancelled += 1
            if (
                eng._n_cancelled >= _COMPACT_MIN_CANCELLED
                and eng._n_cancelled > eng._seq - eng._ndone
            ):
                eng._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "cancelled " if self.cancelled else ""
        return f"<Event t={self.time_ns} seq={self.seq} {flags}{self.label!r}>"


# Tuple layout of a schedule entry.  ``ev`` is None for anonymous events.
_Entry = Tuple[int, int, Callable[[], None], Optional[Event]]


class Completion:
    """A one-shot virtual-time completion token (an I/O future).

    The asynchronous checkpoint/restart pipeline posts these for every
    in-flight transfer: the issuer knows the deterministic completion
    time from the device model, schedules the token on the engine
    (:meth:`Engine.completion`), and consumers attach callbacks instead
    of blocking a task context for the whole transfer latency.

    Callbacks added *after* the token resolved fire immediately (at the
    current virtual time), so late subscribers never deadlock.

    A token may be *cancelled* (:meth:`cancel`): pending callbacks run
    one final time with ``token.cancelled`` set (asyncio's done-on-
    cancel semantics -- waiters must observe the abort, not hang) and a
    later :meth:`resolve` is a silent no-op.  Protocols that abort
    mid-flight (a rank failing during a distributed-snapshot marker
    flood) cancel their outstanding tokens this way; a token scheduled
    through :meth:`Engine.completion` with ``cancellable=True`` also
    removes its timer event from the schedule, so the engine's pending
    count stays exact across abort paths.
    """

    __slots__ = ("engine", "done", "value", "done_at_ns", "cancelled",
                 "_callbacks", "_event")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.done = False
        self.value: Any = None
        #: Virtual time the token resolved (None while pending).
        self.done_at_ns: Optional[int] = None
        self.cancelled = False
        self._callbacks: List[Callable[["Completion"], None]] = []
        #: The labelled timer event backing a cancellable token (None for
        #: the anonymous fast path).
        self._event: Optional[Event] = None

    def add_done_callback(self, fn: Callable[["Completion"], None]) -> None:
        """Run ``fn(self)`` when the token settles -- resolution or
        cancellation (now, if it already has)."""
        if self.done or self.cancelled:
            fn(self)
        else:
            self._callbacks.append(fn)

    def resolve(self, value: Any = None) -> None:
        """Resolve the token at the current virtual time.

        Resolving a cancelled token is a no-op: an anonymous timer that
        was never cancellable may still fire after its consumer
        aborted, and the stale resolution must not reach anyone.
        """
        if self.cancelled:
            return
        if self.done:
            raise SimulationError("completion already resolved")
        self.done = True
        self.value = value
        self.done_at_ns = self.engine.now_ns
        self._event = None
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def cancel(self) -> None:
        """Cancel the token: resolve becomes a no-op, a cancellable
        token's timer leaves the schedule (``Engine.pending`` is
        decremented exactly once, through :meth:`Event.cancel`'s guarded
        accounting), and pending callbacks run once with
        ``cancelled`` set so waiters observe the abort."""
        if self.done or self.cancelled:
            return
        self.cancelled = True
        ev, self._event = self._event, None
        if ev is not None:
            ev.cancel()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self.cancelled
            else f"done@{self.done_at_ns}" if self.done
            else "pending"
        )
        return f"<Completion {state}>"


class Engine:
    """Event schedule + virtual clock.

    Parameters
    ----------
    seed:
        Seed for the engine's :class:`numpy.random.Generator`.  All
        stochastic behaviour in the simulation (failure processes,
        randomized write patterns) draws from this generator or from
        generators derived from it, so a run is reproducible end to end.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now_ns: int = 0
        #: Schedules issued so far; doubles as the tiebreak sequence.
        self._seq: int = 0
        #: Events no longer live (executed or cancelled).  ``pending()``
        #: is the O(1) difference ``_seq - _ndone``, so the insert fast
        #: path touches no extra counter.
        self._ndone: int = 0
        #: Cancelled-but-still-stored entries (reaped lazily or at
        #: compaction).
        self._n_cancelled: int = 0
        #: The schedule: a binary heap of ``(time_ns, seq, fn, ev)``.
        self._heap: List[_Entry] = []
        self.rng: np.random.Generator = np.random.default_rng(seed)
        self._stopped = False
        #: Typed metrics (counters / gauges / histograms) on virtual time.
        self.metrics = MetricsRegistry(clock=lambda: self._now_ns)
        #: Structured span log on virtual time (see :mod:`repro.obs`).
        self.tracer = Tracer(clock=lambda: self._now_ns)
        self._events_counter = self.metrics.counter("engine.events")
        #: Per-namespace monotonic id sequences (checkpoint keys etc.).
        #: Engine-scoped, so same-seed runs allocate identical ids --
        #: unlike process-global counters, which leak across runs.
        self._id_counters: Dict[str, int] = {}

    def next_id(self, namespace: str) -> int:
        """Next monotonic id in ``namespace`` (starts at 1, O(1))."""
        n = self._id_counters.get(namespace, 0) + 1
        self._id_counters[namespace] = n
        return n

    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now_ns

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds (for reporting only)."""
        return self._now_ns / 1e9

    def spawn_rng(self) -> np.random.Generator:
        """Derive an independent, deterministic child generator."""
        return np.random.default_rng(self.rng.integers(0, 2**63 - 1))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time_ns: int,
        fn: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` at absolute virtual time ``time_ns``."""
        t = int(time_ns)
        if t < self._now_ns:
            raise SimulationError(
                f"cannot schedule event in the past: {t} < {self._now_ns}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(t, seq, fn, label, _engine=self)
        heappush(self._heap, (t, seq, fn, ev))
        return ev

    def after(
        self,
        delay_ns: int,
        fn: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` after ``delay_ns`` nanoseconds."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.at(self._now_ns + int(delay_ns), fn, label)

    def at_anon(self, time_ns: int, fn: Callable[[], None]) -> None:
        """Anonymous fast path: schedule ``fn`` at ``time_ns`` with no
        :class:`Event` handle (the event cannot be cancelled or labelled).

        This is the hot path for the simulated kernel's own timers --
        dispatches, op completions, scheduler ticks -- which are never
        cancelled and vastly outnumber everything else.
        """
        t = int(time_ns)
        if t < self._now_ns:
            raise SimulationError(
                f"cannot schedule event in the past: {t} < {self._now_ns}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (t, seq, fn, None))

    def completion(
        self, delay_ns: int, value: Any = None, cancellable: bool = False
    ) -> Completion:
        """Schedule a :class:`Completion` that resolves in ``delay_ns``.

        By default the resolution rides the anonymous fast path (I/O
        acknowledgements are never cancelled); ``value`` is delivered to
        the token's callbacks.  ``cancellable=True``
        routes through a labelled event instead, so
        :meth:`Completion.cancel` removes the timer from the schedule --
        the form protocols use for abortable waits (quiesce drains,
        marker-flood watchdogs), where an abandoned anonymous timer
        would otherwise linger until its scheduled instant.
        """
        token = Completion(self)
        if cancellable:
            token._event = self.after(
                int(delay_ns), lambda: token.resolve(value), label="completion"
            )
        else:
            self.after_anon(int(delay_ns), lambda: token.resolve(value))
        return token

    def after_anon(self, delay_ns: int, fn: Callable[[], None]) -> None:
        """Anonymous fast path: schedule ``fn`` after ``delay_ns``."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        t = self._now_ns + int(delay_ns)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (t, seq, fn, None))

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def events(self) -> Iterator[Event]:
        """Yield the live *labelled* events currently scheduled.

        Anonymous events have no handle and are not reported.  Debugging
        aid; order is unspecified.
        """
        for entry in self._heap:
            ev = entry[3]
            if ev is not None and not ev.cancelled:
                yield ev

    def stored_events(self) -> int:
        """Entries currently stored, including cancelled ones awaiting
        reap/compaction (memory-bound diagnostics; O(1))."""
        return self._seq - self._ndone + self._n_cancelled

    def next_time_ns(self) -> Optional[int]:
        """Earliest stored entry time, or None when the schedule is empty.

        This is the lower-bound peek the conservative parallel engine
        uses to place the next lockstep window: cancelled-but-unreaped
        entries are counted (their time is still a valid lower bound, so
        a window placed on one is merely empty, never unsafe).  O(1): the
        heap's head.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def _compact(self) -> None:
        """Rebuild the schedule without cancelled entries.

        Triggered when cancelled entries outnumber live ones: long runs
        that schedule-and-cancel many speculative timers (retry guards,
        watchdogs) would otherwise accumulate dead entries until their
        scheduled time arrives.

        The list is filtered and re-heapified in place, so a running
        :meth:`run` keeps a valid alias when a callback compacts.
        """
        heap = self._heap
        live = []
        for entry in heap:
            ev = entry[3]
            if ev is not None and ev.cancelled:
                ev.popped = True
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        self._n_cancelled = 0
        self.metrics.inc("engine.compactions")

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events scheduled (O(1))."""
        return self._seq - self._ndone

    # ------------------------------------------------------------------
    def run(
        self,
        until_ns: Optional[int] = None,
        max_events: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Process events in order.

        Parameters
        ----------
        until_ns:
            Stop once the clock would pass this time (the clock is left at
            ``until_ns`` if the schedule drains or only later events remain).
        max_events:
            Safety valve: stop after this many events.  Cancelled events
            that are skipped do not count as processed.
        until:
            Predicate evaluated after every event; return true to stop.

        Returns
        -------
        int
            The number of events processed.
        """
        self._stopped = False
        processed = 0
        # Sentinels let the hot loop test with plain comparisons instead
        # of None checks: ``processed`` only ever increments by one, so
        # ``limit == -1`` is never hit; ``inf`` compares fine with ints.
        limit = -1 if max_events is None else max_events
        horizon = float("inf") if until_ns is None else int(until_ns)
        # The engine.events counter is flushed once per run() (in the
        # finally below) rather than per event; nothing observes it
        # between events of a single run.
        heap = self._heap
        try:
            while True:
                if self._stopped or processed == limit:
                    return processed
                if not heap:
                    break
                entry = heap[0]
                ev = entry[3]
                if ev is not None and ev.cancelled:
                    # Reap a cancelled entry: it stopped counting as
                    # pending at cancel time and does not count as
                    # processed now.
                    heappop(heap)
                    ev.popped = True
                    self._n_cancelled -= 1
                    continue
                t = entry[0]
                if t > horizon:
                    break  # leave it stored for a later run()
                heappop(heap)
                self._now_ns = t
                self._ndone += 1
                if ev is not None:
                    ev.popped = True
                # The callback may schedule, cancel or compact; all of
                # them keep ``heap`` the same list object.
                entry[2]()
                processed += 1
                if until is not None and until():
                    return processed
            if until_ns is not None and self._now_ns < until_ns:
                self._now_ns = int(until_ns)
            return processed
        finally:
            self._events_counter.value += processed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now_ns}ns pending={self.pending()}>"
