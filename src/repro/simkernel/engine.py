"""Deterministic discrete-event simulation engine.

The engine owns the virtual clock and the event schedule.  Everything
else in the simulated kernel -- scheduler ticks, I/O completions, signal
posts, node failures -- is expressed as events scheduled here.  Two runs
with the same seed and the same call sequence produce identical traces;
nothing in the package reads wall-clock time or unseeded randomness.

Times are integer nanoseconds (see :mod:`repro.simkernel.costs`).

Scheduling data structure (the hot path of every experiment)
------------------------------------------------------------
Events are totally ordered by ``(time_ns, seq)`` -- exactly the order
the original single-``heapq`` implementation produced -- but stored in a
hybrid structure tuned for the simulation's actual timer mix:

* a **hierarchical timer wheel** (two levels of 256 slots: 131 us and
  33.5 ms per slot, ~8.6 s total horizon) absorbs the dominant
  short-horizon timers (scheduler ticks, op completions, I/O, wave
  polls) with O(1) unsorted inserts;
* a **far heap** holds events beyond the wheel horizon (node failures
  hours away, GC sweeps); they cascade into the wheel as the clock
  approaches;
* the **current slot** is sorted once and drained by index, with a
  small side heap absorbing entries that arrive at or before the
  cursor while it drains (0-delay dispatches), so intra-slot ordering
  is exact ``(time_ns, seq)`` without a heappop per event.

Entries are plain tuples ``(time_ns, seq, fn, event_or_None)`` --
comparisons never leave C.  The anonymous fast path
(:meth:`Engine.after_anon`) skips :class:`Event` allocation entirely for
fire-and-forget callbacks.

Cancelled events no longer linger until their scheduled time: when the
cancelled fraction of stored entries crosses a threshold the structure
compacts, so schedule/cancel churn (retry timers, speculative watchers)
keeps memory and pop cost bounded.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs import MetricsRegistry, Tracer

__all__ = ["Event", "Completion", "Engine"]

# Timer-wheel geometry.  Level-0 slots are 2**17 ns (131.072 us), level-1
# slots cover one full level-0 window (2**25 ns, 33.554 ms); with 256
# slots per level the wheel spans ~8.59 s ahead of the cursor.  Events
# beyond that live in the far heap.
_L0_BITS = 17
_L1_BITS = _L0_BITS + 8
_SLOTS = 256
_MASK = _SLOTS - 1

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
    time from the device model, schedules the token on the timer wheel
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
        already left the wheel may still fire after its consumer
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
    """Hybrid timer wheel + virtual clock.

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
        # --- the hybrid schedule ------------------------------------
        #: The slot being drained: a sorted list consumed by index, plus
        #: a side heap for entries that arrive at or before the cursor
        #: slot while it drains (0-delay dispatches and the like).
        self._cur: List[_Entry] = []
        self._cur_idx: int = 0
        self._side: List[_Entry] = []
        #: Absolute level-0 slot index of the cursor (== slot of _cur).
        self._pos: int = 0
        self._l0: List[List[_Entry]] = [[] for _ in range(_SLOTS)]
        self._l0_map: int = 0  # bit i set <=> bucket i non-empty
        self._l1: List[List[_Entry]] = [[] for _ in range(_SLOTS)]
        self._l1_map: int = 0
        #: Far-future overflow (beyond the wheel horizon), a tuple heap.
        self._far: List[_Entry] = []
        # ------------------------------------------------------------
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
    def _place(self, entry: _Entry) -> None:
        """Route an entry into current-slot heap / wheel / far heap."""
        s = entry[0] >> _L0_BITS
        d = s - self._pos
        if d <= 0:
            heappush(self._side, entry)
        elif d <= _SLOTS:
            i = s & _MASK
            self._l0[i].append(entry)
            self._l0_map |= 1 << i
        else:
            u = entry[0] >> _L1_BITS
            if u - (self._pos >> 8) < _SLOTS:
                i = u & _MASK
                self._l1[i].append(entry)
                self._l1_map |= 1 << i
            else:
                heappush(self._far, entry)

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
        self._place((t, seq, fn, ev))
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
        # Inlined _place fast path (short-horizon slots dominate).
        s = t >> _L0_BITS
        d = s - self._pos
        if d <= 0:
            heappush(self._side, (t, seq, fn, None))
        elif d <= _SLOTS:
            i = s & _MASK
            self._l0[i].append((t, seq, fn, None))
            self._l0_map |= 1 << i
        else:
            u = t >> _L1_BITS
            if u - (self._pos >> 8) < _SLOTS:
                i = u & _MASK
                self._l1[i].append((t, seq, fn, None))
                self._l1_map |= 1 << i
            else:
                heappush(self._far, (t, seq, fn, None))

    def completion(
        self, delay_ns: int, value: Any = None, cancellable: bool = False
    ) -> Completion:
        """Schedule a :class:`Completion` that resolves in ``delay_ns``.

        By default the resolution rides the anonymous fast path on the
        timer wheel (I/O acknowledgements are never cancelled); ``value``
        is delivered to the token's callbacks.  ``cancellable=True``
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
        s = t >> _L0_BITS
        d = s - self._pos
        if d <= 0:
            heappush(self._side, (t, seq, fn, None))
        elif d <= _SLOTS:
            i = s & _MASK
            self._l0[i].append((t, seq, fn, None))
            self._l0_map |= 1 << i
        else:
            u = t >> _L1_BITS
            if u - (self._pos >> 8) < _SLOTS:
                i = u & _MASK
                self._l1[i].append((t, seq, fn, None))
                self._l1_map |= 1 << i
            else:
                heappush(self._far, (t, seq, fn, None))

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def events(self) -> Iterator[Event]:
        """Yield the live *labelled* events currently scheduled.

        Anonymous events have no handle and are not reported.  Debugging
        aid; order is unspecified.
        """
        for entry in self._entries():
            ev = entry[3]
            if ev is not None and not ev.cancelled:
                yield ev

    def _entries(self) -> Iterator[_Entry]:
        yield from self._cur[self._cur_idx:]
        yield from self._side
        for bucket in self._l0:
            yield from bucket
        for bucket in self._l1:
            yield from bucket
        yield from self._far

    def stored_events(self) -> int:
        """Entries currently stored, including cancelled ones awaiting
        reap/compaction (memory-bound diagnostics; O(1))."""
        return self._seq - self._ndone + self._n_cancelled

    def next_time_ns(self) -> Optional[int]:
        """Earliest stored entry time, or None when the schedule is empty.

        This is the lower-bound peek the conservative parallel engine
        uses to place the next lockstep window: cancelled-but-unreaped
        entries are counted (their time is still a valid lower bound, so
        a window placed on one is merely empty, never unsafe).  Cost is
        one bitmap scan plus a min over the first non-empty bucket --
        never a full walk of the schedule.
        """
        best: Optional[int] = None
        if self._cur_idx < len(self._cur):
            best = self._cur[self._cur_idx][0]
        if self._side:
            t = self._side[0][0]
            if best is None or t < best:
                best = t
        # Entries in cur/side are at or before the cursor slot; wheel
        # buckets and the far heap hold strictly later slots, so the
        # first hit wins at each level.
        if best is not None:
            return best
        pos = self._pos
        if self._l0_map:
            start = (pos + 1) & _MASK
            m = self._l0_map >> start
            if m:
                bidx = (start + ((m & -m).bit_length() - 1)) & _MASK
            else:
                m = self._l0_map & ((1 << start) - 1)
                bidx = (m & -m).bit_length() - 1
            return min(e[0] for e in self._l0[bidx])
        if self._l1_map:
            p1 = pos >> 8
            start = (p1 + 1) & _MASK
            m = self._l1_map >> start
            if m:
                b1 = (start + ((m & -m).bit_length() - 1)) & _MASK
            else:
                m = self._l1_map & ((1 << start) - 1)
                b1 = (m & -m).bit_length() - 1
            return min(e[0] for e in self._l1[b1])
        if self._far:
            return self._far[0][0]
        return None

    def _compact(self) -> None:
        """Rebuild the schedule without cancelled entries.

        Triggered when cancelled entries outnumber live ones: long runs
        that schedule-and-cancel many speculative timers (retry guards,
        watchdogs) would otherwise accumulate dead entries until their
        scheduled time arrives.
        """
        entries = list(self._entries())
        self._cur = []
        self._cur_idx = 0
        self._side = []
        self._l0 = [[] for _ in range(_SLOTS)]
        self._l0_map = 0
        self._l1 = [[] for _ in range(_SLOTS)]
        self._l1_map = 0
        self._far = []
        place = self._place
        for entry in entries:
            ev = entry[3]
            if ev is not None and ev.cancelled:
                ev.popped = True
                continue
            place(entry)
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
    def _refill(self) -> bool:
        """Advance the cursor to the next slot containing entries and
        sort it into ``_cur``.  Returns False when nothing is left."""
        far = self._far
        while True:
            pos = self._pos
            p1 = pos >> 8
            # Far events whose level-1 slot entered the wheel horizon
            # cascade in before anything later may be drained.
            while far and (far[0][0] >> _L1_BITS) - p1 < _SLOTS:
                self._place(heappop(far))
            # Next non-empty level-0 slot in the window (pos, pos+256].
            l0_map = self._l0_map
            s_a = None
            if l0_map:
                start = (pos + 1) & _MASK
                m = l0_map >> start
                if m:
                    bidx = start + ((m & -m).bit_length() - 1)
                else:
                    m = l0_map & ((1 << start) - 1)
                    bidx = (m & -m).bit_length() - 1
                s_a = pos + 1 + ((bidx - pos - 1) & _MASK)
            # Next non-empty level-1 bucket in the window (p1, p1+256).
            l1_map = self._l1_map
            u_b = None
            if l1_map:
                start = (p1 + 1) & _MASK
                m = l1_map >> start
                if m:
                    b1 = start + ((m & -m).bit_length() - 1)
                else:
                    m = l1_map & ((1 << start) - 1)
                    b1 = (m & -m).bit_length() - 1
                u_b = p1 + 1 + ((b1 - p1 - 1) & _MASK)
            if u_b is not None and (s_a is None or (u_b << 8) <= s_a):
                # The level-1 bucket starts at or before the next level-0
                # slot: cascade it into level-0 first (its entries all
                # land within the new 256-slot window).
                self._pos = (u_b << 8) - 1
                i = u_b & _MASK
                bucket = self._l1[i]
                self._l1[i] = []
                self._l1_map &= ~(1 << i)
                place = self._place
                for entry in bucket:
                    place(entry)
                continue
            if s_a is not None:
                self._pos = s_a
                i = s_a & _MASK
                bucket = self._l0[i]
                self._l0[i] = []
                self._l0_map &= ~(1 << i)
                bucket.sort()
                self._cur = bucket
                self._cur_idx = 0
                return True
            # Both wheel levels empty: jump the cursor toward the far
            # heap's head so the migration loop above pulls it in.
            if not far:
                return False
            jump = (far[0][0] >> _L0_BITS) - 1
            if jump > self._pos:
                self._pos = jump

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
        try:
            while True:
                if self._stopped or processed == limit:
                    break
                cur = self._cur
                i = self._cur_idx
                side = self._side
                n = len(cur)
                if i >= n and not side:
                    if not self._refill():
                        if until_ns is not None and self._now_ns < until_ns:
                            self._now_ns = int(until_ns)
                        break
                    continue
                # Drain the current slot.  ``cur`` never grows (in-slot
                # arrivals go to ``side``); only _compact() replaces it,
                # and that is caught by the identity check after each
                # callback.
                while True:
                    if i < n:
                        entry = cur[i]
                        if side and side[0] < entry:
                            entry = heappop(side)
                        else:
                            i += 1
                    elif side:
                        entry = heappop(side)
                    else:
                        self._cur_idx = i
                        break
                    ev = entry[3]
                    if ev is not None and ev.cancelled:
                        # Reap a cancelled entry: it stopped counting as
                        # pending at cancel time and does not count as
                        # processed now.
                        ev.popped = True
                        self._n_cancelled -= 1
                        continue
                    t = entry[0]
                    if t > horizon:
                        # Leave it for a later run().
                        self._cur_idx = i
                        heappush(side, entry)
                        if self._now_ns < until_ns:
                            self._now_ns = int(until_ns)
                        return processed
                    self._now_ns = t
                    self._ndone += 1
                    if ev is not None:
                        ev.popped = True
                    # Persist the cursor before the callback: it may
                    # inspect or compact the schedule (via Event.cancel).
                    self._cur_idx = i
                    entry[2]()
                    processed += 1
                    if until is not None and until():
                        return processed
                    if self._cur is not cur:
                        break  # compacted mid-callback; resync aliases
                    if self._stopped or processed == limit:
                        break
            return processed
        finally:
            self._events_counter.value += processed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now_ns}ns pending={self.pending()}>"
