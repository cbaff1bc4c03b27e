"""Tests for the engine's event schedule.

The schedule is one binary heap with lazy cancellation and
threshold-triggered compaction.  It once was a two-level timer wheel
(131.072 us and 33.554 ms slots, ~8.6 s horizon) with a far heap; the
boundary delays of that geometry stay in these tests as plain
nanosecond values.  The tests pin:

* exact ``(time_ns, seq)`` order for delays from 0 ns to an hour,
  including events scheduled from inside callbacks;
* bounded memory under schedule/cancel churn (cancelled events used to
  sit in the heap until their scheduled time);
* ``next_time_ns()`` as the minimum stored entry time;
* the ``run()`` clock edge cases around ``until_ns``, ``until`` and
  ``max_events``.
"""

from __future__ import annotations

import heapq
import itertools

import pytest

from repro.errors import SimulationError
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.simkernel.engine import _COMPACT_MIN_CANCELLED, Engine

#: Boundary delays in ns: 2**17 (131.072 us) and 2**25 (33.554 ms).
_SLOT_NS = 131_072
_COARSE_NS = 33_554_432


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
def test_order_spans_same_tick_to_seconds_out():
    """Events from the same tick to seconds out must interleave in exact
    global (time, seq) order."""
    eng = Engine()
    fired = []
    slot = _SLOT_NS
    times = [
        0,
        7,
        3 * slot + 1,
        200 * slot,
        300 * slot,
        _COARSE_NS * 200,
        20 * NS_PER_S,
        25 * NS_PER_S,
    ]
    # Schedule in shuffled order so seq does not accidentally sort.
    order = [5, 0, 7, 2, 4, 6, 1, 3]
    for i in order:
        eng.at_anon(times[i], lambda i=i: fired.append(i))
    eng.run()
    assert fired == sorted(range(len(times)), key=lambda i: times[i])
    assert eng.now_ns == max(times)


def test_hour_out_event_fires_after_nearer_one():
    """An event hours out must still fire, and in order with nearer ones."""
    eng = Engine()
    fired = []
    eng.after_anon(3600 * NS_PER_S, lambda: fired.append("far"))
    eng.after_anon(NS_PER_MS, lambda: fired.append("near"))
    eng.run()
    assert fired == ["near", "far"]
    assert eng.now_ns == 3600 * NS_PER_S


def test_zero_delay_events_scheduled_during_run_fire_in_seq_order():
    """0-delay chains (the dispatch pattern) must still respect seq
    order against entries already stored for the same instant."""
    eng = Engine()
    fired = []

    def first():
        fired.append("first")
        eng.after_anon(0, lambda: fired.append("child"))

    eng.after_anon(0, first)
    eng.after_anon(0, lambda: fired.append("second"))
    eng.run()
    assert fired == ["first", "second", "child"]


def test_randomized_differential_vs_reference_heap():
    """Drive the engine and a plain sorted-reference schedule with the
    same randomized workload (schedules from inside callbacks, varied
    horizons spanning the old wheel's slot boundaries) and require the exact
    same firing order."""
    eng = Engine(seed=7)
    rng = eng.spawn_rng()
    fired = []
    reference = []
    counter = itertools.count()
    ref_heap = []

    delays = rng.integers(0, 12 * NS_PER_S, size=400).tolist()
    # Mix in boundary-hugging delays the uniform draw would miss.
    delays += [0, 1, _SLOT_NS - 1, _SLOT_NS, _SLOT_NS + 1,
               _COARSE_NS - 1, _COARSE_NS, 256 * _SLOT_NS,
               256 * _COARSE_NS + 5]
    chain = iter(delays)

    def fire(tag):
        fired.append((eng.now_ns, tag))
        # Every callback schedules up to two more events.
        for _ in range(2):
            d = next(chain, None)
            if d is not None:
                schedule(int(d))

    def schedule(delay):
        tag = next(counter)
        eng.after_anon(delay, lambda tag=tag: fire(tag))
        heapq.heappush(ref_heap, (eng.now_ns + delay, tag))

    for _ in range(8):
        schedule(int(next(chain)))
    eng.run()
    while ref_heap:
        reference.append(heapq.heappop(ref_heap))
    assert fired == reference


def test_labelled_and_anonymous_events_interleave_deterministically():
    eng = Engine()
    fired = []
    eng.at(100, lambda: fired.append("a"), label="x")
    eng.at_anon(100, lambda: fired.append("b"))
    eng.at(100, lambda: fired.append("c"))
    eng.run()
    assert fired == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Cancelled-event retention / compaction
# ----------------------------------------------------------------------
def test_schedule_cancel_churn_keeps_storage_bounded():
    """Regression for the seed behaviour where cancelled events stayed
    in the heap until their scheduled time: 100k schedule/cancel cycles
    against a far-future horizon must not accumulate 100k entries."""
    eng = Engine()
    keep = eng.at(3600 * NS_PER_S, lambda: None, label="keeper")
    for i in range(100_000):
        ev = eng.after(1800 * NS_PER_S + i, lambda: None)
        ev.cancel()
    assert eng.pending() == 1
    # Compaction kicked in: storage is bounded by the trigger threshold,
    # nowhere near the 100k cancelled timers.
    assert eng.stored_events() <= 2 * _COMPACT_MIN_CANCELLED
    assert eng.metrics.counter("engine.compactions").value > 0
    assert not keep.cancelled
    eng.run()
    assert eng.now_ns == 3600 * NS_PER_S


def test_compaction_preserves_order_and_live_events():
    eng = Engine()
    fired = []
    for i in range(2000):
        ev = eng.after(NS_PER_MS + i * 1000, lambda i=i: fired.append(i))
        if i % 2:
            ev.cancel()
    assert eng.metrics.counter("engine.compactions").value == 0
    for i in range(2000, 4000):
        ev = eng.after(NS_PER_MS + i * 1000, lambda i=i: fired.append(i))
        ev.cancel()
    assert eng.metrics.counter("engine.compactions").value > 0
    eng.run()
    assert fired == [i for i in range(2000) if not i % 2]


def test_compaction_triggered_from_within_callback():
    """Cancelling en masse from inside a running callback compacts the
    schedule mid-drain; the remaining events must still fire in order."""
    eng = Engine()
    fired = []
    victims = [
        eng.after(5 * NS_PER_MS + i, lambda: fired.append("victim"))
        for i in range(2 * _COMPACT_MIN_CANCELLED)
    ]

    def massacre():
        fired.append("massacre")
        for v in victims:
            v.cancel()

    eng.after_anon(NS_PER_MS, massacre)
    eng.after_anon(NS_PER_MS, lambda: fired.append("same-slot-survivor"))
    eng.after_anon(10 * NS_PER_MS, lambda: fired.append("later-survivor"))
    eng.run()
    assert fired == ["massacre", "same-slot-survivor", "later-survivor"]
    assert eng.metrics.counter("engine.compactions").value >= 1
    assert eng.pending() == 0


def test_unpooled_events_are_not_recycled():
    eng = Engine()
    ev1 = eng.after(10, lambda: None)
    eng.run()
    ev2 = eng.after(10, lambda: None)
    assert ev2 is not ev1


# ----------------------------------------------------------------------
# run() clock edge cases
# ----------------------------------------------------------------------
def test_until_ns_landing_exactly_on_event_time_fires_it():
    eng = Engine()
    fired = []
    eng.at_anon(100, lambda: fired.append("on-bound"))
    eng.at_anon(101, lambda: fired.append("past-bound"))
    n = eng.run(until_ns=100)
    assert fired == ["on-bound"]
    assert n == 1
    assert eng.now_ns == 100
    # The later event is intact and fires on the next run.
    assert eng.run() == 1
    assert fired == ["on-bound", "past-bound"]
    assert eng.now_ns == 101


def test_until_ns_between_events_leaves_clock_at_bound():
    eng = Engine()
    eng.at_anon(10, lambda: None)
    eng.at_anon(10_000_000, lambda: None)
    eng.run(until_ns=5000)
    assert eng.now_ns == 5000
    assert eng.pending() == 1
    eng.run(until_ns=5000)  # idempotent: nothing due, clock stays
    assert eng.now_ns == 5000
    eng.run()
    assert eng.now_ns == 10_000_000


def test_until_predicate_stops_mid_batch_of_simultaneous_events():
    """The predicate is evaluated after every event, including between
    events scheduled at the same time."""
    eng = Engine()
    fired = []
    for i in range(5):
        eng.at_anon(50, lambda i=i: fired.append(i))
    n = eng.run(until=lambda: len(fired) == 2)
    assert fired == [0, 1]
    assert n == 2
    assert eng.pending() == 3
    eng.run()
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_does_not_count_cancelled_skips():
    """Skipped cancelled entries are reaped for free: max_events bounds
    *processed* events only."""
    eng = Engine()
    fired = []
    for i in range(4):
        ev = eng.at(10 + i, lambda i=i: fired.append(i))
        if i < 2:
            ev.cancel()
    n = eng.run(max_events=2)
    assert n == 2
    assert fired == [2, 3]  # both cancelled entries skipped "for free"


def test_max_events_zero_processes_nothing():
    eng = Engine()
    eng.at_anon(10, lambda: None)
    assert eng.run(max_events=0) == 0
    assert eng.pending() == 1
    assert eng.now_ns == 0


def test_run_with_horizon_before_any_event_only_advances_clock():
    eng = Engine()
    fired = []
    eng.at_anon(NS_PER_S, lambda: fired.append(1))
    n = eng.run(until_ns=NS_PER_MS)
    assert n == 0
    assert fired == []
    assert eng.now_ns == NS_PER_MS


def test_run_on_empty_schedule_clamps_clock_to_until_ns():
    eng = Engine()
    assert eng.run(until_ns=123456) == 0
    assert eng.now_ns == 123456
    # A later, smaller horizon must not move the clock backwards.
    assert eng.run(until_ns=5) == 0
    assert eng.now_ns == 123456


def test_events_iterator_reports_live_labelled_events():
    eng = Engine()
    a = eng.at(10, lambda: None, label="a")
    eng.at_anon(20, lambda: None)
    b = eng.at(30, lambda: None, label="b")
    b.cancel()
    live = list(eng.events())
    assert live == [a]
    eng.run()
    assert list(eng.events()) == []


def test_anon_past_schedule_rejected():
    eng = Engine()
    eng.at_anon(100, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.at_anon(50, lambda: None)
    with pytest.raises(SimulationError):
        eng.after_anon(-1, lambda: None)


def test_stored_events_matches_entry_count_under_churn():
    eng = Engine(seed=3)
    rng = eng.spawn_rng()
    handles = []
    for _ in range(500):
        handles.append(eng.after(int(rng.integers(0, 10 * NS_PER_S)),
                                 lambda: None))
    for h in handles[::3]:
        h.cancel()
    assert eng.stored_events() == len(eng._heap)
    eng.run(until_ns=5 * NS_PER_S)
    assert eng.stored_events() == len(eng._heap)
    eng.run()
    assert eng.stored_events() == 0


def test_next_time_ns_is_min_stored_entry_time_under_churn():
    """Random schedules, cancels and bounded runs: ``next_time_ns()``
    always equals the earliest stored entry, cancelled-but-unreaped
    ones included (the lower bound the sharded driver relies on)."""
    eng = Engine(seed=11)
    rng = eng.spawn_rng()
    stored = {}  # key -> time of every entry the engine still holds
    labelled = {}  # key -> Event handle
    keys = itertools.count()

    def schedule():
        key = next(keys)
        delay = int(rng.integers(0, 2 * NS_PER_S))
        fire = lambda key=key: stored.pop(key)  # noqa: E731
        if rng.random() < 0.5:
            labelled[key] = eng.after(delay, fire)
        else:
            eng.after_anon(delay, fire)
        stored[key] = eng.now_ns + delay

    def check():
        # Cancelled entries leave storage only when reaped or compacted.
        for key, ev in list(labelled.items()):
            if ev.popped:
                stored.pop(key, None)
                del labelled[key]
        assert eng.stored_events() == len(stored)
        assert eng.next_time_ns() == min(stored.values(), default=None)

    for _ in range(60):
        for _ in range(int(rng.integers(0, 40))):
            schedule()
        for ev in labelled.values():
            if rng.random() < 0.3:
                ev.cancel()
        check()
        eng.run(until_ns=eng.now_ns + int(rng.integers(0, NS_PER_S // 4)))
        check()
    eng.run()
    check()
    assert eng.next_time_ns() is None
