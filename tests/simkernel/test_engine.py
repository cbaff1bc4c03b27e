"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simkernel.engine import Engine


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.after(300, lambda: order.append("c"))
    eng.after(100, lambda: order.append("a"))
    eng.after(200, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now_ns == 300


def test_same_time_events_fire_in_schedule_order():
    eng = Engine()
    order = []
    for name in "abcde":
        eng.after(50, lambda n=name: order.append(n))
    eng.run()
    assert order == list("abcde")


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    fired = []
    eng.after(1_000, lambda: fired.append(1))
    eng.after(5_000, lambda: fired.append(2))
    eng.run(until_ns=2_000)
    assert fired == [1]
    assert eng.now_ns == 2_000
    eng.run()
    assert fired == [1, 2]
    assert eng.now_ns == 5_000


def test_cancelled_event_does_not_fire():
    eng = Engine()
    fired = []
    ev = eng.after(100, lambda: fired.append(1))
    ev.cancel()
    eng.run()
    assert fired == []


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.after(100, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.at(50, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.after(-1, lambda: None)


def test_events_scheduled_during_run_are_processed():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            eng.after(10, lambda: chain(n + 1))

    eng.after(0, lambda: chain(0))
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert eng.now_ns == 50


def test_until_predicate_stops_run():
    eng = Engine()
    seen = []
    for i in range(10):
        eng.after(10 * (i + 1), lambda i=i: seen.append(i))
    eng.run(until=lambda: len(seen) >= 3)
    assert seen == [0, 1, 2]


def test_max_events_guard():
    eng = Engine()
    for i in range(10):
        eng.after(i + 1, lambda: None)
    processed = eng.run(max_events=4)
    assert processed == 4


def test_deterministic_rng_streams():
    a = Engine(seed=7)
    b = Engine(seed=7)
    assert a.rng.integers(0, 1000) == b.rng.integers(0, 1000)
    ra, rb = a.spawn_rng(), b.spawn_rng()
    assert ra.integers(0, 10**9) == rb.integers(0, 10**9)


def test_counters():
    eng = Engine()
    eng.metrics.inc("x")
    eng.metrics.inc("x", 4)
    assert eng.metrics.counters()["x"] == 5


def test_cancel_after_run_is_noop():
    """Cancelling an event that already executed must not corrupt the
    pending count (it used to go negative)."""
    eng = Engine()
    ev = eng.after(100, lambda: None)
    eng.run()
    assert eng.pending() == 0
    ev.cancel()
    assert eng.pending() == 0
    assert not ev.cancelled  # the event ran; it is not "cancelled"


def test_double_cancel_decrements_once():
    eng = Engine()
    ev = eng.after(100, lambda: None)
    eng.after(200, lambda: None)
    ev.cancel()
    ev.cancel()
    assert eng.pending() == 1


def test_cancel_after_cancelled_event_discarded():
    """Cancelling again after the engine popped the cancelled event off
    the heap stays a no-op."""
    eng = Engine()
    ev = eng.after(50, lambda: None)
    eng.after(100, lambda: None)
    ev.cancel()
    eng.run()
    assert eng.pending() == 0
    ev.cancel()
    assert eng.pending() == 0


def test_cancel_from_within_callback_keeps_count_exact():
    eng = Engine()
    fired = []
    later = eng.after(200, lambda: fired.append("later"))

    def first():
        fired.append("first")
        later.cancel()
        later.cancel()  # double cancel from inside a callback

    eng.after(100, first)
    assert eng.pending() == 2
    eng.run()
    assert fired == ["first"]
    assert eng.pending() == 0


def test_pending_tracks_schedule_cancel_run():
    eng = Engine()
    evs = [eng.after(10 * (i + 1), lambda: None) for i in range(5)]
    assert eng.pending() == 5
    evs[0].cancel()
    evs[3].cancel()
    assert eng.pending() == 3
    eng.run()
    assert eng.pending() == 0
    for ev in evs:  # cancelling anything after the run changes nothing
        ev.cancel()
    assert eng.pending() == 0


def test_stop_requests_early_return():
    eng = Engine()
    seen = []
    eng.after(10, lambda: (seen.append(1), eng.stop()))
    eng.after(20, lambda: seen.append(2))
    eng.run()
    assert seen == [1]
    eng.run()
    assert seen == [1, 2]
