"""``SafePreemption`` parks on the request's settle, bounded by one
cancellable deadline timer."""

from __future__ import annotations

from repro.core.autonomic import SafePreemption
from repro.core.checkpointer import CheckpointRequest, RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.simkernel import Kernel, TaskState
from repro.simkernel.costs import NS_PER_MS
from repro.storage import RemoteStorage
from repro.workloads import SparseWriter


def held_preemption(deadline_ns):
    """A preemption whose request settles only when the test says so."""
    k = Kernel(ncpus=2, seed=11)
    mech = AutonomicCheckpointer(k, RemoteStorage())
    sp = SafePreemption(mech, park_deadline_ns=deadline_ns)
    t = SparseWriter(
        iterations=50_000, dirty_fraction=0.03, heap_bytes=512 * 1024, seed=3
    ).spawn(k)
    req = CheckpointRequest(
        key="held/1/1", target_pid=t.pid, mechanism="m",
        initiated_ns=k.engine.now_ns,
    )
    mech.request_checkpoint = lambda task, incremental=False: req
    sp.preempt(t)
    return k, sp, t, req


def settle_done(k, req):
    req.state = RequestState.DONE
    req.completed_ns = k.engine.now_ns
    req._notify()


def test_settle_before_deadline_parks_and_cancels_the_timer():
    k, sp, t, req = held_preemption(50 * NS_PER_MS)
    k.run_for(10 * NS_PER_MS)
    settle_done(k, req)
    assert sp.parked == {t.pid: "held/1/1"}
    assert not [e for e in k.engine.events() if e.label == "park-deadline"]
    k.run_for(100 * NS_PER_MS)
    assert t.state == TaskState.STOPPED
    assert t.pid not in sp.park_failures


def test_settle_after_deadline_does_not_park():
    k, sp, t, req = held_preemption(50 * NS_PER_MS)
    k.run_for(60 * NS_PER_MS)
    assert "abandoning park" in sp.park_failures[t.pid]
    settle_done(k, req)
    assert t.pid not in sp.parked
    assert t.state != TaskState.STOPPED
    assert k.engine.metrics.counter("preempt.parked").value == 0
