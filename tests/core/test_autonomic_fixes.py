"""Regression tests for the autonomic-policy bugfixes.

Covers the two failure modes fixed alongside the observability work:

* ``FailureRateEstimator`` used to clamp out-of-order failure times to a
  1 ns gap, collapsing the MTBF estimate (and with it the Daly
  interval); now it ignores and counts them.
* ``SafePreemption.preempt`` used to reschedule its parking poll every
  1 ms forever when the checkpoint request never resolved; now the
  watcher stops on request failure or a bounded deadline and surfaces
  the outcome via ``park_failures`` and the ``preempt.park_failed``
  metric.
"""

from __future__ import annotations

import pytest

from repro.core.autonomic import FailureRateEstimator, SafePreemption
from repro.core.checkpointer import CheckpointRequest, RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.errors import StorageError
from repro.obs import MetricsRegistry
from repro.simkernel import Kernel
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.storage import RemoteStorage
from repro.workloads import SparseWriter


def writer(iterations=50_000, seed=3):
    return SparseWriter(
        iterations=iterations, dirty_fraction=0.03, heap_bytes=512 * 1024, seed=seed
    )


class BrokenRemote(RemoteStorage):
    """Remote storage whose every write fails (dead service)."""

    def store(self, key, obj, nbytes, now_ns):
        raise StorageError("injected: stable storage unreachable")


class TestEstimatorMonotonicity:
    def test_out_of_order_observation_ignored(self):
        est = FailureRateEstimator(prior_mtbf_s=1000.0, alpha=0.5)
        est.observe_failure(100 * NS_PER_S)
        est.observe_failure(200 * NS_PER_S)
        mtbf = est.mtbf_s
        est.observe_failure(150 * NS_PER_S)  # delivered late
        assert est.mtbf_s == mtbf  # estimate untouched
        assert est.out_of_order == 1
        assert est.observations == 2

    def test_duplicate_timestamp_ignored(self):
        est = FailureRateEstimator(prior_mtbf_s=1000.0, alpha=0.5)
        est.observe_failure(100 * NS_PER_S)
        est.observe_failure(100 * NS_PER_S)  # duplicate report
        mtbf = est.mtbf_s
        assert est.out_of_order == 1
        assert est.mtbf_s == mtbf == 1000.0  # no 1ns-gap collapse

    def test_mtbf_does_not_collapse_under_replayed_history(self):
        """Replaying an old failure log must not drive the estimate to
        its floor (the pre-fix behaviour folded ~0 s gaps into the
        EWMA for every replayed entry)."""
        est = FailureRateEstimator(prior_mtbf_s=100.0, alpha=0.5)
        times = [i * 10 * NS_PER_S for i in range(1, 11)]
        for t in times:
            est.observe_failure(t)
        mtbf = est.mtbf_s
        for t in times:  # duplicate delivery of the whole history
            est.observe_failure(t)
        assert est.mtbf_s == mtbf
        assert est.out_of_order == len(times)
        assert est.mtbf_s > 1.0

    def test_metrics_registry_counts_both_kinds(self):
        reg = MetricsRegistry()
        est = FailureRateEstimator(prior_mtbf_s=100.0, metrics=reg)
        est.observe_failure(10 * NS_PER_S)
        est.observe_failure(20 * NS_PER_S)
        est.observe_failure(5 * NS_PER_S)
        assert reg.counter("autonomic.failures_observed").value == 2
        assert reg.counter("autonomic.out_of_order_failures").value == 1


class TestBoundedParking:
    def test_stuck_request_stops_polling_at_deadline(self):
        """A request that never resolves must not keep the poll event
        alive forever: after the deadline the watcher gives up and the
        engine's heap drains."""
        k = Kernel(ncpus=2, seed=11)
        mech = AutonomicCheckpointer(k, RemoteStorage())
        sp = SafePreemption(
            mech, park_deadline_ns=50 * NS_PER_MS
        )
        t = writer().spawn(k)
        stuck = CheckpointRequest(
            key="stuck/1/1", target_pid=t.pid, mechanism="m",
            initiated_ns=k.engine.now_ns,
        )
        mech.request_checkpoint = lambda task, incremental=False: stuck
        sp.preempt(t)
        k.engine.run(until_ns=NS_PER_S)
        # The watcher terminated: no poll event survives the deadline
        # (pre-fix, one was rescheduled every poll interval forever).
        polls = [e for e in k.engine.events() if e.label == "park-poll"]
        assert polls == []
        assert k.engine.pending() >= 0
        assert t.pid in sp.park_failures
        assert "abandoning park" in sp.park_failures[t.pid]
        assert k.engine.metrics.counter("preempt.park_failed").value == 1
        assert t.pid not in sp.parked

    def test_failed_checkpoint_gives_up_immediately(self):
        """FAILED requests end the watcher on the next poll -- the task
        is left running (nothing durable to park against)."""
        k = Kernel(ncpus=2, seed=11)
        mech = AutonomicCheckpointer(k, BrokenRemote())
        sp = SafePreemption(mech)
        t = writer().spawn(k)
        k.run_for(5 * NS_PER_MS)
        req = sp.preempt(t)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 10 * NS_PER_S,
            until=lambda: t.pid in sp.park_failures,
        )
        assert req.state == RequestState.FAILED
        assert t.pid in sp.park_failures
        assert "checkpoint failed" in sp.park_failures[t.pid]
        assert t.pid not in sp.parked
        assert t.alive()
        assert k.engine.metrics.counter("preempt.park_failed").value >= 1

    def test_successful_park_clears_failure_record(self):
        k = Kernel(ncpus=2, seed=11)
        mech = AutonomicCheckpointer(k, RemoteStorage())
        sp = SafePreemption(mech)
        t = writer(iterations=100_000).spawn(k)
        k.run_for(5 * NS_PER_MS)
        sp.preempt(t)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 10 * NS_PER_S,
            until=lambda: t.pid in sp.parked,
        )
        assert t.pid in sp.parked
        assert t.pid not in sp.park_failures
        assert k.engine.metrics.counter("preempt.parked").value == 1

    def test_deadline_validation_is_bounded_default(self):
        k = Kernel(ncpus=2, seed=11)
        mech = AutonomicCheckpointer(k, RemoteStorage())
        sp = SafePreemption(mech)
        assert sp.park_deadline_ns == 300 * NS_PER_S
        sp2 = SafePreemption(mech, park_deadline_ns=NS_PER_S)
        assert sp2.park_deadline_ns == NS_PER_S


def test_preempt_requests_metric_counted():
    k = Kernel(ncpus=2, seed=11)
    mech = AutonomicCheckpointer(k, RemoteStorage())
    sp = SafePreemption(mech)
    t = writer().spawn(k)
    k.run_for(5 * NS_PER_MS)
    sp.preempt(t)
    assert k.engine.metrics.counter("preempt.requests").value == 1


@pytest.mark.parametrize("bad_ts", [0, -5])
def test_estimator_first_observation_accepts_any_time(bad_ts):
    """Only *relative* ordering matters; the first observation sets the
    reference point whatever its absolute value."""
    est = FailureRateEstimator(prior_mtbf_s=10.0)
    est.observe_failure(bad_ts)
    assert est.observations == 1
