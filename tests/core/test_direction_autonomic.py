"""Tests for the direction-forward mechanism and autonomic policies."""

from __future__ import annotations

import pytest

from repro.core.autonomic import (
    AutonomicIntervalController,
    FailureRateEstimator,
    SafePreemption,
)
from repro.core.checkpointer import RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.errors import CheckpointError
from repro.simkernel import Kernel, SchedPolicy, TaskState
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.storage import RemoteStorage
from repro.workloads import SparseWriter, memory_digest


def make_mech(seed=11, ncpus=2):
    k = Kernel(ncpus=ncpus, seed=seed)
    return k, AutonomicCheckpointer(k, RemoteStorage())


def writer(iterations=20_000, seed=3):
    return SparseWriter(
        iterations=iterations, dirty_fraction=0.03, heap_bytes=512 * 1024, seed=seed
    )


class TestDirectionForward:
    def test_module_exposes_dev_and_proc(self):
        k, mech = make_mech()
        assert k.vfs.exists("/dev/autockpt")
        assert k.vfs.exists("/proc/autockpt")
        mech.uninstall()
        assert not k.vfs.exists("/dev/autockpt")

    def test_first_full_then_incremental(self):
        k, mech = make_mech()
        # Slow iteration rate so the random writer cannot re-cover the
        # whole heap while the first image drains to storage.
        wl = SparseWriter(
            iterations=20_000, dirty_fraction=0.03, heap_bytes=512 * 1024,
            seed=3, compute_ns=500_000,
        )
        t = wl.spawn(k)
        k.run_for(5 * NS_PER_MS)
        r1 = mech.request_checkpoint(t)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 5 * NS_PER_S,
            until=lambda: r1.state == RequestState.DONE,
        )
        # Keep the interval short: the sparse writer re-dirties random
        # pages and would cover the whole heap given long enough.
        k.run_for(300_000)
        r2 = mech.request_checkpoint(t)
        k.engine.run(
            until_ns=k.engine.now_ns + 5 * NS_PER_S,
            until=lambda: r2.state == RequestState.DONE,
        )
        assert r1.image.parent_key is None
        assert r2.image.parent_key == r1.key
        assert 0 < r2.image.payload_bytes < r1.image.payload_bytes

    def test_restart_from_incremental_chain_matches_clean_run(self):
        k, mech = make_mech()
        wl = writer(iterations=3_000)
        t = wl.spawn(k)
        k.run_for(5 * NS_PER_MS)
        r1 = mech.request_checkpoint(t)
        k.run_for(10 * NS_PER_MS)
        r2 = mech.request_checkpoint(t)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 10 * NS_PER_S,
            until=lambda: r2.state == RequestState.DONE,
        )
        res = mech.restart(r2.key)
        k.run_until_exit(res.task, limit_ns=10**13)
        k2 = Kernel(ncpus=2, seed=11)
        t2 = writer(iterations=3_000).spawn(k2)
        k2.run_until_exit(t2, limit_ns=10**13)
        assert memory_digest(res.task)["heap"] == memory_digest(t2)["heap"]

    def test_capture_thread_uses_ckpt_class(self):
        k, mech = make_mech()
        t = writer().spawn(k)
        k.run_for(5 * NS_PER_MS)
        mech.request_checkpoint(t)
        kthreads = [x for x in k.tasks.values() if x.is_kthread]
        assert kthreads and all(
            x.policy == SchedPolicy.CKPT for x in kthreads
        )

    def test_in_kernel_automatic_timer(self):
        k, mech = make_mech()
        t = writer(iterations=100_000).spawn(k)
        seen = []
        mech.enable_automatic(
            t, 20 * NS_PER_MS,
            on_complete=lambda req: seen.append((req, k.engine.now_ns)),
        )
        k.run_for(150 * NS_PER_MS)
        assert len(mech.completed_requests()) >= 4
        assert seen  # completion callbacks fired
        # Each callback runs at its request's completion instant.
        assert all(now == req.completed_ns for req, now in seen)
        mech.disable_automatic(t)
        n = len(mech.requests)
        k.run_for(100 * NS_PER_MS)
        assert len(mech.requests) == n  # timer really stopped

    def test_set_interval_requires_timer(self):
        k, mech = make_mech()
        t = writer().spawn(k)
        with pytest.raises(CheckpointError):
            mech.set_interval(t, NS_PER_S)


class TestEstimator:
    def test_prior_used_before_observations(self):
        est = FailureRateEstimator(prior_mtbf_s=500.0)
        assert est.mtbf_s == 500.0

    def test_estimate_tracks_observed_gaps(self):
        est = FailureRateEstimator(prior_mtbf_s=1000.0, alpha=0.5)
        t = 0
        for _ in range(20):
            t += 10 * NS_PER_S  # failures every 10 s
            est.observe_failure(t)
        assert abs(est.mtbf_s - 10.0) < 5.0

    def test_validation(self):
        with pytest.raises(CheckpointError):
            FailureRateEstimator(prior_mtbf_s=0.0)
        with pytest.raises(CheckpointError):
            FailureRateEstimator(prior_mtbf_s=1.0, alpha=0.0)


class TestIntervalController:
    def _req(self, stall_ns):
        from repro.core.checkpointer import CheckpointRequest

        r = CheckpointRequest(
            key="x", target_pid=1, mechanism="m", initiated_ns=0,
            state=RequestState.DONE,
        )
        r.target_stall_ns = stall_ns
        return r

    def test_interval_shrinks_when_failures_speed_up(self):
        est = FailureRateEstimator(prior_mtbf_s=10_000.0, alpha=0.8)
        ctl = AutonomicIntervalController(est)
        ctl.observe_checkpoint(self._req(int(2 * NS_PER_S)))
        iv_calm = ctl.recommended_interval_s()
        t = 0
        for _ in range(10):
            t += 50 * NS_PER_S
            est.observe_failure(t)
        iv_stormy = ctl.recommended_interval_s()
        assert iv_stormy < iv_calm

    def test_cost_ewma_and_clamps(self):
        est = FailureRateEstimator(prior_mtbf_s=1e9)
        ctl = AutonomicIntervalController(est, max_interval_s=100.0)
        ctl.observe_checkpoint(self._req(int(NS_PER_S)))
        assert ctl.checkpoint_cost_s == pytest.approx(1.0)
        ctl.observe_checkpoint(self._req(int(3 * NS_PER_S)))
        assert 1.0 < ctl.checkpoint_cost_s < 3.0
        assert ctl.recommended_interval_s() == 100.0  # clamped

    def test_retune_updates_coordinator(self):
        class FakeCoord:
            interval_ns = 0

        est = FailureRateEstimator(prior_mtbf_s=100.0)
        ctl = AutonomicIntervalController(est)
        ctl.observe_checkpoint(self._req(int(0.5 * NS_PER_S)))
        coord = FakeCoord()
        iv = ctl.retune(coord)
        assert coord.interval_ns == iv > 0
        assert ctl.retunes == 1


class TestSafePreemption:
    def test_preempt_parks_and_resumes_in_place(self):
        k, mech = make_mech()
        sp = SafePreemption(mech)
        t = writer(iterations=100_000).spawn(k)
        k.run_for(5 * NS_PER_MS)
        req = sp.preempt(t)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 10 * NS_PER_S,
            until=lambda: t.pid in sp.parked,
        )
        k.run_for(2 * NS_PER_MS)  # let the stop land at an op boundary
        assert t.state == TaskState.STOPPED
        steps_parked = t.main_steps
        k.run_for(50 * NS_PER_MS)
        assert t.main_steps == steps_parked  # truly parked
        sp.resume_in_place(t)
        k.run_for(50 * NS_PER_MS)
        assert t.main_steps > steps_parked

    def test_resume_from_image_on_other_node(self):
        k, mech = make_mech()
        k2 = Kernel(ncpus=2, seed=99, node_id=1)
        sp = SafePreemption(mech)
        t = writer(iterations=100_000).spawn(k)
        k.run_for(5 * NS_PER_MS)
        sp.preempt(t)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 10 * NS_PER_S,
            until=lambda: t.pid in sp.parked,
        )
        res = sp.resume_from_image(t.pid, target_kernel=k2)
        assert res.task.node_id == 1

    def test_resume_unparked_rejected(self):
        k, mech = make_mech()
        sp = SafePreemption(mech)
        t = writer().spawn(k)
        with pytest.raises(CheckpointError):
            sp.resume_in_place(t)
