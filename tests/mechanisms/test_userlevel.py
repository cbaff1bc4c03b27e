"""Integration tests for the user-level mechanism models."""

from __future__ import annotations

import pytest

from repro.core.checkpointer import RequestState
from repro.errors import CheckpointError, IncompatibleStateError
from repro.simkernel import Kernel, Sig, ops
from repro.storage import LocalDiskStorage, RemoteStorage
from repro.mechanisms import (
    CCIFT,
    CLIP,
    CoCheck,
    Condor,
    Esky,
    Libckpt,
    Libtckpt,
    PreloadCkpt,
)
from repro.workloads import (
    SocketApp,
    SparseWriter,
    ThreadedWorkload,
    memory_digest,
)

from mech_helpers import finish_and_digest, make_writer, reference_digest, run_request


class TestUserLevelBasics:
    def test_requires_linking(self):
        k = Kernel(seed=1)
        mech = Esky(k, LocalDiskStorage(0))
        t = make_writer().spawn(k)
        with pytest.raises(CheckpointError):
            mech.request_checkpoint(t)

    def test_condor_roundtrip_with_remote_storage(self):
        k = Kernel(ncpus=2, seed=11)
        mech = Condor(k, RemoteStorage())
        wl = make_writer()
        t = wl.spawn(k)
        mech.prepare_target(t)
        k.run_for(5_000_000)
        req = mech.request_checkpoint(t)
        run_request(k, req)
        assert req.state == RequestState.DONE
        res = mech.restart(req.key)
        digest = finish_and_digest(k, res.task)
        assert digest == reference_digest(make_writer)

    def test_condor_uses_sigusr2(self):
        assert Condor.trigger_signal == Sig.SIGUSR2
        assert Esky.trigger_signal == Sig.SIGALRM

    def test_handler_runs_in_user_mode_with_many_syscalls(self):
        k = Kernel(ncpus=1, seed=11)
        mech = Esky(k, LocalDiskStorage(0))
        t = make_writer(iterations=3000).spawn(k)
        mech.prepare_target(t)
        k.run_for(3_000_000)
        syscalls_before = t.acct.syscalls
        req = mech.request_checkpoint(t)
        run_request(k, req)
        assert req.state == RequestState.DONE
        # sbrk + lseek-per-fd + sigpending + getpid + mprotect... >= 3
        assert t.acct.syscalls - syscalls_before >= 3
        # The checkpoint stalls the app for its whole duration (the app
        # itself executes it in the handler).
        assert req.target_stall_ns == req.capture_duration_ns

    def test_automatic_timer_initiation(self):
        k = Kernel(ncpus=1, seed=11)
        mech = Esky(k, LocalDiskStorage(0))
        t = make_writer(iterations=30_000, dirty=0.01).spawn(k)
        mech.prepare_target(t)
        mech.enable_timer(t, 30_000_000)
        k.run_for(200_000_000)
        assert len(mech.completed_requests()) >= 3


class TestLibckptIncremental:
    def test_first_full_then_incremental_chain(self):
        k = Kernel(ncpus=1, seed=11)
        mech = Libckpt(k, RemoteStorage())
        wl = SparseWriter(
            iterations=30_000, dirty_fraction=0.02, heap_bytes=1 << 20, seed=3
        )
        t = wl.spawn(k)
        mech.prepare_target(t)
        k.run_for(20_000_000)  # populate the heap before the base image
        r1 = mech.request_checkpoint(t)
        run_request(k, r1)
        k.run_for(2_000_000)  # short interval: only a few pages re-dirtied
        r2 = mech.request_checkpoint(t)
        run_request(k, r2)
        assert r1.image.parent_key is None
        assert r2.image.parent_key == r1.key
        assert r1.image.payload_bytes > 0
        # The delta is much smaller than the full image.
        assert 0 < r2.image.payload_bytes < r1.image.payload_bytes / 2

    def test_stored_image_annotations_do_not_follow_the_task(self):
        """The captured ``shadow_dirty`` set is a copy: re-arming and later
        tracking faults change the task's set, never the stored image's."""
        k = Kernel(ncpus=1, seed=11)
        mech = Libckpt(k, RemoteStorage())
        wl = SparseWriter(
            iterations=30_000, dirty_fraction=0.02, heap_bytes=1 << 20, seed=3
        )
        t = wl.spawn(k)
        mech.prepare_target(t)
        k.run_for(20_000_000)
        run_request(k, mech.request_checkpoint(t))
        k.run_for(2_000_000)
        r2 = mech.request_checkpoint(t)
        run_request(k, r2)
        stored = r2.image.user_state["annotations"]["shadow_dirty"]
        assert stored is not t.annotations["shadow_dirty"]
        size = len(stored)
        k.run_for(5_000_000)
        assert t.annotations["shadow_dirty"]  # the task kept dirtying pages
        assert len(stored) == size

    def test_sigsegv_tracking_faults_charged_to_app(self):
        k = Kernel(ncpus=1, seed=11)
        mech = Libckpt(k, RemoteStorage())
        wl = SparseWriter(
            iterations=30_000, dirty_fraction=0.02, heap_bytes=1 << 20, seed=3
        )
        t = wl.spawn(k)
        mech.prepare_target(t)
        r1 = mech.request_checkpoint(t)
        run_request(k, r1)
        faults_before = t.acct.tracking_faults
        k.run_for(20_000_000)
        assert t.acct.tracking_faults > faults_before
        # Each tracking fault delivered a SIGSEGV to the user handler.
        assert t.acct.signals_received >= t.acct.tracking_faults

    def test_incremental_restart_equivalence(self):
        k = Kernel(ncpus=1, seed=11)
        mech = Libckpt(k, RemoteStorage())

        def ctor():
            return SparseWriter(
                iterations=2_000, dirty_fraction=0.02, heap_bytes=512 * 1024, seed=3
            )

        t = ctor().spawn(k)
        mech.prepare_target(t)
        r1 = mech.request_checkpoint(t)
        run_request(k, r1)
        k.run_for(20_000_000)
        r2 = mech.request_checkpoint(t)
        run_request(k, r2)
        assert r2.state == RequestState.DONE
        res = mech.restart(r2.key)  # walks the delta chain
        digest = finish_and_digest(k, res.task)
        assert digest == reference_digest(ctor, seed=11, ncpus=1)


class TestKernelPersistentState:
    def test_user_level_cannot_restore_socket_on_other_node(self):
        k1 = Kernel(ncpus=1, seed=11, node_id=0)
        k2 = Kernel(ncpus=1, seed=12, node_id=1)
        mech = Condor(k1, RemoteStorage())
        wl = SocketApp(iterations=5_000)
        t = wl.spawn(k1)
        mech.prepare_target(t)
        k1.run_for(3_000_000)
        req = mech.request_checkpoint(t)
        run_request(k1, req)
        assert req.state == RequestState.DONE
        with pytest.raises(IncompatibleStateError):
            mech.restart(req.key, target_kernel=k2)

    def test_same_node_socket_restore_allowed_when_port_free(self):
        k1 = Kernel(ncpus=1, seed=11, node_id=0)
        mech = Condor(k1, RemoteStorage())
        wl = SocketApp(iterations=5_000)
        t = wl.spawn(k1)
        mech.prepare_target(t)
        k1.run_for(3_000_000)
        req = mech.request_checkpoint(t)
        run_request(k1, req)
        # Process dies with the "node" but the port frees up.
        k1.stop_task(t)
        k1._exit_task(t, code=1)
        k1.ports_in_use.discard(wl.local_port)
        res = mech.restart(req.key)
        assert res.task.alive()


class TestPreload:
    def test_shadow_tracking_overhead(self):
        k = Kernel(seed=2)
        mech = PreloadCkpt(k, LocalDiskStorage(0))

        def factory(task, step):
            def gen():
                for i in range(100):
                    yield ops.Syscall(name="mmap", args=(f"anon{i}", 4096))
                yield ops.Exit(code=0)

            return gen()

        plain = k.spawn_process("plain", factory)
        k.run_until_exit(plain, limit_ns=10**12)
        wrapped = k.spawn_process("wrapped", factory)
        mech.prepare_target(wrapped)
        k.run_until_exit(wrapped, limit_ns=10**12)
        assert wrapped.acct.cpu_ns > plain.acct.cpu_ns
        assert len(wrapped.annotations["preload_shadow"]["mmaps"]) == 100

    def test_preload_roundtrip(self):
        k = Kernel(ncpus=2, seed=11)
        mech = PreloadCkpt(k, RemoteStorage())
        t = make_writer().spawn(k)
        mech.prepare_target(t)
        k.run_for(5_000_000)
        req = mech.request_checkpoint(t)
        run_request(k, req)
        assert req.state == RequestState.DONE


class TestLibtckpt:
    def test_thread_barrier_checkpoints_leader(self):
        k = Kernel(ncpus=2, seed=11)
        mech = Libtckpt(k, LocalDiskStorage(0))
        wl = ThreadedWorkload(nthreads=3, iterations=5_000, heap_bytes=512 * 1024)
        threads = wl.spawn_group(k)
        for t in threads:
            mech.prepare_target(t)
        k.run_for(3_000_000)
        req = mech.request_checkpoint(threads[0])
        run_request(k, req)
        assert req.state == RequestState.DONE


class TestParallelUserLevel:
    @pytest.mark.parametrize("cls", [CoCheck, CLIP, CCIFT])
    def test_coordinated_job(self, cls):
        k = Kernel(ncpus=4, seed=11)
        mech = cls(k, RemoteStorage())
        ranks = [
            make_writer(iterations=50_000, seed=i).spawn(k, name=f"rank{i}")
            for i in range(3)
        ]
        for r in ranks:
            mech.prepare_target(r)
        k.run_for(3_000_000)
        reqs = mech.checkpoint_job(ranks)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 10_000_000_000,
            until=lambda: all(
                r.state in (RequestState.DONE, RequestState.FAILED) for r in reqs
            ),
        )
        assert all(r.state == RequestState.DONE for r in reqs)
        flush = mech.FLUSH_NS_PER_RANK * len(ranks)
        assert all(r.initiation_latency_ns >= flush for r in reqs)

    def test_empty_job_rejected(self):
        k = Kernel(seed=1)
        mech = CoCheck(k, RemoteStorage())
        with pytest.raises(CheckpointError):
            mech.checkpoint_job([])
