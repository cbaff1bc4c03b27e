"""Edge cases across the mechanism models."""

from __future__ import annotations

import pytest

from repro.core.checkpointer import RequestState
from repro.errors import CheckpointError, StorageError
from repro.mechanisms import (
    BLCR,
    CheckpointMT,
    CHPOX,
    CRAK,
    EPCKPT,
    SoftwareSuspend,
    ZAP,
)
from repro.simkernel import Kernel, Sig, TaskState, ops
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.storage import LocalDiskStorage, MemoryStorage, NullStorage, RemoteStorage
from repro.workloads import SparseWriter, ThreadedWorkload

from mech_helpers import make_writer, run_request


class TestEPCKPTSyscallPath:
    def test_tool_invokes_checkpoint_by_pid(self):
        """The launcher tool path: epckpt_checkpoint(pid) from another
        process."""
        k = Kernel(ncpus=2, seed=3)
        mech = EPCKPT(k, LocalDiskStorage(0))
        target = make_writer(iterations=20_000).spawn(k, name="victim")
        mech.prepare_target(target)
        got = {}

        def tool_factory(task, step):
            def gen():
                res = yield ops.Syscall(name="epckpt_checkpoint", args=(target.pid,))
                got["key"] = res
                yield ops.Exit(code=0)

            return gen()

        tool = k.spawn_process("epckpt-tool", tool_factory)
        k.run_until_exit(tool, limit_ns=10**12)
        assert got["key"].startswith("EPCKPT/")
        k.run_for(100 * NS_PER_MS)
        assert mech.completed_requests()

    def test_op_in_flight_under_tool_capture_still_counts(self):
        """The tool pushes the capture frame from another CPU while the
        target's op is in flight: that op is still a main-program step,
        so the target ends at its declared step count."""
        k = Kernel(ncpus=2, seed=3)
        mech = EPCKPT(k, LocalDiskStorage(0))
        wl = make_writer(iterations=200)
        target = wl.spawn(k, name="victim")
        mech.prepare_target(target)

        def tool_factory(task, step):
            yield ops.Syscall(name="epckpt_checkpoint", args=(target.pid,))
            yield ops.Exit(code=0)

        k.spawn_process("epckpt-tool", tool_factory)
        k.run_until_exit(target, limit_ns=10**13)
        assert mech.completed_requests()
        assert target.exit_code == 0
        assert target.main_steps == wl.setup_ops + wl.iterations * wl.ops_per_iteration

    def test_untraced_target_rejected_via_syscall(self):
        k = Kernel(seed=3)
        mech = EPCKPT(k, LocalDiskStorage(0))
        target = make_writer(iterations=20_000).spawn(k)
        got = {}

        def tool_factory(task, step):
            def gen():
                res = yield ops.Syscall(name="epckpt_checkpoint", args=(target.pid,))
                got["res"] = res
                yield ops.Exit(code=0)

            return gen()

        # The syscall handler raises CheckpointError (not a SyscallError),
        # which propagates out of the simulation -- a kernel bug in real
        # life; here we assert the mechanism-level rejection instead.
        with pytest.raises(CheckpointError):
            mech._sys_checkpoint(k, target, target.pid)


class TestCHPOXEdges:
    def test_signal_to_unregistered_pid_is_noop(self):
        k = Kernel(seed=3)
        mech = CHPOX(k, LocalDiskStorage(0))
        t = make_writer(iterations=20_000).spawn(k)
        # SIGSYS default via the module is the kernel action; without
        # registration the action ignores the process (and crucially does
        # NOT kill it, unlike bare SIGSYS).
        k.run_for(2 * NS_PER_MS)
        k.post_signal(t.pid, Sig.SIGSYS)
        k.run_for(10 * NS_PER_MS)
        assert t.alive()
        assert not mech.completed_requests()

    def test_proc_registration_validates_pid(self):
        k = Kernel(seed=3)
        mech = CHPOX(k, LocalDiskStorage(0))
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            mech._proc_write(b"99999")


class TestZapPodState:
    def test_pod_annotation_travels_in_image(self):
        k = Kernel(ncpus=2, seed=3)
        mech = ZAP(k, NullStorage())
        t = make_writer(iterations=20_000).spawn(k)
        mech.prepare_target(t)
        k.run_for(3 * NS_PER_MS)
        req = mech.request_checkpoint(t)
        run_request(k, req)
        assert req.state == RequestState.DONE
        ann = req.image.user_state["annotations"]
        assert "pod" in ann
        assert ann["pod"]["origin_node"] == k.node_id

    def test_null_storage_consumed_on_restart(self):
        k = Kernel(ncpus=2, seed=3)
        mech = ZAP(k, NullStorage())
        t = make_writer(iterations=50_000).spawn(k)
        mech.prepare_target(t)
        k.run_for(3 * NS_PER_MS)
        req = mech.request_checkpoint(t)
        run_request(k, req)
        res = mech.restart(req.key)
        assert res.task is not None
        # The migration pipe is consumed: a second restart fails.
        with pytest.raises(StorageError):
            mech.restart(req.key)


class TestBLCRGroupCrossNode:
    def test_thread_group_restart_on_other_node(self):
        k1 = Kernel(ncpus=2, seed=3, node_id=0)
        k2 = Kernel(ncpus=2, seed=4, node_id=1)
        mech = BLCR(k1, RemoteStorage())
        wl = ThreadedWorkload(nthreads=2, iterations=50_000, heap_bytes=256 * 1024)
        threads = wl.spawn_group(k1)
        for t in threads:
            mech.prepare_target(t)
        k1.run_for(3 * NS_PER_MS)
        req = mech.request_checkpoint(threads[0])
        run_request(k1, req)
        assert req.state == RequestState.DONE
        restored = mech.restart_group(req.key, target_kernel=k2)
        tasks = [r.task if hasattr(r, "task") else r for r in restored]
        assert len(tasks) == 2
        assert all(t.node_id == 1 for t in tasks)
        assert len({id(t.mm) for t in tasks}) == 1

    def test_restart_group_rejects_single_image(self):
        k = Kernel(ncpus=2, seed=3)
        mech = BLCR(k, RemoteStorage())
        t = make_writer(iterations=50_000).spawn(k)
        mech.prepare_target(t)
        k.run_for(3 * NS_PER_MS)
        req = mech.request_checkpoint(t)
        run_request(k, req)
        from repro.errors import RestartError

        with pytest.raises(RestartError):
            mech.restart_group(req.key)


class TestSoftwareSuspendStandby:
    def test_standby_image_lost_on_power_failure(self):
        k = Kernel(ncpus=2, seed=3)
        storage = MemoryStorage()
        mech = SoftwareSuspend(k, storage)
        apps = [make_writer(iterations=50_000, seed=i).spawn(k) for i in range(2)]
        k.run_for(3 * NS_PER_MS)
        req = mech.suspend(power_down=False)
        run_request(k, req, timeout_ns=60 * NS_PER_S)
        assert req.state == RequestState.DONE
        assert storage.exists(mech.SYSTEM_KEY)
        # Standby keeps the image in RAM: a power failure loses it.
        storage.power_loss()
        k2 = Kernel(ncpus=2, seed=9)
        with pytest.raises(StorageError):
            mech.resume_system(k2)

    def test_unfreeze_thaws_everyone(self):
        k = Kernel(ncpus=2, seed=3)
        mech = SoftwareSuspend(k, LocalDiskStorage(0))
        apps = [make_writer(iterations=50_000, seed=i).spawn(k) for i in range(2)]
        k.run_for(3 * NS_PER_MS)
        req = mech.suspend(power_down=False)
        run_request(k, req, timeout_ns=60 * NS_PER_S)
        assert all(a.state == TaskState.STOPPED for a in apps)
        n = mech.unfreeze()
        assert n == 2
        k.run_for(5 * NS_PER_MS)
        assert all(a.state in (TaskState.READY, TaskState.RUNNING) for a in apps)


class TestCheckpointMTSelfInvocation:
    def test_app_invokes_checkpoint_mt_syscall(self):
        k = Kernel(ncpus=2, seed=3)
        mech = CheckpointMT(k, LocalDiskStorage(0))
        got = {}

        def factory(task, step):
            def gen():
                yield ops.MemWrite(vma="heap", offset=0, nbytes=8192, seed=1)
                key = yield ops.Syscall(name="checkpoint_mt")
                got["key"] = key
                for _ in range(200):
                    yield ops.Compute(ns=100_000)
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("selfmt", factory)
        k.run_until_exit(t, limit_ns=10**12)
        k.run_for(100 * NS_PER_MS)
        assert got["key"].startswith("Checkpoint/")
        assert mech.completed_requests()
        # The forked capture child was reaped.
        leftovers = [x for x in k.tasks.values() if x.name.endswith("-child")]
        assert not leftovers


class TestCoordinatorNoOverlap:
    def test_waves_do_not_overlap(self):
        """A new wave is not started while one is in flight."""
        from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
        from repro.core.direction import AutonomicCheckpointer

        cl = Cluster(n_nodes=2, seed=5)
        job = ParallelJob(
            cl,
            lambda r: SparseWriter(
                iterations=30_000, dirty_fraction=0.02, heap_bytes=1 << 20,
                seed=r, compute_ns=100_000,
            ),
            n_ranks=2,
        )
        mechs = {
            n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
            for n in cl.nodes
        }
        # Interval far shorter than a capture: waves would pile up if
        # overlap were allowed.
        coord = CheckpointCoordinator(job, mechs, interval_ns=2 * NS_PER_MS)
        coord.start()
        cl.run_for(100 * NS_PER_MS)
        total_reqs = sum(len(m.requests) for m in mechs.values())
        # Every recorded wave is complete (both ranks), and the number of
        # issued requests matches completed waves + at most one in flight.
        assert all(len(w) == 2 for w in coord.waves)
        assert total_reqs <= (len(coord.waves) + 1) * 2
