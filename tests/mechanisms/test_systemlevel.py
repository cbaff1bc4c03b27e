"""Integration tests for the system-level mechanism models."""

from __future__ import annotations

import pytest

from repro.core.checkpointer import RequestState
from repro.errors import CheckpointError
from repro.simkernel import Kernel, TaskState, ops
from repro.storage import LocalDiskStorage, NullStorage, RemoteStorage
from repro.mechanisms import (
    BLCR,
    BProc,
    CheckpointMT,
    CHPOX,
    CRAK,
    EPCKPT,
    LamMpi,
    PsncRC,
    SoftwareSuspend,
    UCLiK,
    VMADump,
    ZAP,
)
from repro.workloads import SparseWriter, ThreadedWorkload, memory_digest

from mech_helpers import finish_and_digest, make_writer, reference_digest, run_request


def checkpoint_restart_roundtrip(mech_cls, storage_factory, kernel_seed=11):
    """Shared scenario: run, checkpoint, restart, compare to clean run."""
    k = Kernel(ncpus=2, seed=kernel_seed)
    mech = mech_cls(k, storage_factory())
    wl = make_writer()
    t = wl.spawn(k)
    mech.prepare_target(t)
    k.run_for(5_000_000)
    req = mech.request_checkpoint(t)
    run_request(k, req)
    assert req.state == RequestState.DONE, req.error
    res = mech.restart(req.key)
    digest = finish_and_digest(k, res.task)
    ref = reference_digest(make_writer, seed=kernel_seed)
    assert digest == ref
    return k, mech, t, req, res


class TestVMADump:
    def test_roundtrip(self):
        checkpoint_restart_roundtrip(VMADump, RemoteStorage)

    def test_app_invokes_syscall_itself(self):
        k = Kernel(seed=1)
        mech = VMADump(k, LocalDiskStorage(0))

        def factory(task, step):
            def gen():
                yield ops.MemWrite(vma="heap", offset=0, nbytes=8192, seed=1)
                key = yield mech.checkpoint_op()
                task.annotations["ckpt_key"] = key
                yield ops.Compute(ns=1_000)
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("selfckpt", factory)
        k.run_until_exit(t, limit_ns=10**12)
        assert t.annotations["ckpt_key"].startswith("VMADump/")
        assert mech.completed_requests()

    def test_cannot_unload_static_extension(self):
        k = Kernel(seed=1)
        mech = VMADump(k, LocalDiskStorage(0))
        with pytest.raises(CheckpointError):
            mech.uninstall()


class TestBProc:
    def test_migration_moves_process_between_nodes(self):
        k_src = Kernel(ncpus=2, seed=11, node_id=0)
        k_dst = Kernel(ncpus=2, seed=12, node_id=1)
        mech = BProc(k_src, NullStorage())
        wl = make_writer()
        t = wl.spawn(k_src)
        k_src.run_for(5_000_000)
        req = mech.migrate(t, k_dst)
        run_request(k_src, req)
        assert req.state == RequestState.DONE
        assert not t.alive()  # source process exits after the move
        moved = [x for x in k_dst.tasks.values() if x.name.endswith(":r")]
        assert len(moved) == 1
        digest = finish_and_digest(k_dst, moved[0])
        assert digest == reference_digest(make_writer)


class TestEPCKPT:
    def test_requires_launcher(self):
        k = Kernel(seed=1)
        mech = EPCKPT(k, LocalDiskStorage(0))
        t = make_writer().spawn(k)
        with pytest.raises(CheckpointError):
            mech.request_checkpoint(t)

    def test_roundtrip_with_launcher(self):
        checkpoint_restart_roundtrip(EPCKPT, lambda: LocalDiskStorage(0))

    def test_launcher_tracing_adds_syscall_overhead(self):
        def run(traced: bool) -> int:
            k = Kernel(seed=2)
            mech = EPCKPT(k, LocalDiskStorage(0))

            def factory(task, step):
                def gen():
                    for i in range(200):
                        yield ops.Syscall(name="open", args=(f"/f{i}", True))
                    yield ops.Exit(code=0)

                return gen()

            t = k.spawn_process("app", factory)
            if traced:
                mech.prepare_target(t)
            k.run_until_exit(t, limit_ns=10**12)
            return t.acct.cpu_ns

        assert run(traced=True) > run(traced=False)

    def test_signal_initiation_latency_recorded(self):
        k = Kernel(seed=3)
        mech = EPCKPT(k, LocalDiskStorage(0))
        t = make_writer().spawn(k)
        mech.prepare_target(t)
        k.run_for(3_000_000)
        req = mech.request_checkpoint(t)
        run_request(k, req)
        assert req.state == RequestState.DONE
        assert req.initiation_latency_ns is not None
        assert req.initiation_latency_ns >= 0


class TestCHPOX:
    def test_registration_via_proc_required(self):
        k = Kernel(seed=1)
        mech = CHPOX(k, LocalDiskStorage(0))
        t = make_writer().spawn(k)
        with pytest.raises(CheckpointError):
            mech.request_checkpoint(t)

    def test_proc_entry_exists_and_lists_pids(self):
        k = Kernel(seed=1)
        mech = CHPOX(k, LocalDiskStorage(0))
        t = make_writer().spawn(k)
        mech.prepare_target(t)
        entry = k.vfs.lookup("/proc/chpox")
        assert str(t.pid).encode() in entry.read(0, 100)

    def test_roundtrip(self):
        checkpoint_restart_roundtrip(CHPOX, lambda: LocalDiskStorage(0))

    def test_module_unload_removes_hooks(self):
        k = Kernel(seed=1)
        mech = CHPOX(k, LocalDiskStorage(0))
        assert k.vfs.exists("/proc/chpox")
        mech.uninstall()
        assert not k.vfs.exists("/proc/chpox")
        assert "chpox" not in k.modules


class TestCRAKFamily:
    def test_crak_roundtrip(self):
        checkpoint_restart_roundtrip(CRAK, RemoteStorage)

    def test_crak_device_node(self):
        k = Kernel(seed=1)
        CRAK(k, RemoteStorage())
        assert k.vfs.exists("/dev/crak")

    def test_crak_stops_target_during_capture(self):
        k = Kernel(ncpus=2, seed=11)
        mech = CRAK(k, RemoteStorage())
        t = make_writer(iterations=3000).spawn(k)
        k.run_for(5_000_000)
        req = mech.request_checkpoint(t)
        run_request(k, req)
        assert req.target_stall_ns > 0
        assert t.acct.stall_ns > 0

    def test_crak_migration(self):
        k_src = Kernel(ncpus=2, seed=11, node_id=0)
        k_dst = Kernel(ncpus=2, seed=13, node_id=1)
        # One shared engine is not required: migrate drives only k_src's
        # clock; the destination gets a ready task.
        mech = CRAK(k_src, RemoteStorage())
        t = make_writer().spawn(k_src)
        k_src.run_for(5_000_000)
        req = mech.migrate(t, k_dst)
        run_request(k_src, req)
        k_src.run_for(10_000_000)  # let the deferred restore+kill run
        assert not t.alive()
        moved = [x for x in k_dst.tasks.values() if x.name.endswith(":r")]
        assert len(moved) == 1

    def test_failed_migration_keeps_source_and_stops_watching(self):
        def run(migrate):
            k_src = Kernel(ncpus=2, seed=11, node_id=0)
            k_dst = Kernel(ncpus=2, seed=13, node_id=1)
            storage = LocalDiskStorage(0)
            mech = CRAK(k_src, storage)
            t = make_writer(iterations=3000).spawn(k_src)
            k_src.run_for(5_000_000)
            storage.mark_node_failed()
            if migrate:
                req = mech.migrate(t, k_dst)
            else:
                req = mech.request_checkpoint(t)
            run_request(k_src, req)
            assert req.state == RequestState.FAILED
            assert t.alive()  # nothing was moved, so nothing is killed
            before = k_src.engine.metrics.counters()["engine.events"]
            k_src.run_for(10 * 10**9)
            events = k_src.engine.metrics.counters()["engine.events"] - before
            assert t.exit_code == 0
            assert not k_dst.tasks
            return events, k_src.engine.pending()

        # A failed migrate schedules nothing beyond what a failed
        # checkpoint does: no poll re-arms itself forever.
        assert run(migrate=True) == run(migrate=False)

    def test_uclik_restores_pid_and_deleted_files(self):
        k = Kernel(ncpus=2, seed=11)
        mech = UCLiK(k, LocalDiskStorage(0))
        k.vfs.create("/data/scratch.dat", b"payload-bytes")

        def factory(task, step):
            def gen():
                fd = yield ops.Syscall(name="open", args=("/data/scratch.dat",))
                yield ops.Syscall(name="lseek", args=(fd, 7, "set"))
                yield ops.Syscall(name="unlink", args=("/data/scratch.dat",))
                for i in range(2000):
                    yield ops.Compute(ns=20_000)
                yield ops.Exit(code=0)

            return gen()

        from repro.workloads import Workload

        t = k.spawn_process("uclik-app", factory)
        k.run_for(3_000_000)
        orig_pid = t.pid
        req = mech.request_checkpoint(t)
        run_request(k, req)
        assert req.state == RequestState.DONE
        # Kill the original so its pid frees up.
        k.stop_task(t)
        k._exit_task(t, code=1)
        k.reap(t)
        # The image rescued the deleted file's bytes.
        fd_rec = [f for f in req.image.fds if f.path == "/data/scratch.dat"][0]
        assert fd_rec.rescued_content == b"payload-bytes"
        assert fd_rec.offset == 7

    def test_zap_virtualizes_and_adds_overhead(self):
        k = Kernel(seed=5)
        mech = ZAP(k, NullStorage())

        def factory(task, step):
            def gen():
                for _ in range(300):
                    yield ops.Syscall(name="getpid")
                yield ops.Exit(code=0)

            return gen()

        t_plain = k.spawn_process("plain", factory)
        k.run_until_exit(t_plain, limit_ns=10**12)
        t_pod = k.spawn_process("podded", factory)
        mech.prepare_target(t_pod)
        k.run_until_exit(t_pod, limit_ns=10**12)
        assert t_pod.acct.cpu_ns > t_plain.acct.cpu_ns
        assert "pod" in t_pod.annotations


class TestBLCR:
    def test_requires_registration(self):
        k = Kernel(seed=1)
        mech = BLCR(k, RemoteStorage())
        t = make_writer().spawn(k)
        with pytest.raises(CheckpointError):
            mech.request_checkpoint(t)

    def test_roundtrip_single_threaded(self):
        checkpoint_restart_roundtrip(BLCR, RemoteStorage)

    def test_registration_maps_library(self):
        k = Kernel(seed=1)
        mech = BLCR(k, RemoteStorage())
        t = make_writer().spawn(k)
        mech.prepare_target(t)
        assert t.mm.has_vma("libcr.so")
        assert t.annotations["blcr_registered"]

    def test_multithreaded_group_checkpoint_and_restart(self):
        k = Kernel(ncpus=2, seed=11)
        mech = BLCR(k, RemoteStorage())
        wl = ThreadedWorkload(nthreads=3, iterations=500, heap_bytes=512 * 1024)
        threads = wl.spawn_group(k)
        for t in threads:
            mech.prepare_target(t)
        k.run_for(5_000_000)
        req = mech.request_checkpoint(threads[0])
        run_request(k, req)
        assert req.state == RequestState.DONE
        assert len(req.image.user_state["threads"]) == 3
        restored = mech.restart_group(req.key)
        assert len(restored) == 3
        k.run_for(10**10)
        new_tasks = [
            r.task if hasattr(r, "task") else r for r in restored
        ]
        assert len({id(t.mm) for t in new_tasks}) == 1  # shared mm
        for t in new_tasks:
            k.run_until_exit(t, limit_ns=10**13)


class TestLamMpi:
    def test_coordinated_job_checkpoint(self):
        k = Kernel(ncpus=4, seed=11)
        mech = LamMpi(k, RemoteStorage())
        ranks = [make_writer(seed=i).spawn(k, name=f"rank{i}") for i in range(4)]
        for r in ranks:
            mech.prepare_target(r)
        k.run_for(3_000_000)
        reqs = mech.checkpoint_job(ranks)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 5_000_000_000,
            until=lambda: all(
                r.state in (RequestState.DONE, RequestState.FAILED) for r in reqs
            ),
        )
        assert all(r.state == RequestState.DONE for r in reqs)
        # Coordination barrier: no capture starts before the drain ends.
        drain = mech.DRAIN_NS_PER_RANK * len(ranks)
        for r in reqs:
            assert r.initiation_latency_ns >= drain

    def test_restart_job(self):
        k = Kernel(ncpus=4, seed=11)
        mech = LamMpi(k, RemoteStorage())
        ranks = [make_writer(seed=i).spawn(k, name=f"rank{i}") for i in range(2)]
        for r in ranks:
            mech.prepare_target(r)
        k.run_for(3_000_000)
        reqs = mech.checkpoint_job(ranks)
        k.start()
        k.engine.run(
            until_ns=k.engine.now_ns + 5_000_000_000,
            until=lambda: all(r.state == RequestState.DONE for r in reqs),
        )
        results = mech.restart_job([r.key for r in reqs])
        assert len(results) == 2
        for res in results:
            k.run_until_exit(res.task, limit_ns=10**13)
            assert res.task.exit_code == 0


class TestPsncRC:
    def test_no_data_filtering_saves_code_and_libs(self):
        k = Kernel(ncpus=2, seed=11)
        mech = PsncRC(k, LocalDiskStorage(0))
        crak = CRAK(k, RemoteStorage())
        wl = make_writer(iterations=20_000)
        t = wl.spawn(k)
        # Touch a code page so it is resident.
        t.mm.vma("code").ensure_page(0)
        t.mm.vma("libc.so").ensure_page(0)
        k.run_for(5_000_000)
        r1 = mech.request_checkpoint(t)
        run_request(k, r1)
        r2 = crak.request_checkpoint(t)
        run_request(k, r2)
        vmas_in_psnc = {c.vma for c in r1.image.chunks}
        vmas_in_crak = {c.vma for c in r2.image.chunks}
        assert "code" in vmas_in_psnc and "libc.so" in vmas_in_psnc
        assert "code" not in vmas_in_crak and "libc.so" not in vmas_in_crak
        # PsncR/C pays for the unfiltered kinds: code+lib chunks present.
        extra = [c for c in r1.image.chunks if c.vma in ("code", "libc.so")]
        assert len(extra) >= 2


class TestSoftwareSuspend:
    def test_suspend_freezes_everything_and_halts(self):
        k = Kernel(ncpus=2, seed=11)
        mech = SoftwareSuspend(k, LocalDiskStorage(0))
        apps = [make_writer(seed=i).spawn(k, name=f"app{i}") for i in range(3)]
        k.run_for(3_000_000)
        req = mech.suspend(power_down=True)
        run_request(k, req, timeout_ns=30_000_000_000)
        assert req.state == RequestState.DONE
        assert all(a.state == TaskState.STOPPED for a in apps if a.alive())
        assert k._halted

    def test_resume_on_fresh_kernel(self):
        k = Kernel(ncpus=2, seed=11)
        storage = LocalDiskStorage(0)
        mech = SoftwareSuspend(k, storage)
        apps = [make_writer(seed=i).spawn(k, name=f"app{i}") for i in range(2)]
        k.run_for(3_000_000)
        req = mech.suspend(power_down=True)
        run_request(k, req, timeout_ns=30_000_000_000)
        # Reboot: fresh kernel, same disk.
        k2 = Kernel(ncpus=2, seed=99)
        results = mech.resume_system(k2)
        assert sorted(res.task.name for res in results) == ["app0", "app1"]
        for res in results:
            seed = int(res.task.name[len("app"):])
            digest = finish_and_digest(k2, res.task)
            assert res.task.exit_code == 0
            assert digest == reference_digest(lambda: make_writer(seed=seed))

    def test_roundtrip(self):
        """restart(req.key) restores the request's process from the
        stored system image."""
        k, mech, t, req, res = checkpoint_restart_roundtrip(
            SoftwareSuspend, lambda: LocalDiskStorage(0)
        )
        assert res.task.name == t.name + ":r"
        assert t.state == TaskState.STOPPED  # the suspended original stays frozen

    def test_chain_available_probes_the_system_image(self):
        """The availability probe accepts the keys restart accepts,
        although a suspend stores only the one system image."""
        k = Kernel(ncpus=2, seed=11)
        mech = SoftwareSuspend(k, LocalDiskStorage(0))
        apps = [make_writer(seed=i).spawn(k, name=f"app{i}") for i in range(2)]
        k.run_for(3_000_000)
        req = mech.suspend(power_down=False)
        assert not mech.chain_available(req.key)  # nothing stored yet
        run_request(k, req, timeout_ns=30_000_000_000)
        assert req.state == RequestState.DONE
        assert mech.chain_available(req.key)
        for app in apps:
            assert mech.chain_available(f"{req.key}/pid{app.pid}")
        assert not mech.chain_available(f"{req.key}/pid999999")
        assert not mech.chain_available("no-such-request")
        assert mech.restart(req.key).task.name == apps[0].name + ":r"


class TestCheckpointMT:
    def test_stall_is_fork_only_and_capture_concurrent(self):
        k = Kernel(ncpus=2, seed=11)
        cm = CheckpointMT(k, LocalDiskStorage(0))
        crak = CRAK(k, RemoteStorage())
        wl = make_writer(iterations=3000)
        t = wl.spawn(k)
        k.run_for(5_000_000)
        r_mt = cm.request_checkpoint(t)
        run_request(k, r_mt)
        t2 = make_writer(iterations=3000, seed=8).spawn(k)
        k.run_for(5_000_000)
        r_crak = crak.request_checkpoint(t2)
        run_request(k, r_crak)
        # The fork/COW scheme stalls the app far less than stop-and-copy.
        assert r_mt.target_stall_ns < r_crak.target_stall_ns / 3

    def test_image_is_fork_time_consistent(self):
        k = Kernel(ncpus=2, seed=11)
        cm = CheckpointMT(k, LocalDiskStorage(0))
        wl = make_writer(iterations=3000)
        t = wl.spawn(k)
        k.run_for(5_000_000)
        req = cm.request_checkpoint(t)
        step_at_fork = t.main_steps
        run_request(k, req)
        # The image reflects the moment of the fork, not completion time.
        assert req.image.step <= step_at_fork + wl.ops_per_iteration

    def test_restart_from_concurrent_image(self):
        k = Kernel(ncpus=2, seed=11)
        cm = CheckpointMT(k, LocalDiskStorage(0))
        wl = make_writer()
        t = wl.spawn(k)
        k.run_for(5_000_000)
        req = cm.request_checkpoint(t)
        run_request(k, req)
        res = cm.restart(req.key)
        digest = finish_and_digest(k, res.task)
        assert digest == reference_digest(make_writer)
