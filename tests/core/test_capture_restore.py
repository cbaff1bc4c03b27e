"""Unit tests for the shared capture/restore machinery edge cases."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.capture import (
    DEFAULT_SKIP_KINDS,
    load_image,
    restore_image,
    select_pages,
    snapshot_metadata,
)
from repro.core.checkpointer import Checkpointer, RequestState
from repro.core.image import CheckpointImage, Chunk, materialize_chain
from repro.errors import (
    CheckpointError,
    IncompatibleStateError,
    RestartError,
    StorageError,
)
from repro.mechanisms import CRAK
from repro.simkernel import Kernel, ops
from repro.simkernel.memory import VMAKind
from repro.storage import LocalDiskStorage, MemoryStorage, RemoteStorage, StorageKind
from repro.workloads import SharedMemoryApp, SparseWriter, memory_digest


def checkpoint_of(kernel, mech, task):
    req = mech.request_checkpoint(task)
    kernel.start()
    kernel.engine.run(
        until_ns=kernel.engine.now_ns + 10**12,
        until=lambda: req.state in (RequestState.DONE, RequestState.FAILED),
    )
    assert req.state == RequestState.DONE, req.error
    return req


class TestSelectPages:
    def _task(self):
        k = Kernel(seed=2)
        wl = SparseWriter(iterations=50, dirty_fraction=0.1, heap_bytes=256 * 1024)
        t = wl.spawn(k)
        t.mm.vma("code").ensure_page(0)
        t.mm.vma("libc.so").ensure_page(0)
        k.run_until_exit(t, limit_ns=10**12)
        return k, t

    def test_full_selection_filters_kinds(self):
        k, t = self._task()
        pages = select_pages(k, t, incremental=False)
        vmas = {v for v, _ in pages}
        assert "code" not in vmas and "libc.so" not in vmas
        assert "heap" in vmas

    def test_no_filtering_includes_everything(self):
        k, t = self._task()
        pages = select_pages(k, t, data_filtering=False)
        vmas = {v for v, _ in pages}
        assert {"code", "libc.so", "heap"} <= vmas

    def test_incremental_selection_uses_dirty_bits(self):
        k, t = self._task()
        t.mm.protect_for_tracking()
        assert select_pages(k, t, incremental=True) == []
        heap = t.mm.vma("heap")
        t.mm.write_access(heap, 0, 0, 8)
        assert select_pages(k, t, incremental=True) == [("heap", 0)]


class TestSnapshotMetadata:
    def test_filters_mechanism_internals_from_annotations(self):
        k = Kernel(seed=2)
        wl = SparseWriter(iterations=10, heap_bytes=64 * 1024)
        t = wl.spawn(k)
        t.annotations["dirty_log"] = object()
        t.annotations["interpose"] = {}
        t.annotations["my_app_state"] = 42
        img = CheckpointImage(
            key="x", mechanism="m", pid=0, task_name="", node_id=0, step=0, registers={}
        )
        snapshot_metadata(k, t, img)
        ann = img.user_state["annotations"]
        assert ann.get("my_app_state") == 42
        assert "dirty_log" not in ann
        assert "interpose" not in ann
        assert img.user_state["workload"] is wl


class TestRestoreEdgeCases:
    def _image(self, kernel=None):
        k = kernel or Kernel(seed=3)
        mech = CRAK(k, RemoteStorage())
        wl = SparseWriter(iterations=10**6, dirty_fraction=0.05, heap_bytes=128 * 1024)
        t = wl.spawn(k)
        k.run_for(3_000_000)
        req = checkpoint_of(k, mech, t)
        return k, mech, t, req

    def test_delta_image_rejected_directly(self):
        img = CheckpointImage(
            key="d", mechanism="m", pid=1, task_name="t", node_id=0,
            step=0, registers={}, parent_key="base",
        )
        with pytest.raises(RestartError):
            restore_image(Kernel(seed=1), img)

    def test_missing_workload_rejected(self):
        img = CheckpointImage(
            key="d", mechanism="m", pid=1, task_name="t", node_id=0,
            step=0, registers={"pc": 0, "sp": 0, "gpr": [0] * 8},
        )
        with pytest.raises(RestartError):
            restore_image(Kernel(seed=1), img)

    def test_missing_open_file_strict_vs_lenient(self):
        k = Kernel(seed=3, node_id=0)
        k.vfs.create("/data/x", b"abc")
        mech = CRAK(k, RemoteStorage())

        def factory(task, step):
            def gen():
                yield ops.Syscall(name="open", args=("/data/x",))
                for _ in range(10**6):
                    yield ops.Compute(ns=50_000)

            return gen()

        wl = SparseWriter(iterations=10**6, heap_bytes=64 * 1024)
        t = wl.spawn(k)
        # Attach an open fd to the workload-driven task.
        f = k.vfs.lookup("/data/x")
        from repro.simkernel.process import FileDescriptor

        t.install_fd(FileDescriptor(fd=7, file=f, offset=1))
        k.run_for(3_000_000)
        req = checkpoint_of(k, mech, t)
        # Restore on a node that lacks the file.
        k2 = Kernel(seed=4, node_id=1)
        with pytest.raises(IncompatibleStateError):
            mech.restart(req.key, target_kernel=k2)
        res = mech.restart(req.key, target_kernel=k2, strict_kernel_state=False)
        assert 7 not in res.task.fds  # silently dropped in lenient mode

    def test_restored_task_resumes_at_aligned_step(self):
        k, mech, t, req = self._image()
        wl = t.annotations["workload"]
        res = mech.restart(req.key)
        assert res.task.main_steps == wl.align_step(req.image.step)
        assert res.task.chain_tip == (mech.storage, req.key)

    def test_restore_charges_io_and_install_time(self):
        k, mech, t, req = self._image()
        res = mech.restart(req.key)
        assert res.io_delay_ns > 0
        assert res.install_delay_ns > 0
        assert res.ready_at_ns >= k.engine.now_ns

    def test_registers_restored_exactly(self):
        k, mech, t, req = self._image()
        res = mech.restart(req.key)
        assert res.task.registers.snapshot() == req.image.registers


class TestCheckpointerBase:
    def test_storage_kind_validation(self):
        k = Kernel(seed=1)
        with pytest.raises(CheckpointError):
            CRAK(k, MemoryStorage())  # CRAK supports local/remote only

    def test_image_chain_walks_parents(self):
        from repro.core.direction import AutonomicCheckpointer

        k = Kernel(seed=5)
        mech = AutonomicCheckpointer(k, RemoteStorage())
        wl = SparseWriter(
            iterations=10**6, dirty_fraction=0.02, heap_bytes=128 * 1024,
            compute_ns=200_000,
        )
        t = wl.spawn(k)
        k.run_for(3_000_000)
        r1 = checkpoint_of(k, mech, t)
        k.run_for(1_000_000)
        r2 = checkpoint_of(k, mech, t)
        k.run_for(1_000_000)
        r3 = checkpoint_of(k, mech, t)
        chain, delay = mech.image_chain(r3.key)
        assert [img.key for img in chain] == [r1.key, r2.key, r3.key]
        assert delay > 0

    def test_request_metrics_consistent(self):
        k = Kernel(seed=5)
        mech = CRAK(k, RemoteStorage())
        wl = SparseWriter(iterations=10**6, heap_bytes=128 * 1024)
        t = wl.spawn(k)
        k.run_for(3_000_000)
        req = checkpoint_of(k, mech, t)
        assert req.total_latency_ns == (
            req.initiation_latency_ns + req.capture_duration_ns
        )
        assert req.target_stall_ns <= req.capture_duration_ns

    def test_incremental_request_on_non_incremental_mechanism(self):
        k = Kernel(seed=5)
        mech = CRAK(k, RemoteStorage())
        wl = SparseWriter(iterations=10**6, heap_bytes=64 * 1024)
        t = wl.spawn(k)
        with pytest.raises(CheckpointError):
            mech._new_request(t, incremental=True)

    def test_load_image_type_check(self):
        k = Kernel(seed=5)
        storage = RemoteStorage()
        storage.store("junk", {"not": "an image"}, 10, 0)
        with pytest.raises(RestartError):
            load_image(k, storage, "junk")


class TestZeroCopyRestore:
    """Restore adopts read-only checkpoint payloads and copies a page
    only on its first in-place write; nothing simulated may change."""

    def _flat(self, wl, seed=3):
        k = Kernel(seed=seed)
        mech = CRAK(k, RemoteStorage())
        t = wl.spawn(k)
        k.run_for(3_000_000)
        req = checkpoint_of(k, mech, t)
        return materialize_chain([req.image], page_size=k.costs.page_size)

    def test_tasks_restored_from_one_memoized_flat_stay_independent(self):
        from repro.core.direction import AutonomicCheckpointer

        k = Kernel(seed=5)
        mech = AutonomicCheckpointer(k, RemoteStorage())
        wl = SparseWriter(iterations=10**6, dirty_fraction=0.05,
                          heap_bytes=128 * 1024, compute_ns=200_000)
        t = wl.spawn(k)
        k.run_for(3_000_000)
        checkpoint_of(k, mech, t)
        k.run_for(1_000_000)
        last = checkpoint_of(k, mech, t)
        a = mech.restart(last.key, target_kernel=Kernel(seed=6)).task
        b = mech.restart(last.key, target_kernel=Kernel(seed=7)).task
        flat = mech._flat_cache[last.key]
        flat_bytes = [bytes(c.data) for c in flat.chunks]
        heap_a, heap_b = a.mm.vma("heap"), b.mm.vma("heap")
        page = int(heap_a.present_pages()[0])
        assert np.shares_memory(heap_a.pages[page], heap_b.pages[page])
        digest_b = memory_digest(b)
        a.mm.write_access(heap_a, page, 16, 64)
        a.mm.fill_pattern(heap_a, page, 16, 64, seed=99)
        assert memory_digest(a) != digest_b
        assert memory_digest(b) == digest_b
        assert [bytes(c.data) for c in flat.chunks] == flat_bytes

    def test_restores_from_one_dedup_chain_share_the_pack_payloads(self):
        from repro.core.direction import AutonomicCheckpointer
        from repro.stablestore import ContentStore

        store = ContentStore(RemoteStorage())
        k = Kernel(seed=5)
        mech = AutonomicCheckpointer(k, store)
        wl = SparseWriter(iterations=10**6, dirty_fraction=0.05,
                          heap_bytes=128 * 1024, compute_ns=200_000)
        t = wl.spawn(k)
        k.run_for(3_000_000)
        checkpoint_of(k, mech, t)
        k.run_for(1_000_000)
        last = checkpoint_of(k, mech, t)
        assert last.image.is_incremental
        payloads = [a for pk in store._pack_members
                    for a in store.inner.peek(pk).values()]
        payload_bytes = [a.tobytes() for a in payloads]

        def restore(seed):
            # A fresh mechanism each time: its own chain load and flatten.
            other = AutonomicCheckpointer(Kernel(seed=seed), store)
            return other.restart(last.key, target_kernel=other.kernel).task

        a, b = restore(6), restore(7)
        heap_a, heap_b = a.mm.vma("heap"), b.mm.vma("heap")
        present = [int(p) for p in heap_a.present_pages()]
        assert present and present == [int(p) for p in heap_b.present_pages()]
        for p in present:
            assert any(np.shares_memory(heap_a.pages[p], x) for x in payloads)
            assert heap_a.pages[p] is heap_b.pages[p]
        digest_b = memory_digest(b)
        page = present[0]
        a.mm.write_access(heap_a, page, 16, 64)
        a.mm.fill_pattern(heap_a, page, 16, 64, seed=99)
        assert memory_digest(a) != digest_b
        assert memory_digest(b) == digest_b
        assert [x.tobytes() for x in payloads] == payload_bytes
        assert memory_digest(restore(8)) == digest_b

    def test_fork_of_adopted_task_charges_like_a_copied_one(self):
        flat = self._flat(SparseWriter(iterations=10**6, dirty_fraction=0.2,
                                       heap_bytes=128 * 1024))
        assert any(c.rows is not None for c in flat.chunks)  # adopted rows
        copied = replace(flat, chunks=[
            Chunk(vma=c.vma, page_index=c.page_index, rows=tuple(r.copy() for r in c.rows))
            if c.rows is not None else
            Chunk(vma=c.vma, page_index=c.page_index, offset=c.offset, data=c.data.copy())
            for c in flat.chunks
        ])
        runs = []
        for image in (flat, copied):
            k = Kernel(seed=8)
            task = restore_image(k, image).task
            child, fork_ns = k.do_fork(task)
            adopted = sum(not a.flags.writeable for a in child.mm.vma("heap").pages.values())
            k.run_for(20_000_000)
            acct = task.acct
            runs.append((adopted, fork_ns, acct.page_faults, acct.cow_copies,
                         acct.cpu_ns, task.main_steps, k.engine.now_ns,
                         memory_digest(task), memory_digest(child)))
        adopted, private = runs
        assert adopted[0] > 0 and private[0] == 0
        assert adopted[3] > 0  # the parent's writes hit COW pages
        assert adopted[1:] == private[1:]

    def test_install_page_copies_a_writable_array(self):
        vma = Kernel(seed=1).make_address_space(layout=[]).map("m", 8 * 4096)
        data = np.full(vma.page_size, 7, dtype=np.uint8)
        vma.install_page(0, data)
        data[:] = 9
        assert vma.pages[0][0] == 7 and vma.pages[0].flags.writeable
        frozen = np.full(vma.page_size, 3, dtype=np.uint8)
        frozen.flags.writeable = False
        vma.install_page(1, frozen)
        assert vma.pages[1] is frozen
        # A writable page installed over a frozen one is a private copy.
        vma.install_pages(1, np.zeros((2, vma.page_size), dtype=np.uint8))
        assert vma.pages[1] is not frozen
        assert all(vma.pages[p].flags.writeable for p in vma.pages)

    def test_restored_shm_vma_stays_shared_after_a_write(self):
        flat = self._flat(SharedMemoryApp(iterations=10**6, shm_key=41,
                                          shm_bytes=16 * 1024))
        k = Kernel(seed=9)
        task = restore_image(k, flat, virtualize=True).task
        child, _ = k.do_fork(task)
        shm, child_shm = task.mm.vma("shm:41"), child.mm.vma("shm:41")
        page = int(shm.present_pages()[0])
        assert not shm.pages[page].flags.writeable  # frozen: the flat's row
        task.mm.write_access(shm, page, 0, 128)
        task.mm.fill_pattern(shm, page, 0, 128, seed=5)
        assert child_shm.pages[page] is shm.pages[page]
        assert child_shm.pages[page].flags.writeable  # the copy is the segment's
        child.mm.write_access(child_shm, page, 128, 128)
        child.mm.fill_pattern(child_shm, page, 128, 128, seed=6)
        assert child_shm.pages[page] is shm.pages[page]
        assert memory_digest(child)["shm:41"] == memory_digest(task)["shm:41"]
