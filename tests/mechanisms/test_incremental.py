"""Tests for the incremental tracking engines."""

from __future__ import annotations

import pytest

from repro.core.image import CheckpointImage
from repro.errors import CheckpointError
from repro.mechanisms.incremental import (
    AdaptiveBlockTracker,
    BlockHashTracker,
    DirtyLog,
    arm_system_tracking,
)
from repro.simkernel import Kernel, ops
from repro.workloads import SparseWriter


def scratch_image():
    return CheckpointImage(
        key="s", mechanism="t", pid=0, task_name="", node_id=0, step=0, registers={}
    )


def run_ops(kernel, task, gen):
    """Execute a capture generator in a kernel frame on the task."""
    from repro.simkernel.process import Mode

    done = []

    def frame():
        yield from gen
        done.append(True)

    task.push_frame(frame(), Mode.KERNEL)
    kernel.start()
    kernel.engine.run(
        until_ns=kernel.engine.now_ns + 10_000_000_000, until=lambda: bool(done)
    )
    assert done


class TestSystemTracking:
    def test_dirty_log_records_and_drains(self):
        log = DirtyLog()
        log.record("heap", 3)
        log.record("heap", 3)
        log.record("data", 1)
        assert log.drain() == {("heap", 3), ("data", 1)}
        assert log.drain() == set()

    def test_arm_system_tracking_attaches_log_and_counts_faults(self):
        k = Kernel(seed=1)

        def factory(task, step):
            def gen():
                yield ops.MemWrite(vma="heap", offset=0, nbytes=64, seed=1)
                task.annotations["armed"] = arm_system_tracking(k, task)
                yield ops.MemWrite(vma="heap", offset=0, nbytes=64, seed=2)
                yield ops.MemWrite(vma="heap", offset=0, nbytes=64, seed=3)
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("w", factory)
        k.run_until_exit(t, limit_ns=10**10)
        assert t.annotations["armed"] == 1
        # Only the FIRST write after arming faults; the second is free.
        assert t.acct.tracking_faults == 1
        assert t.annotations["dirty_log"].pages == {("heap", 0)}


class TestBlockHash:
    def test_block_size_must_divide_page(self):
        k = Kernel(seed=1)
        tracker = BlockHashTracker(block_size=1000)
        t = SparseWriter(iterations=1, heap_bytes=64 * 1024).spawn(k)
        k.run_until_exit(t, limit_ns=10**10)
        with pytest.raises(CheckpointError):
            list(tracker.scan_ops(k, t, scratch_image(), [("heap", 0)]))

    def test_detects_only_changed_blocks(self):
        k = Kernel(seed=1)
        tracker = BlockHashTracker(block_size=512)

        def factory(task, step):
            def gen():
                yield ops.MemWrite(vma="heap", offset=0, nbytes=4096, seed=1)
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("w", factory)
        k.run_until_exit(t, limit_ns=10**10)
        img1 = scratch_image()
        run2 = Kernel(seed=2)
        # First scan: everything is new -> 8 blocks saved, coalesced
        # into one contiguous run covering the page.
        consumed = list(tracker.scan_ops(k, t, img1, [("heap", 0)]))
        assert tracker.last_scan_saved == {("heap", 0): 8}
        assert len(img1.chunks) == 1
        assert img1.chunks[0].nbytes == 4096
        # Change 100 bytes inside one block; rescan saves only that block.
        t.mm.fill_pattern(t.mm.vma("heap"), 0, 600, 100, seed=99)
        img2 = scratch_image()
        list(tracker.scan_ops(k, t, img2, [("heap", 0)]))
        assert len(img2.chunks) == 1
        assert img2.chunks[0].offset == 512


class TestAdaptive:
    def test_dense_pages_saved_whole_sparse_pages_block_scanned(self):
        k = Kernel(seed=1)
        tracker = AdaptiveBlockTracker(block_size=512, dense_threshold=0.5)

        def factory(task, step):
            def gen():
                # Page 0: fully rewritten twice (dense); page 1: tiny edit.
                for s in (1, 2):
                    yield ops.MemWrite(vma="heap", offset=0, nbytes=4096, seed=s)
                yield ops.MemWrite(vma="heap", offset=4096, nbytes=16, seed=3)
                yield ops.Exit(code=0)

            return gen()

        t = k.spawn_process("w", factory)
        k.run_until_exit(t, limit_ns=10**10)
        pages = [("heap", 0), ("heap", 1)]
        # Interval 1: cold scan -> both block-scanned, no density evidence.
        list(tracker.scan_ops(k, t, scratch_image(), pages))
        assert set(tracker._hash.last_scan_saved) == set(pages)
        # Interval 2: page 0 fully rewritten (density evidence builds),
        # page 1 edited slightly.
        t.mm.fill_pattern(t.mm.vma("heap"), 0, 0, 4096, seed=5)
        t.mm.fill_pattern(t.mm.vma("heap"), 1, 0, 8, seed=6)
        list(tracker.scan_ops(k, t, scratch_image(), pages))
        # Interval 3: page 0 is now known-dense -> saved whole.
        t.mm.fill_pattern(t.mm.vma("heap"), 0, 0, 4096, seed=7)
        t.mm.fill_pattern(t.mm.vma("heap"), 1, 16, 8, seed=8)
        img = scratch_image()
        list(tracker.scan_ops(k, t, img, pages))
        assert set(tracker._hash.last_scan_saved) == {("heap", 1)}
        # Page 0 contributed one whole page; page 1 only one block.
        sizes = sorted(c.nbytes for c in img.chunks)
        assert sizes[-1] == 4096
        assert sizes[0] == 512

    def test_threshold_validation(self):
        with pytest.raises(CheckpointError):
            AdaptiveBlockTracker(dense_threshold=0.0)

    def test_adaptive_saves_less_than_pure_page_on_sparse(self):
        k = Kernel(seed=3)
        wl = SparseWriter(
            iterations=5, dirty_fraction=0.1, heap_bytes=256 * 1024, seed=3,
            write_bytes=32,
        )
        t = wl.spawn(k)
        k.run_until_exit(t, limit_ns=10**11)
        pages = [("heap", int(p)) for p in t.mm.vma("heap").present_pages()]
        adaptive = AdaptiveBlockTracker(block_size=256)
        img_first = scratch_image()
        list(adaptive.scan_ops(k, t, img_first, pages))  # builds digests
        # Small second-interval edits:
        for p, _ in [(pages[0][1], 0)]:
            t.mm.fill_pattern(t.mm.vma("heap"), p, 10, 20, seed=77)
        img_delta = scratch_image()
        list(adaptive.scan_ops(k, t, img_delta, pages))
        page_equivalent = len(pages) * 4096
        assert img_delta.payload_bytes < page_equivalent / 10
