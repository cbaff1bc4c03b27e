"""A captured image shares the task's page arrays and stays isolated.

Capture freezes each live page array in place and puts it in the image
instead of copying it; the task's next write to the page copies it first
(``VMA.ensure_page``).  For every capture path -- a stopped CRAK
capture, a COW-fork drain through the writeback pipeline, the libckpt
user-level handler, a hardware first epoch and a SysV-shm VMA -- these
tests check, at the capture instant, that the image's rows *are* the
VMA's arrays, then that a later rewrite of every captured page neither
changes the image nor leaves it sharing the VMA's new arrays.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.core.checkpointer import RequestState
from repro.core.image import CheckpointImage
from repro.mechanisms import CRAK, Libckpt, Revive
from repro.simkernel import Kernel
from repro.simkernel.memory import VMA, Prot
from repro.storage import MemoryStorage, RemoteStorage
from repro.workloads import SharedMemoryApp, SparseWriter

#: One record per captured page: (vma name, page index, image row,
#: the row's bytes at the capture instant).
Captured = List[Tuple[str, int, np.ndarray, bytes]]


@pytest.fixture
def captured(monkeypatch) -> Captured:
    """Record every whole page a capture puts into an image, checking at
    that instant that the row is the source VMA's live page array."""
    records: Captured = []
    source: List[VMA] = []
    read_page, read_pages = VMA.read_page, VMA.read_pages
    take_pages = CheckpointImage.take_pages

    def spy_read_page(vma, pidx):
        source[:] = [vma]
        return read_page(vma, pidx)

    def spy_read_pages(vma, pidx, npages):
        source[:] = [vma]
        return read_pages(vma, pidx, npages)

    def spy_take_pages(image, vma_name, page_index, *rows):
        chunk = take_pages(image, vma_name, page_index, *rows)
        [vma] = source
        assert vma.name == vma_name
        for pidx, row in enumerate(chunk.page_rows(), start=page_index):
            if pidx in vma.pages:
                assert row is vma.pages[pidx], f"{vma_name}[{pidx}] was copied"
            assert not row.flags.writeable
            records.append((vma_name, pidx, row, row.tobytes()))
        return chunk

    monkeypatch.setattr(VMA, "read_pages", spy_read_pages)
    monkeypatch.setattr(VMA, "read_page", spy_read_page)
    monkeypatch.setattr(CheckpointImage, "take_pages", spy_take_pages)
    return records


def settle(kernel, req):
    kernel.start()
    kernel.engine.run(
        until_ns=kernel.engine.now_ns + 2 * 10**9,
        until=lambda: req.state in (RequestState.DONE, RequestState.FAILED),
    )
    assert req.state == RequestState.DONE, req.error


def assert_isolated(task, req, captured: Captured) -> None:
    """Rewrite every captured page through the task's write path: the
    image keeps the capture-instant bytes, and the VMA holds new arrays."""
    assert captured, "nothing was captured"
    rows = {id(row) for c in req.image.chunks if c.rows is not None for row in c.rows}
    assert all(id(row) in rows for _, _, row, _ in captured)
    for name, pidx, row, _ in captured:
        vma = task.mm.vma(name)
        if vma.prot & Prot.WRITE:
            task.mm.write_access(vma, pidx, 0, vma.page_size)
            task.mm.fill_pattern(vma, pidx, 0, vma.page_size, seed=pidx + 1)
    for name, pidx, row, before in captured:
        assert row.tobytes() == before, f"{name}[{pidx}] changed after capture"
        vma = task.mm.vma(name)
        if vma.prot & Prot.WRITE:
            assert vma.pages[pidx] is not row
            assert not np.shares_memory(vma.pages[pidx], row)


def sparse_writer():
    return SparseWriter(iterations=10**6, dirty_fraction=0.2,
                        heap_bytes=256 * 1024, seed=3)


def test_stopped_crak_capture(captured):
    k = Kernel(seed=3)
    mech = CRAK(k, RemoteStorage())
    task = sparse_writer().spawn(k)
    k.run_for(3_000_000)
    req = mech.request_checkpoint(task)
    settle(k, req)
    assert_isolated(task, req, captured)


def test_cow_fork_pipelined_drain(captured):
    k = Kernel(seed=3)
    mech = CRAK(k, RemoteStorage())
    mech.pipeline_depth = 4
    task = sparse_writer().spawn(k)
    k.run_for(3_000_000)
    req = mech.request_checkpoint(task)
    settle(k, req)
    assert k.engine.metrics.counters().get("capture.pipelined_captures", 0) == 1
    assert_isolated(task, req, captured)


def test_libckpt_user_level_handler(captured):
    k = Kernel(ncpus=1, seed=11)
    mech = Libckpt(k, RemoteStorage())
    task = sparse_writer().spawn(k)
    mech.prepare_target(task)
    k.run_for(3_000_000)
    req = mech.request_checkpoint(task)
    settle(k, req)
    assert_isolated(task, req, captured)


def test_hardware_first_epoch(captured):
    k = Kernel(seed=7)
    mech = Revive(k, MemoryStorage())
    task = sparse_writer().spawn(k)
    k.run_for(3_000_000)
    req = mech.request_checkpoint(task)
    settle(k, req)
    assert req.image.parent_key is None
    assert_isolated(task, req, captured)


def test_sysv_shm_vma(captured):
    k = Kernel(seed=9)
    mech = CRAK(k, RemoteStorage())
    task = SharedMemoryApp(iterations=10**6, shm_key=41, shm_bytes=16 * 1024).spawn(k)
    k.run_for(3_000_000)
    req = mech.request_checkpoint(task)
    settle(k, req)
    assert any(name == "shm:41" for name, *_ in captured)
    assert_isolated(task, req, captured)
