"""The page-state matrix of one ``MemWrite``.

For every state a page can be in when a one-page write reaches it, the
write must leave the same bytes, flag word, accounting, ``WriteOutcome``
and op duration: constants derived here from the cost model alone, so a
faster write path that handles some state differently fails a row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.simkernel import Kernel, TaskState
from repro.simkernel.memory import PageFlag, WriteOutcome
from repro.simkernel.ops import MemWrite
from repro.simkernel.signals import Sig

PIDX, OFFSET, NBYTES, SEED = 3, 100, 64, 7
PRESENT, DIRTY, ACCESSED = PageFlag.PRESENT, PageFlag.DIRTY, PageFlag.ACCESSED
COW, TRACK_WP, UNPROT = PageFlag.COW, PageFlag.TRACK_WP, PageFlag.UNPROT
OLD = 0x5A  # every byte of a page that exists before the write


class DirtyLog:
    """Stands in for a system-level tracker's dirty log."""

    def __init__(self):
        self.pages = []

    def record(self, vma_name, page_index):
        self.pages.append((vma_name, page_index))


def _setup(vma_name="heap", shared=False):
    """A 1-CPU kernel whose one task is on the CPU, about to write."""
    k = Kernel(ncpus=1, seed=0)
    task = k.spawn_process("w", start=False)
    if shared:
        task.mm.map("shm", 64 * 1024, shared=True)
    task.state = TaskState.RUNNING
    cpu = k.scheduler.cpus[0]
    cpu.current = task
    vma = task.mm.vma(vma_name)
    return k, cpu, task, vma


def _present(vma):
    vma.install_page(PIDX, np.full(vma.page_size, OLD, dtype=np.uint8))


def _written(vma, old=OLD):
    """The page after the workload pattern's write (see fill_pattern)."""
    page = np.full(vma.page_size, old, dtype=np.uint8)
    base = (SEED * 2654435761 + vma.start + PIDX * 977 + OFFSET) & 0xFF
    page[OFFSET:OFFSET + NBYTES] = (np.arange(NBYTES) * 167 + base) & 0xFF
    return page


def _run_write(k, cpu, task, vma):
    """Execute one MemWrite; (duration, outcomes, op) as observed."""
    outcomes = []
    serve = task.mm.write_access

    def recording(*args):
        outcomes.append(serve(*args))
        return outcomes[-1]

    task.mm.write_access = recording
    op = MemWrite(vma=vma.name, offset=PIDX * vma.page_size + OFFSET,
                  nbytes=NBYTES, seed=SEED)
    now = k.engine.now_ns
    k._execute(cpu, task, op)
    return k.engine.next_time_ns() - now, outcomes, op


def _acct(task):
    a = task.acct
    return (a.page_faults, a.cow_copies, a.tracking_faults, a.tlb_refill_ns)


def _lines(k):
    cl = k.costs.cache_line_size
    return (OFFSET + NBYTES - 1) // cl - OFFSET // cl + 1


def test_absent_page_allocates():
    k, cpu, task, vma = _setup()
    c = k.costs
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == c.page_fault_ns + c.page_alloc_ns + c.memcpy_ns(NBYTES)
    assert outcomes == [WriteOutcome(vma, PIDX, allocated=True, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | DIRTY | ACCESSED
    assert _acct(task) == (1, 0, 0, 0)
    assert np.array_equal(vma.pages[PIDX], _written(vma, old=0))


def test_present_writable_page_only_gains_dirty_and_accessed():
    k, cpu, task, vma = _setup()
    _present(vma)
    arr = vma.pages[PIDX]
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == k.costs.memcpy_ns(NBYTES)
    assert outcomes == [WriteOutcome(vma, PIDX, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | DIRTY | ACCESSED
    assert _acct(task) == (0, 0, 0, 0)
    assert vma.pages[PIDX] is arr  # written in place
    assert np.array_equal(arr, _written(vma))


def test_tlb_cold_write_pays_one_refill():
    k, cpu, task, vma = _setup()
    _present(vma)
    task.tlb_cold_pages = 2
    c = k.costs
    duration, _, _ = _run_write(k, cpu, task, vma)
    assert duration == c.memcpy_ns(NBYTES) + c.tlb_refill_per_entry_ns
    assert _acct(task) == (0, 0, 0, c.tlb_refill_per_entry_ns)
    assert task.tlb_cold_pages == 1


def test_frozen_page_is_copied_before_the_write():
    k, cpu, task, vma = _setup()
    _present(vma)
    frozen = vma.read_page(PIDX)
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == k.costs.memcpy_ns(NBYTES)
    assert outcomes == [WriteOutcome(vma, PIDX, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | DIRTY | ACCESSED
    assert _acct(task) == (0, 0, 0, 0)
    assert vma.pages[PIDX] is not frozen and vma.pages[PIDX].flags.writeable
    assert np.array_equal(vma.pages[PIDX], _written(vma))
    assert (frozen == OLD).all()  # the image's page is untouched


def test_cow_private_page_copies_once():
    k, cpu, task, vma = _setup()
    _present(vma)
    child = task.mm.fork()
    c = k.costs
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == (c.page_fault_ns + c.memcpy_ns(vma.page_size)
                        + c.memcpy_ns(NBYTES))
    assert outcomes == [WriteOutcome(vma, PIDX, cow_copied=True, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | DIRTY | ACCESSED
    assert _acct(task) == (1, 1, 0, 0)
    assert np.array_equal(vma.pages[PIDX], _written(vma))
    assert (child.vma("heap").pages[PIDX] == OLD).all()


def test_cow_flag_on_shared_vma_writes_through():
    k, cpu, task, vma = _setup("shm", shared=True)
    _present(vma)
    vma.set_flag(PIDX, COW)
    arr = vma.pages[PIDX]
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == k.costs.memcpy_ns(NBYTES)
    assert outcomes == [WriteOutcome(vma, PIDX, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | COW | DIRTY | ACCESSED
    assert _acct(task) == (0, 0, 0, 0)
    assert vma.pages[PIDX] is arr
    assert np.array_equal(arr, _written(vma))


def _assert_user_fault(k, task, vma, duration, outcomes, op, flags, old):
    """A user-level tracking fault: SIGSEGV, the write requeued, no data."""
    assert duration == k.costs.page_fault_ns
    assert outcomes == []
    assert vma.flags[PIDX] == flags
    assert _acct(task) == (1, 0, 1, 0)
    assert task.annotations["fault_info"] == {"vma": "heap", "page": PIDX}
    assert list(task.op_queue) == [op] and not task.op_counts_main
    assert task.signals.pending == [Sig.SIGSEGV]
    assert np.array_equal(vma.pages.get(PIDX, np.zeros(vma.page_size, np.uint8)),
                          np.full(vma.page_size, old, dtype=np.uint8))


def test_track_wp_under_user_level_tracking_faults_to_the_handler():
    k, cpu, task, vma = _setup()
    _present(vma)
    task.annotations["tracking_mode"] = "user"
    task.mm.protect_for_tracking(["heap"])
    duration, outcomes, op = _run_write(k, cpu, task, vma)
    _assert_user_fault(k, task, vma, duration, outcomes, op, PRESENT | TRACK_WP, OLD)


def test_track_wp_under_system_level_tracking_logs_and_unprotects():
    k, cpu, task, vma = _setup()
    _present(vma)
    log = task.annotations["dirty_log"] = DirtyLog()
    task.mm.protect_for_tracking(["heap"])
    c = k.costs
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == c.page_fault_ns + 200 + c.memcpy_ns(NBYTES)
    assert outcomes == [WriteOutcome(vma, PIDX, tracking_fault=True, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | DIRTY | ACCESSED
    assert _acct(task) == (1, 0, 1, 0)
    assert log.pages == [("heap", PIDX)]
    assert np.array_equal(vma.pages[PIDX], _written(vma))


def test_armed_vma_first_touch_faults_to_the_handler():
    k, cpu, task, vma = _setup()
    task.annotations["tracking_mode"] = "user"
    task.mm.protect_for_tracking(["heap"])
    duration, outcomes, op = _run_write(k, cpu, task, vma)
    _assert_user_fault(k, task, vma, duration, outcomes, op, 0, 0)
    assert PIDX not in vma.pages


def test_armed_vma_unprotected_page_allocates_without_fault():
    k, cpu, task, vma = _setup()
    task.annotations["tracking_mode"] = "user"
    task.mm.protect_for_tracking(["heap"])
    vma.set_flag(PIDX, UNPROT)
    c = k.costs
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == c.page_fault_ns + c.page_alloc_ns + c.memcpy_ns(NBYTES)
    assert outcomes == [WriteOutcome(vma, PIDX, allocated=True, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | UNPROT | DIRTY | ACCESSED
    assert _acct(task) == (1, 0, 0, 0)
    assert task.signals.pending == []
    assert np.array_equal(vma.pages[PIDX], _written(vma, old=0))


def test_non_writable_vma_raises_and_changes_nothing():
    k, cpu, task, vma = _setup("code")
    with pytest.raises(MemoryError_, match="non-writable"):
        _run_write(k, cpu, task, vma)
    assert vma.flags[PIDX] == 0 and PIDX not in vma.pages
    assert _acct(task) == (0, 0, 0, 0)


def test_hw_tracker_sees_the_write_after_it_lands():
    k, cpu, task, vma = _setup()
    _present(vma)
    seen = []
    k.hw_tracker = lambda t, v, p, off, n: seen.append(
        (t, v, p, off, n, bytes(v.pages[p][off:off + n])))
    duration, outcomes, _ = _run_write(k, cpu, task, vma)
    assert duration == k.costs.memcpy_ns(NBYTES)
    assert outcomes == [WriteOutcome(vma, PIDX, lines_touched=_lines(k))]
    assert vma.flags[PIDX] == PRESENT | DIRTY | ACCESSED
    written = _written(vma)
    assert seen == [(task, vma, PIDX, OFFSET, NBYTES,
                     bytes(written[OFFSET:OFFSET + NBYTES]))]
    assert np.array_equal(vma.pages[PIDX], written)
