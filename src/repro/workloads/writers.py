"""Memory-writer workloads: the dirty-fraction spectrum.

These four writers span the application behaviours the feasibility study
[31] observed across scientific codes: from rewriting the whole working
set every interval (incremental checkpointing saves nothing) to touching
a few bytes on a few pages (page-granularity incremental still saves
little; block/line granularity shines -- experiments E5/E6/E14).
"""

from __future__ import annotations

from typing import Iterator

from ..simkernel import Task, ops
from .base import Workload

__all__ = ["DenseWriter", "SparseWriter", "StreamingWriter", "HotColdWriter"]

#: The page size the writers lay their writes out in.
PAGE_SIZE = 4096


class DenseWriter(Workload):
    """Rewrites its entire heap every iteration (dirty fraction ~= 1).

    Worst case for incremental checkpointing: the delta equals the full
    image, so the tracking overhead buys nothing.
    """

    ops_per_iteration = 2

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        yield ops.Compute(ns=self.compute_ns)
        # One whole-heap write (the kernel splits it per page).
        yield ops.MemWrite(vma="heap", offset=0, nbytes=self.heap_bytes, seed=it)


class SparseWriter(Workload):
    """Touches a random ``dirty_fraction`` of pages with small writes.

    The regime where page-granularity incremental checkpointing wins big:
    the delta is ``dirty_fraction`` of the full image.
    """

    def __init__(
        self,
        dirty_fraction: float = 0.1,
        write_bytes: int = 128,
        **kw,
    ) -> None:
        super().__init__(**kw)
        if not 0.0 < dirty_fraction <= 1.0:
            raise ValueError("dirty_fraction must be in (0, 1]")
        self.dirty_fraction = dirty_fraction
        self.write_bytes = write_bytes
        npages = self.heap_bytes // PAGE_SIZE
        self._touched = max(1, int(round(npages * dirty_fraction)))
        # 1 compute + one small write per touched page
        self.ops_per_iteration = 1 + self._touched

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        yield ops.Compute(ns=self.compute_ns)
        rng = self.rng_for_iteration(it)
        npages = self.heap_bytes // PAGE_SIZE
        pages = rng.choice(npages, size=self._touched, replace=False)
        for p in sorted(int(x) for x in pages):
            yield ops.MemWrite(
                vma="heap",
                offset=p * PAGE_SIZE,
                nbytes=self.write_bytes,
                seed=it * 131 + p,
            )


class StreamingWriter(Workload):
    """Sequentially sweeps a window across the heap (stream/stencil-like).

    Each iteration dirties ``window_bytes`` of fresh pages; over a full
    checkpoint interval the delta is (interval length x window), giving a
    dirty fraction that *grows with the checkpoint interval* -- the
    coupling the adaptive schemes exploit.
    """

    ops_per_iteration = 2

    def __init__(self, window_bytes: int = 256 * 1024, **kw) -> None:
        super().__init__(**kw)
        self.window_bytes = min(window_bytes, self.heap_bytes)

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        yield ops.Compute(ns=self.compute_ns)
        offset = (it * self.window_bytes) % (self.heap_bytes - self.window_bytes + 1)
        yield ops.MemWrite(
            vma="heap", offset=offset, nbytes=self.window_bytes, seed=it
        )


class HotColdWriter(Workload):
    """A hot set rewritten every iteration plus occasional cold writes.

    Models the common scientific pattern (solution arrays hot, lookup
    tables cold); the delta converges to the hot-set size.
    """

    def __init__(
        self,
        hot_fraction: float = 0.05,
        cold_touch_every: int = 10,
        **kw,
    ) -> None:
        super().__init__(**kw)
        self.cold_touch_every = cold_touch_every
        self.hot_bytes = max(PAGE_SIZE, int(self.heap_bytes * hot_fraction))
        self.ops_per_iteration = 3

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        yield ops.Compute(ns=self.compute_ns)
        yield ops.MemWrite(vma="heap", offset=0, nbytes=self.hot_bytes, seed=it)
        if it % self.cold_touch_every == 0:
            rng = self.rng_for_iteration(it)
            cold_span = self.heap_bytes - self.hot_bytes - PAGE_SIZE
            off = self.hot_bytes + int(rng.integers(0, max(1, cold_span)))
            yield ops.MemWrite(vma="heap", offset=off, nbytes=64, seed=it + 7)
        else:
            yield ops.Compute(ns=100)
