"""Scientific-application proxies.

The paper motivates checkpointing with long-running DOE ASC codes; its
companion study [31] measured incremental checkpointing on codes with
SAGE/SWEEP3D-like behaviour.  These proxies reproduce the relevant
memory traffic shapes on the simulated kernel:

* :class:`StencilKernel` -- an iterative grid sweep (SAGE-like): the
  whole solution array is rewritten each sweep, plus a small halo.
* :class:`WavefrontSweep` -- SWEEP3D-like: each iteration updates one
  diagonal plane, a modest slice of the domain.
* :class:`RandomUpdater` -- GUPS-like scattered single-word updates: the
  pathological case for page-granularity tracking (every page dirty, a
  few bytes changed) and the showcase for block/cache-line granularity.
"""

from __future__ import annotations

from typing import Iterator

from ..simkernel import Task, ops
from .base import Workload

__all__ = ["StencilKernel", "WavefrontSweep", "RandomUpdater"]


class StencilKernel(Workload):
    """Jacobi-style stencil: read neighbourhood, rewrite the grid.

    Dirty fraction per sweep ~= 100% of the grid array, but the grid is
    only part of the address space (code/libs/tables stay clean), so
    incremental checkpointing still helps versus a full-image dump.
    """

    ops_per_iteration = 3

    def __init__(self, grid_fraction: float = 0.6, **kw) -> None:
        super().__init__(**kw)
        self.grid_bytes = max(4096, int(self.heap_bytes * grid_fraction))

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        # Read the previous iterate (touches the grid read-only).
        yield ops.MemRead(vma="heap", offset=0, nbytes=self.grid_bytes)
        yield ops.Compute(ns=self.compute_ns)
        # Rewrite the solution array.
        yield ops.MemWrite(vma="heap", offset=0, nbytes=self.grid_bytes, seed=it)


class WavefrontSweep(Workload):
    """SWEEP3D-like wavefront: one plane of the domain per iteration."""

    ops_per_iteration = 3

    def __init__(self, planes: int = 32, **kw) -> None:
        super().__init__(**kw)
        self.planes = planes
        self.plane_bytes = max(4096, self.heap_bytes // planes)

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        plane = it % self.planes
        offset = plane * self.plane_bytes
        nbytes = min(self.plane_bytes, self.heap_bytes - offset)
        yield ops.MemRead(vma="heap", offset=offset, nbytes=nbytes)
        yield ops.Compute(ns=self.compute_ns)
        yield ops.MemWrite(vma="heap", offset=offset, nbytes=nbytes, seed=it)


class RandomUpdater(Workload):
    """GUPS-like scattered 8-byte updates across the whole heap.

    With ``updates_per_iteration`` random single-word writes, nearly every
    touched *page* is dirty while almost no *bytes* changed: page-level
    incremental checkpointing degenerates to a full dump, while
    block-hashing (probabilistic) and cache-line (hardware) tracking keep
    the delta tiny.  This is experiment E6/E14's centrepiece.
    """

    def __init__(self, updates_per_iteration: int = 64, **kw) -> None:
        super().__init__(**kw)
        self.updates = updates_per_iteration
        self.ops_per_iteration = 1 + updates_per_iteration

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        yield ops.Compute(ns=self.compute_ns)
        rng = self.rng_for_iteration(it)
        offsets = rng.integers(0, self.heap_bytes - 8, size=self.updates)
        for j, off in enumerate(sorted(int(x) for x in offsets)):
            # Keep each update inside one page (the kernel would split
            # anyway; alignment makes accounting exact).
            off -= off % 8
            yield ops.MemWrite(vma="heap", offset=off, nbytes=8, seed=it * 977 + j)
