"""Multithreaded applications: several tasks sharing one address space.

The paper distinguishes packages that can checkpoint multithreaded
processes (libtckpt at user level; BLCR and "Checkpoint" at system
level) from the single-threaded-only majority.  A thread group here is a
set of tasks sharing the same :class:`AddressSpace` (Linux threads are
exactly that); a correct multithread checkpoint must freeze *all* of
them, capture one memory image plus per-thread register/step state, and
restore every thread.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..simkernel import Kernel, Task, ops
from .base import Workload

__all__ = ["ThreadedWorkload", "spawn_thread_group"]


class ThreadedWorkload(Workload):
    """N threads, each writing a disjoint band of the shared heap.

    Each thread runs the same iteration structure (the restart contract
    holds per thread); thread ``t`` writes band ``t`` so races never
    corrupt the verification pattern.
    """

    ops_per_iteration = 2

    def __init__(self, nthreads: int = 4, band_write_bytes: int = 32 * 1024, **kw) -> None:
        super().__init__(**kw)
        if nthreads < 1:
            raise ValueError("nthreads must be >= 1")
        self.nthreads = nthreads
        self.band_write_bytes = band_write_bytes

    def thread_factory(self, tid: int):
        """Program factory for thread ``tid``."""
        band = self.heap_bytes // self.nthreads
        base = tid * band
        nbytes = min(self.band_write_bytes, band)

        def factory(task: Task, start_step: int) -> Generator:
            start_it = self.iteration_of_step(self.align_step(start_step))
            for it in range(start_it, self.iterations):
                yield ops.Compute(ns=self.compute_ns)
                yield ops.MemWrite(
                    vma="heap",
                    offset=base + (it * 4096) % max(1, band - nbytes),
                    nbytes=nbytes,
                    seed=it * 31 + tid,
                )
            yield ops.Exit(code=0)

        return factory

    def spawn_group(self, kernel: Kernel, name: Optional[str] = None) -> List[Task]:
        """Spawn all threads sharing one address space."""
        return spawn_thread_group(
            kernel,
            name or self.name,
            [self.thread_factory(t) for t in range(self.nthreads)],
            heap_bytes=self.heap_bytes,
            workload=self,
        )


def spawn_thread_group(
    kernel: Kernel,
    name: str,
    factories,
    heap_bytes: int = 4 * 1024 * 1024,
    workload: Optional[Workload] = None,
) -> List[Task]:
    """Spawn tasks sharing a single address space (a thread group).

    The first task owns the group identity (its pid is the tgid); all
    tasks carry a ``thread_group`` annotation listing the member pids.
    """
    mm = kernel.make_address_space(heap_bytes=heap_bytes)
    tasks: List[Task] = []
    for i, factory in enumerate(factories):
        t = kernel.spawn_process(f"{name}/t{i}", factory, mm=mm)
        if workload is not None:
            t.annotations["workload"] = workload
        t.annotations["thread_index"] = i
        tasks.append(t)
    pids = [t.pid for t in tasks]
    for t in tasks:
        t.annotations["thread_group"] = pids
        t.annotations["tgid"] = pids[0]
    return tasks
