"""Workload framework: restartable synthetic applications.

A workload is a parameterized program generator with a *restart
contract*: the kernel counts completed main-program ops, a checkpoint
records that count, and on restart the program is rebuilt to resume at an
iteration boundary at or before the recorded count (memory state comes
from the image, not from replay).  Workloads therefore structure their
main loop as fixed-size iterations.

The write *pattern* is the independent variable of the incremental-
checkpointing experiments (E5, E6, E14): the paper notes "the reduction
in the size of the checkpoint data depends strongly on the application".
"""

from __future__ import annotations

from typing import Dict, Generator, Iterator, Optional

import numpy as np

from ..errors import WorkloadError
from ..simkernel import Kernel, Task, ops
from ..simkernel.memory import page_checksum

__all__ = ["Workload", "memory_digest"]


def memory_digest(task: Task) -> Dict[str, Dict[int, int]]:
    """Checksums of every resident page: {vma_name: {page_index: adler32}}.

    Used to verify byte-exact restores without holding page copies.
    """
    out: Dict[str, Dict[int, int]] = {}
    for vma in task.mm.vmas:
        pages = {}
        for pidx in vma.present_pages():
            pages[int(pidx)] = page_checksum(vma.pages[int(pidx)])
        out[vma.name] = pages
    return out


class Workload:
    """Base class: a restartable iterative application.

    Subclasses override :meth:`setup` (run once, before iteration 0;
    must emit exactly :attr:`setup_ops` ops) and :meth:`iteration`
    (must emit exactly :attr:`ops_per_iteration` ops each call).

    Parameters
    ----------
    iterations:
        Total main-loop iterations before exit.
    heap_bytes:
        Size of the heap VMA the workload writes into.
    compute_ns:
        CPU time burned per iteration (between writes).
    seed:
        Per-workload RNG seed (patterns are deterministic in it).
    """

    #: Ops emitted by :meth:`setup`.  Subclasses with setup must match.
    setup_ops: int = 0
    #: Ops emitted per :meth:`iteration` call.  Must be constant.
    ops_per_iteration: int = 1

    def __init__(
        self,
        iterations: int = 100,
        heap_bytes: int = 4 * 1024 * 1024,
        compute_ns: int = 50_000,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if iterations < 1:
            raise WorkloadError("iterations must be >= 1")
        self.iterations = iterations
        self.heap_bytes = heap_bytes
        self.compute_ns = compute_ns
        self.seed = seed
        self.name = name or type(self).__name__

    # ------------------------------------------------------------------
    def setup(self, task: Task) -> Iterator[ops.Op]:
        """One-time initialization ops (open files, handlers...)."""
        return iter(())

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        """Ops for iteration ``it`` -- exactly ``ops_per_iteration`` of them."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def align_step(self, step: int) -> int:
        """Round an op count down to the nearest resumable boundary."""
        if step < self.setup_ops:
            return 0
        body = step - self.setup_ops
        return self.setup_ops + (body // self.ops_per_iteration) * self.ops_per_iteration

    def iteration_of_step(self, step: int) -> int:
        """Main-loop iteration index corresponding to an op count."""
        if step < self.setup_ops:
            return 0
        return (step - self.setup_ops) // self.ops_per_iteration

    @staticmethod
    def _forward(inner) -> Generator:
        """Delegate to ``inner`` forwarding send() values; returns op count.

        A plain ``for op in inner: yield op`` would swallow the values the
        kernel sends back into the program (syscall results), so setup and
        iteration bodies are driven through this shim via ``yield from``.
        """
        count = 0
        send = None
        while True:
            try:
                op = inner.send(send) if hasattr(inner, "send") else next(inner)
            except StopIteration:
                return count
            count += 1
            send = yield op

    def program_factory(self, task: Task, start_step: int) -> Generator:
        """Build the op generator resuming at ``start_step`` (aligned)."""
        aligned = self.align_step(start_step)

        def gen():
            if aligned == 0:
                emitted = yield from self._forward(iter(self.setup(task)))
                if emitted != self.setup_ops:
                    raise WorkloadError(
                        f"{self.name}: setup emitted {emitted} ops, "
                        f"declared setup_ops={self.setup_ops}"
                    )
                start_it = 0
            else:
                start_it = self.iteration_of_step(aligned)
            for it in range(start_it, self.iterations):
                count = yield from self._forward(iter(self.iteration(task, it)))
                if count != self.ops_per_iteration:
                    raise WorkloadError(
                        f"{self.name}: iteration {it} emitted {count} ops, "
                        f"declared ops_per_iteration={self.ops_per_iteration}"
                    )
            yield ops.Exit(code=0)

        return gen()

    # ------------------------------------------------------------------
    def spawn(self, kernel: Kernel, name: Optional[str] = None, **spawn_kw) -> Task:
        """Create the process running this workload on ``kernel``."""
        task = kernel.spawn_process(
            name or self.name,
            self.program_factory,
            heap_bytes=self.heap_bytes,
            **spawn_kw,
        )
        task.annotations["workload"] = self
        return task

    # ------------------------------------------------------------------
    def rng_for_iteration(self, it: int) -> np.random.Generator:
        """Deterministic per-iteration RNG (restart-safe patterns)."""
        return np.random.default_rng((self.seed * 1_000_003 + it) & 0x7FFFFFFF)
