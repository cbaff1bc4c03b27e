"""Cache-line-granularity write tracking (the hardware substrate).

"Hardware-based schemes typically implement incremental checkpointing
at much finer granularity than is done at the operating system level:
modifications of the address space of the application are traced at the
granularity of cache lines."

The tracker hooks the simulated kernel's write path: every serviced
write reports the cache lines it touched; the hardware logs them with a
small (scheme-dependent) per-write overhead.  At checkpoint time, the
logged line set becomes sub-page block chunks in the image.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ...errors import CheckpointError
from ...simkernel import Kernel, Task
from ...simkernel.memory import VMA
from ...core.image import CheckpointImage

__all__ = ["CacheLineTracker"]


class CacheLineTracker:
    """Logs dirty cache lines per (pid, vma, page).

    Parameters
    ----------
    kernel:
        The node whose write path is instrumented.  Only one tracker can
        hook a kernel at a time (one memory system).
    per_write_overhead_ns:
        Extra latency the hardware adds to each tracked write (directory
        logging for Revive; near-zero for SafetyNet's dedicated buffers).
    """

    def __init__(self, kernel: Kernel, per_write_overhead_ns: int = 0) -> None:
        if kernel.hw_tracker is not None:
            raise CheckpointError("another hardware tracker is already attached")
        self.kernel = kernel
        self.line_size = kernel.costs.cache_line_size
        self.per_write_overhead_ns = per_write_overhead_ns
        #: (pid, vma_name, page_index) -> set of line indices within page.
        self._dirty: Dict[Tuple[int, str, int], Set[int]] = {}
        kernel.hw_tracker = self._on_write

    def detach(self) -> None:
        """Unhook from the kernel's write path."""
        if self.kernel.hw_tracker is self._on_write:
            self.kernel.hw_tracker = None

    # ------------------------------------------------------------------
    def _on_write(self, task: Task, vma: VMA, pidx: int, offset: int, length: int) -> None:
        first = offset // self.line_size
        last = (offset + max(length, 1) - 1) // self.line_size
        key = (task.pid, vma.name, pidx)
        self._dirty.setdefault(key, set()).update(range(first, last + 1))
        if self.per_write_overhead_ns:
            # The hardware stretches the write; charged as CPU backlog on
            # whichever CPU runs the task.
            cpu = next(
                (c for c in self.kernel.scheduler.cpus if c.current is task), None
            )
            if cpu is not None:
                cpu.irq_backlog_ns += self.per_write_overhead_ns

    # ------------------------------------------------------------------
    def drain_into(self, task: Task, image: CheckpointImage) -> int:
        """Move the task's dirty lines into ``image`` as block chunks.

        Coalesces adjacent lines into single chunks.  Returns the number
        of chunks emitted and clears the log (epoch boundary).
        """
        emitted = 0
        for key in [k for k in self._dirty if k[0] == task.pid]:
            _, vma_name, pidx = key
            lines = sorted(self._dirty.pop(key))
            vma = task.mm.vma(vma_name)
            page = vma.read_page(pidx)
            run_start: Optional[int] = None
            prev = None
            for ln in lines + [None]:
                if run_start is None:
                    run_start = ln
                elif ln is None or ln != prev + 1:
                    start_b = run_start * self.line_size
                    end_b = (prev + 1) * self.line_size
                    image.add_block(vma_name, pidx, start_b, page[start_b:end_b])
                    emitted += 1
                    run_start = ln
                prev = ln
        return emitted
