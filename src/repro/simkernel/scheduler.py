"""CPU and scheduler models.

The paper's Section 4.1 argues that *when* checkpoint code runs is decided
by the scheduler: a time-sharing task executing a checkpoint (system-call
or signal-handler approach) "could be suspended by the kernel because
there is another process with a higher priority waiting for the CPU",
while a kernel thread at SCHED_FIFO "will be executed as soon as it wakes
up and it will run until it has completed its work"; the paper further
proposes a *new* priority class above FIFO so nothing can preempt the
checkpoint thread.  All three behaviours are implemented here and measured
by experiment E10.

The time-sharing class is a counter-decay design in the spirit of Linux
2.4 (the kernel generation the surveyed packages targeted): each task
holds a quantum measured in scheduler ticks; the tick decrements the
running task's counter; at zero the task is preempted and requeued, and
its dynamic priority worsens until quanta are recharged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import SchedulerError
from .costs import CostModel
from .memory import AddressSpace
from .process import SchedPolicy, Task, TaskState

__all__ = ["CPU", "Scheduler"]


@dataclass
class CPU:
    """One processor: the dispatch unit of the simulation."""

    index: int
    current: Optional[Task] = None
    #: The user address space whose page tables are loaded.  Kernel
    #: threads do not change this (they borrow it) -- the heart of the
    #: paper's TLB argument, experiment E8.
    current_mm: Optional[AddressSpace] = None
    need_resched: bool = False
    #: Interrupts disabled (the paper's mechanism to keep the checkpoint
    #: kernel thread from being stopped by interrupts).
    irq_disabled: bool = False
    #: Interrupt overhead accumulated while a task runs; folded into the
    #: next op's duration.
    irq_backlog_ns: int = 0
    #: IRQs that arrived while disabled, replayed on enable.
    deferred_irqs: int = 0


class Scheduler:
    """Global-runqueue multiprocessor scheduler."""

    def __init__(self, costs: CostModel, ncpus: int = 1) -> None:
        if ncpus < 1:
            raise SchedulerError("need at least one CPU")
        self.costs = costs
        self.cpus: List[CPU] = [CPU(index=i) for i in range(ncpus)]
        #: Tasks waiting for a CPU, in queue order.  Read it; change it
        #: only through :meth:`enqueue`, :meth:`dequeue` and
        #: :meth:`pick_next`.
        self.runqueue: List[Task] = []
        #: Ticks in a full quantum for a default-priority task.
        self.quantum_ticks = max(1, costs.quantum_ns // costs.tick_ns)

    # ------------------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        """Make ``task`` runnable (idempotent)."""
        if not task.alive():
            raise SchedulerError(f"cannot enqueue dead task {task!r}")
        task.state = TaskState.READY
        if task not in self.runqueue:
            self.runqueue.append(task)
        # A newly runnable real-time task preempts lower-priority CPUs.
        for cpu in self.cpus:
            if cpu.current is not None and self._beats(task, cpu.current):
                cpu.need_resched = True

    def dequeue(self, task: Task) -> None:
        """Remove ``task`` from the runqueue (block/stop/exit paths).

        This is the paper's "removing the application from its runqueue
        list" data-consistency mechanism when a kernel thread checkpoints
        a running process.
        """
        if task in self.runqueue:
            self.runqueue.remove(task)

    @staticmethod
    def _beats(a: Task, b: Task) -> bool:
        """Whether ``a`` should preempt ``b``."""
        return a.effective_prio() < b.effective_prio()

    # ------------------------------------------------------------------
    def pick_next(self, cpu: CPU) -> Optional[Task]:
        """Choose and claim the best runnable task for ``cpu``.

        Real-time classes (CKPT, then FIFO/RR by rt_prio) outrank time
        sharing; ties go to queue order (FIFO within a priority level).
        """
        self._recharge_epoch()
        best: Optional[Task] = None
        for task in self.runqueue:
            if task.state != TaskState.READY:
                continue
            if best is None or self._beats(task, best):
                best = task
        if best is None:
            return None
        self.runqueue.remove(best)
        if best.policy == SchedPolicy.OTHER and best.counter_ticks <= 0:
            best.counter_ticks = self._quantum_for(best)
        best.state = TaskState.RUNNING
        cpu.current = best
        return best

    def _recharge_epoch(self) -> None:
        """Epoch recharge (2.4-style "goodness" cycle): when every
        runnable time-sharing task has exhausted its counter, everyone
        gets a fresh quantum.  Without this, a task preempted with
        leftover ticks would permanently outrank drained ones (or vice
        versa)."""
        others = [
            t
            for t in self.runqueue
            if t.state == TaskState.READY and t.policy == SchedPolicy.OTHER
        ]
        if others and all(t.counter_ticks <= 0 for t in others):
            for t in others:
                t.counter_ticks = self._quantum_for(t)

    def _quantum_for(self, task: Task) -> int:
        """Quantum (ticks) granted at recharge; niceness scales it."""
        nice_bias = (120 - task.static_prio) // 4
        return max(1, self.quantum_ticks + nice_bias)

    # ------------------------------------------------------------------
    def on_tick(self) -> None:
        """Scheduler tick: decay running time-sharing quanta.

        Recharges everyone when all runnable OTHER tasks exhausted their
        counters (the 2.4-style epoch recharge).
        """
        for cpu in self.cpus:
            t = cpu.current
            if t is None:
                continue
            if t.policy == SchedPolicy.OTHER:
                t.counter_ticks -= 1
                if t.counter_ticks <= 0:
                    cpu.need_resched = True
            elif t.policy == SchedPolicy.RR:
                t.counter_ticks -= 1
                if t.counter_ticks <= 0:
                    t.counter_ticks = self.quantum_ticks
                    cpu.need_resched = True
        self._recharge_epoch()

    def should_preempt(self, cpu: CPU) -> bool:
        """Checked at op boundaries: does ``cpu.current`` lose the CPU?"""
        t = cpu.current
        if t is None:
            return False
        if cpu.need_resched:
            return True
        return any(
            self._beats(w, t) for w in self.runqueue if w.state == TaskState.READY
        )

