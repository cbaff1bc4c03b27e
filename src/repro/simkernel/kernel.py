"""The simulated operating-system kernel.

:class:`Kernel` ties the engine, scheduler, memory system, VFS, signals
and syscall table into a runnable machine.  Programs (generators of
:mod:`~repro.simkernel.ops` operations) execute under a multiprocessor
scheduler with privilege-boundary, fault, signal, TLB, and interrupt
costs charged per the :class:`~repro.simkernel.costs.CostModel`.

The checkpoint mechanisms in :mod:`repro.mechanisms` are built *on* this
kernel, through the same interfaces their real counterparts use: new
system calls, new signals with kernel-mode default actions, kernel
threads reached via ``/dev`` ioctls or ``/proc`` writes, and user-level
signal handlers plus syscall interposition.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import (
    MemoryError_,
    SchedulerError,
    SimulationError,
    SyscallError,
)
from .costs import CostModel, DEFAULT_COSTS
from .engine import Engine
from .memory import AddressSpace, PageFlag, Prot, VMA, VMAKind
from .ops import Compute, Exit, MemRead, MemWrite, Op, Sleep, Syscall, Yield
from .process import (
    FileDescriptor,
    Mode,
    ProgramFactory,
    SchedPolicy,
    Task,
    TaskState,
)
from .scheduler import CPU, Scheduler
from .signals import HandlerKind, Sig, SignalHandler, default_action
from .syscalls import SyscallTable
from .vfs import File, VFS

__all__ = ["Kernel"]

#: Default VMA layout for a freshly spawned process, modelling the paper's
#: enumeration "code, shared libraries, data, heap, stack".
_DEFAULT_LAYOUT: Tuple[Tuple[str, int, int, VMAKind], ...] = (
    ("code", 256 * 1024, Prot.RX, VMAKind.CODE),
    ("libc.so", 512 * 1024, Prot.RX, VMAKind.SHLIB),
    ("data", 128 * 1024, Prot.RW, VMAKind.DATA),
    ("heap", 1024 * 1024, Prot.RW, VMAKind.HEAP),
    ("stack", 128 * 1024, Prot.RW, VMAKind.STACK),
)


class Kernel:
    """A single simulated node's operating system.

    Parameters
    ----------
    ncpus:
        Number of processors (the kernel-thread concurrency arguments of
        Section 4.1 need at least 2 to show).
    costs:
        Cost model; defaults to :data:`~repro.simkernel.costs.DEFAULT_COSTS`.
    engine:
        Optionally share an engine (the cluster layer runs many kernels on
        one virtual clock).
    node_id:
        Identity within a cluster; stamped on tasks for migration checks.
    """

    def __init__(
        self,
        ncpus: int = 1,
        costs: CostModel = DEFAULT_COSTS,
        engine: Optional[Engine] = None,
        seed: int = 0,
        node_id: int = 0,
    ) -> None:
        self.costs = costs
        self.engine = engine if engine is not None else Engine(seed=seed)
        self.node_id = node_id
        self.vfs = VFS()
        self.scheduler = Scheduler(costs, ncpus=ncpus)
        #: One prebound dispatch callable per CPU, posted by :meth:`_kick`.
        self._dispatchers = [
            (cpu, partial(self._dispatch, cpu)) for cpu in self.scheduler.cpus
        ]
        self.syscalls = SyscallTable()
        self.tasks: Dict[int, Task] = {}
        self._next_pid = 100
        self._tick_started = False
        self._halted = False
        #: Loaded kernel modules by name (see :mod:`repro.simkernel.modules`).
        self.modules: Dict[str, Any] = {}
        #: Extensions compiled into the static kernel (VMADump, EPCKPT ...).
        self.builtin_extensions: List[str] = []
        #: SysV shared-memory segments: key -> dict(size, id, attached_pids).
        self.shm_segments: Dict[int, Dict[str, Any]] = {}
        #: TCP ports in use on this node (restore-conflict modelling).
        self.ports_in_use: set = set()
        #: Hardware write tracker hook (Revive/SafetyNet models):
        #: ``fn(task, vma, page_index, offset, length)``.
        self.hw_tracker: Optional[Callable[[Task, VMA, int, int, int], None]] = None
        #: Per-task itimers: pid -> (interval_ns, sig, event).
        self._itimers: Dict[int, Dict[str, Any]] = {}
        #: Callbacks fired when a task exits: pid -> [fn(task)].
        self._exit_watchers: Dict[int, List[Callable[[Task], None]]] = {}
        #: Kernel-added signal default actions: sig -> (action, label).
        self._kernel_signal_actions: Dict[Sig, Tuple[Callable[[Task], None], str]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def alloc_pid(self) -> int:
        """Allocate the next process id."""
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def make_address_space(
        self,
        layout: Optional[Iterable[Tuple[str, int, int, VMAKind]]] = None,
        heap_bytes: Optional[int] = None,
    ) -> AddressSpace:
        """Build an address space with the standard (or given) layout."""
        mm = AddressSpace(self.costs)
        rows = list(layout) if layout is not None else list(_DEFAULT_LAYOUT)
        if heap_bytes is not None:
            rows = [
                (n, heap_bytes if n == "heap" else b, p, k) for (n, b, p, k) in rows
            ]
        for name, nbytes, prot, kind in rows:
            mm.map(name, nbytes, prot=prot, kind=kind)
        return mm

    def spawn_process(
        self,
        name: str,
        program_factory: Optional[ProgramFactory] = None,
        mm: Optional[AddressSpace] = None,
        heap_bytes: Optional[int] = None,
        policy: SchedPolicy = SchedPolicy.OTHER,
        static_prio: int = 120,
        rt_prio: int = 0,
        start: bool = True,
        start_step: int = 0,
        pid: Optional[int] = None,
    ) -> Task:
        """Create a user process and (by default) enqueue it.

        ``start_step`` resumes the program at a recorded restart cursor;
        ``pid`` forces a specific process id (UCLiK-style PID restore) --
        it must be free.
        """
        if mm is None:
            mm = self.make_address_space(heap_bytes=heap_bytes)
        if pid is not None:
            if pid in self.tasks:
                raise SimulationError(f"pid {pid} already in use")
            self._next_pid = max(self._next_pid, pid + 1)
        task = Task(
            pid=pid if pid is not None else self.alloc_pid(),
            name=name,
            mm=mm,
            program_factory=program_factory,
            policy=policy,
            static_prio=static_prio,
            rt_prio=rt_prio,
            start_step=start_step,
        )
        task.node_id = self.node_id
        self.tasks[task.pid] = task
        self._install_kernel_signals(task)
        if start and program_factory is not None:
            self.scheduler.enqueue(task)
            self._kick()
        elif not start:
            task.state = TaskState.STOPPED
        return task

    def spawn_kthread(
        self,
        name: str,
        program_factory: ProgramFactory,
        policy: SchedPolicy = SchedPolicy.FIFO,
        rt_prio: int = 50,
        start: bool = True,
    ) -> Task:
        """Create a kernel thread (no own address space, kernel mode)."""
        task = Task(
            pid=self.alloc_pid(),
            name=name,
            mm=None,
            program_factory=program_factory,
            is_kthread=True,
            policy=policy,
            rt_prio=rt_prio,
        )
        task.node_id = self.node_id
        self.tasks[task.pid] = task
        if start:
            self.scheduler.enqueue(task)
            self._kick()
        else:
            task.state = TaskState.STOPPED
        return task

    def task_by_pid(self, pid: int) -> Task:
        """Look up a live task."""
        try:
            return self.tasks[pid]
        except KeyError:
            raise SimulationError(f"no task with pid {pid}") from None

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin scheduler ticks and dispatch idle CPUs."""
        if not self._tick_started:
            self._tick_started = True
            self.engine.after_anon(self.costs.tick_ns, self._tick)
        self._kick()

    def run_for(self, duration_ns: int) -> None:
        """Advance virtual time by ``duration_ns``."""
        self.start()
        self.engine.run(until_ns=self.engine.now_ns + int(duration_ns))

    def run_until(self, time_ns: int) -> None:
        """Advance virtual time to absolute ``time_ns``."""
        self.start()
        self.engine.run(until_ns=int(time_ns))

    def run_until_exit(self, task: Task, limit_ns: int = 10**15) -> None:
        """Run until ``task`` exits (or the safety limit trips)."""
        self.start()
        self.engine.run(
            until_ns=self.engine.now_ns + int(limit_ns),
            until=lambda: not task.alive(),
        )
        if task.alive():
            raise SimulationError(f"task {task.name!r} did not exit within limit")

    def _tick(self) -> None:
        """Scheduler tick: an interrupt on every CPU."""
        if self._halted:
            return
        for cpu in self.scheduler.cpus:
            if cpu.irq_disabled:
                cpu.deferred_irqs += 1
                continue
            if cpu.current is not None:
                cpu.irq_backlog_ns += self.costs.interrupt_overhead_ns
                cpu.current.acct.interrupts_absorbed += 1
        self.scheduler.on_tick()
        if self._itimers:
            self._fire_itimers()
        self._kick()
        self.engine.after_anon(self.costs.tick_ns, self._tick)

    def halt(self) -> None:
        """Stop issuing ticks (node failure / power-down)."""
        self._halted = True

    def _fire_itimers(self) -> None:
        now = self.engine.now_ns
        for pid, it in list(self._itimers.items()):
            if it["next_ns"] <= now:
                task = self.tasks.get(pid)
                if task is not None and task.alive():
                    self.post_signal(task.pid, it["sig"])
                if it["interval_ns"] > 0:
                    while it["next_ns"] <= now:
                        it["next_ns"] += it["interval_ns"]
                else:
                    del self._itimers[pid]

    # ------------------------------------------------------------------
    # Dispatch / execution
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        """Schedule dispatch on every idle CPU (coalesced per call).

        The dispatch event is posted even when nothing is runnable: the
        idle path keeps every event, so event counts and same-instant
        order do not depend on how cheaply an idle CPU is handled.
        """
        after_anon = self.engine.after_anon
        for cpu, dispatch in self._dispatchers:
            if cpu.current is None:
                after_anon(0, dispatch)

    def _dispatch(self, cpu: CPU) -> None:
        if self._halted or cpu.current is not None or not self.scheduler.runqueue:
            return
        task = self.scheduler.pick_next(cpu)
        if task is None:
            return
        cpu.need_resched = False
        switch_ns = self.costs.context_switch_ns
        task.acct.context_switches += 1
        if task.mm is not None and cpu.current_mm is not task.mm:
            switch_ns += self.costs.address_space_switch_ns + self.costs.tlb_flush_ns
            cpu.current_mm = task.mm
            task.tlb_cold_pages = min(
                task.mm.total_present_pages(), self.costs.tlb_entries
            )
            self.engine.metrics.inc("mm_switches")
        self.engine.after_anon(switch_ns, lambda: self._begin_op(cpu))

    def _preempt(self, cpu: CPU, requeue: bool = True) -> None:
        task = cpu.current
        cpu.current = None
        cpu.need_resched = False
        if task is not None and requeue and task.alive():
            self.scheduler.enqueue(task)
        self._dispatch(cpu)

    def _begin_op(self, cpu: CPU) -> None:
        """Fetch and start the current task's next operation."""
        task = cpu.current
        if task is None or self._halted:
            return
        if task.stop_requested:
            self._enter_stopped(task, cpu)
            return
        # Signal delivery happens on the kernel->user transition, i.e.
        # before the next USER-mode op, and only outside handler frames.
        if (
            task.signals.pending
            and not task.is_kthread
            and not task.in_handler
            and task.signals.has_deliverable()
        ):
            if self._deliver_one_signal(task, cpu):
                return  # task exited or stopped; CPU already re-dispatched
        op = task.next_op()
        if op is None:
            self._exit_task(task, code=0)
            return
        self._execute(cpu, task, op)

    def _execute(self, cpu: CPU, task: Task, op: Op) -> None:
        """Compute the op's duration, apply side effects, schedule completion."""
        result: Any = None
        task.in_non_reentrant = bool(op.non_reentrant)
        # Exact-type dispatch, commonest first (the op vocabulary is closed).
        cls = type(op)

        if cls is Compute:
            duration = int(op.ns)

        elif cls is MemWrite:
            duration = self._service_write(task, op)

        elif cls is MemRead:
            duration = self._service_read(task, op)

        elif cls is Syscall:
            try:
                res, duration = self.syscalls.dispatch(self, task, op.name, op.args)
                result = res.value
            except SyscallError as exc:
                result = exc
                duration = self.costs.syscall_ns()

        elif cls is Sleep:
            task.state = TaskState.SLEEPING
            cpu.current = None
            self.engine.after_anon(int(op.ns), lambda: self._wake(task))
            self._dispatch(cpu)
            return

        elif cls is Yield:
            task.completed_op()
            self.scheduler.enqueue(task)
            self._preempt(cpu, requeue=False)
            return

        elif cls is Exit:
            self._exit_task(task, code=int(op.code))
            return

        else:
            raise SimulationError(f"unknown op {op!r}")

        duration += cpu.irq_backlog_ns
        cpu.irq_backlog_ns = 0
        self.engine.after_anon(
            max(0, duration), partial(self._complete_op, cpu, task, duration, result)
        )

    def _complete_op(self, cpu: CPU, task: Task, duration: int, result: Any) -> None:
        if self._halted:
            return
        task.acct.cpu_ns += duration
        if task.mode == Mode.USER:
            task.acct.user_ns += duration
        else:
            task.acct.kernel_ns += duration
        # NOTE: ``in_non_reentrant`` is deliberately *not* cleared here: a
        # signal delivered at the next boundary logically interrupted the
        # op that just ran, so the reentrancy-hazard check must still see
        # whether that op was inside malloc/free.  The next _execute()
        # overwrites the flag.
        if result is not None:
            task.feed_result(result)
        if not task.alive():
            return
        task.completed_op()
        if cpu.current is not task:
            # Task was stopped/migrated underneath us.
            return
        if task.stop_requested:
            self._enter_stopped(task, cpu)
            return
        if self.scheduler.should_preempt(cpu):
            self._preempt(cpu)
            return
        self._begin_op(cpu)

    # -- memory access servicing ----------------------------------------
    def _service_write(self, task: Task, op: MemWrite) -> int:
        """Service the write's first page; queue the rest as segments.

        A write that spans pages runs one page per op: the 2nd..nth
        per-page segments go on the task's op queue as continuations.
        A tracking fault reflected to a user-level handler requeues the
        page's write at the front of that queue, to be retried after the
        handler returns, and charges only the fault.
        """
        mm = task.mm
        if mm is None:
            raise MemoryError_("kernel thread has no address space to write")
        vma = mm.vma(op.vma)
        ps = vma.page_size
        end = op.offset + op.nbytes
        if op.offset < 0 or end > vma.npages * ps:
            raise MemoryError_(
                f"write [{op.offset}, {end}) outside VMA "
                f"{vma.name!r} of {vma.size_bytes} bytes"
            )
        pidx, in_page_off = divmod(op.offset, ps)
        if in_page_off + op.nbytes > ps:
            off = (pidx + 1) * ps
            while off < end:
                task.op_queue.append(
                    MemWrite(vma=op.vma, offset=off, nbytes=min(ps, end - off),
                             seed=op.seed, continuation=True)
                )
                off += ps
            op = MemWrite(vma=op.vma, offset=op.offset, nbytes=ps - in_page_off,
                          seed=op.seed, continuation=op.continuation)

        # Tracking fault reflected to a *user-level* handler (SIGSEGV)?
        # mprotect covers the whole mapped range, so first-touch of a page
        # that was never allocated also faults while the VMA is armed.
        f = vma.flags.item(pidx)
        tracked_hit = f & PageFlag.TRACK_WP or (
            vma.tracking_armed and not f & (PageFlag.PRESENT | PageFlag.UNPROT)
        )
        if (
            tracked_hit
            and task.annotations.get("tracking_mode") == "user"
            and task.mode == Mode.USER
        ):
            task.acct.page_faults += 1
            task.acct.tracking_faults += 1
            task.annotations["fault_info"] = {"vma": vma.name, "page": pidx}
            task.op_queue.appendleft(op)
            task.op_counts_main = False  # the retry counts, not this attempt
            self.post_signal(task.pid, Sig.SIGSEGV)
            return self.costs.page_fault_ns

        duration = 0
        outcome = mm.write_access(vma, pidx, in_page_off, op.nbytes)
        if outcome.allocated:
            duration += self.costs.page_fault_ns + self.costs.page_alloc_ns
            task.acct.page_faults += 1
        if outcome.cow_copied:
            duration += self.costs.page_fault_ns + self.costs.memcpy_ns(
                vma.page_size
            )
            task.acct.page_faults += 1
            task.acct.cow_copies += 1
        if outcome.tracking_fault:
            # System-level tracking: the fault handler logs the dirty page
            # directly and unprotects -- no signal, no user frame.
            duration += self.costs.page_fault_ns + 200
            task.acct.page_faults += 1
            task.acct.tracking_faults += 1
            vma.clear_flag(pidx, PageFlag.TRACK_WP)
            log = task.annotations.get("dirty_log")
            if log is not None:
                log.record(vma.name, pidx)
        if task.tlb_cold_pages > 0:
            duration += self.costs.tlb_refill_per_entry_ns
            task.acct.tlb_refill_ns += self.costs.tlb_refill_per_entry_ns
            task.tlb_cold_pages -= 1
        mm.fill_pattern(vma, pidx, in_page_off, op.nbytes, op.seed)
        duration += self.costs.memcpy_ns(op.nbytes)
        if self.hw_tracker is not None:
            self.hw_tracker(task, vma, pidx, in_page_off, op.nbytes)
        return duration

    def _service_read(self, task: Task, op: MemRead) -> int:
        mm = task.mm
        if mm is None:
            raise MemoryError_("kernel thread has no address space to read")
        vma = mm.vma(op.vma)
        if op.offset < 0 or op.offset + op.nbytes > vma.size_bytes:
            raise MemoryError_(f"read outside VMA {vma.name!r}")
        duration = self.costs.memcpy_ns(op.nbytes)
        first = op.offset // vma.page_size
        last = (op.offset + max(op.nbytes, 1) - 1) // vma.page_size
        for pidx in range(first, last + 1):
            _, allocated = vma.ensure_page(pidx, write=False)
            if allocated:
                duration += self.costs.page_fault_ns + self.costs.page_alloc_ns
                task.acct.page_faults += 1
            vma.set_flag(pidx, PageFlag.ACCESSED)
            if task.tlb_cold_pages > 0:
                duration += self.costs.tlb_refill_per_entry_ns
                task.acct.tlb_refill_ns += self.costs.tlb_refill_per_entry_ns
                task.tlb_cold_pages -= 1
        return duration

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def post_signal(self, pid: int, sig: Sig, sender: Optional[Task] = None) -> None:
        """Queue ``sig`` for ``pid`` (the ``kill()`` path).

        A system-level initiator may instead "directly updat[e] the data
        structure of the process" -- call with ``sender=None`` for that
        free path; user-mode senders go through the ``kill`` syscall which
        charges them.
        """
        task = self.task_by_pid(pid)
        if not task.alive():
            return
        task.signals.post(sig)
        self.engine.metrics.inc(f"signal_post_{Sig(sig).name}")
        if task.state == TaskState.SLEEPING:
            self._wake(task)
        elif task.state == TaskState.STOPPED and sig == Sig.SIGCONT:
            self.resume_task(task)
        self._kick()

    def _deliver_one_signal(self, task: Task, cpu: CPU) -> bool:
        """Deliver the next signal; True if the task lost the CPU."""
        sig = task.signals.take_deliverable()
        if sig is None:
            return False
        task.acct.signals_received += 1
        handler = task.signals.disposition(sig)
        if handler.kind == HandlerKind.IGNORE:
            return False
        if handler.kind == HandlerKind.USER:
            if handler.uses_non_reentrant and task.in_non_reentrant:
                task.signals.reentrancy_hazards += 1
                self.engine.metrics.inc("reentrancy_hazards")
            cpu.irq_backlog_ns += self.costs.signal_deliver_user_ns
            task.acct.mode_switches += 2
            task.push_frame(handler.program_factory(task), Mode.USER)
            return False
        if handler.kind == HandlerKind.KERNEL:
            cpu.irq_backlog_ns += self.costs.signal_deliver_kernel_ns
            handler.kernel_action(task)
            return False
        # DEFAULT disposition
        action = default_action(sig)
        if action == "ignore":
            return False
        if action == "stop":
            self._enter_stopped(task, cpu)
            return True
        self._exit_task(task, code=128 + int(sig))
        return True

    def register_handler(self, task: Task, sig: Sig, handler: SignalHandler) -> None:
        """Install a signal handler from kernel context (no syscall cost)."""
        task.signals.register(sig, handler)

    def add_kernel_signal(self, sig: Sig, action: Callable[[Task], None], label: str = "") -> None:
        """Give ``sig`` a *kernel-mode default action* for every task.

        This models EPCKPT/CHPOX/Software-Suspend adding a new signal to
        the kernel whose default action checkpoints (or freezes) the
        process -- no per-task registration needed.
        """
        self._kernel_signal_actions[sig] = (action, label)
        for task in self.tasks.values():
            if not task.is_kthread:
                task.signals.handlers.setdefault(
                    sig,
                    SignalHandler(kind=HandlerKind.KERNEL, kernel_action=action, label=label),
                )

    def remove_kernel_signal(self, sig: Sig) -> None:
        """Remove a kernel-added signal action (module unload)."""
        self._kernel_signal_actions.pop(sig, None)
        for task in self.tasks.values():
            h = task.signals.handlers.get(sig)
            if h is not None and h.kind == HandlerKind.KERNEL:
                del task.signals.handlers[sig]

    def _install_kernel_signals(self, task: Task) -> None:
        for sig, (action, label) in self._kernel_signal_actions.items():
            task.signals.handlers.setdefault(
                sig,
                SignalHandler(kind=HandlerKind.KERNEL, kernel_action=action, label=label),
            )

    # ------------------------------------------------------------------
    # Task state control
    # ------------------------------------------------------------------
    def _wake(self, task: Task) -> None:
        if not task.alive():
            return
        if task.state == TaskState.SLEEPING:
            if task.stop_requested:
                task.state = TaskState.STOPPED
                task.stop_requested = False
                return
            self.scheduler.enqueue(task)
            self._kick()

    def _enter_stopped(self, task: Task, cpu: Optional[CPU]) -> None:
        task.stop_requested = False
        task.state = TaskState.STOPPED
        self.scheduler.dequeue(task)
        if cpu is not None and cpu.current is task:
            cpu.current = None
            self._dispatch(cpu)

    def stop_task(self, task: Task) -> None:
        """Freeze a task at its next op boundary (checkpoint consistency).

        The paper: "a mechanism to stop the application is necessary (like
        removing the application from its runqueue list) in order to
        guarantee data consistency."
        """
        if not task.alive():
            return
        if task.state == TaskState.READY:
            self._enter_stopped(task, None)
        elif task.state == TaskState.RUNNING:
            task.stop_requested = True
        elif task.state == TaskState.SLEEPING:
            task.stop_requested = True  # parks STOPPED on wake
        task.annotations["stop_time_ns"] = self.engine.now_ns

    def resume_task(self, task: Task) -> None:
        """Unfreeze a STOPPED task."""
        if not task.alive() and task.state != TaskState.STOPPED:
            return
        if task.state == TaskState.STOPPED:
            t0 = task.annotations.pop("stop_time_ns", None)
            if t0 is not None:
                task.acct.stall_ns += self.engine.now_ns - t0
            self.scheduler.enqueue(task)
            self._kick()

    def _exit_task(self, task: Task, code: int) -> None:
        task.exit_code = code
        task.state = TaskState.ZOMBIE
        self.scheduler.dequeue(task)
        for cpu in self.scheduler.cpus:
            if cpu.current is task:
                cpu.current = None
                self._dispatch(cpu)
        if task.parent is not None and task.parent.alive():
            task.parent.signals.post(Sig.SIGCHLD)
        for fn in self._exit_watchers.pop(task.pid, []):
            fn(task)
        self._itimers.pop(task.pid, None)
        self.engine.metrics.inc("task_exits")

    def on_exit(self, task: Task, fn: Callable[[Task], None]) -> None:
        """Register a callback fired when ``task`` exits."""
        if not task.alive():
            fn(task)
            return
        self._exit_watchers.setdefault(task.pid, []).append(fn)

    def reap(self, task: Task) -> int:
        """Collect a zombie; returns exit code."""
        if task.state != TaskState.ZOMBIE:
            raise SimulationError(f"task {task.name!r} is not a zombie")
        task.state = TaskState.DEAD
        self.tasks.pop(task.pid, None)
        return task.exit_code if task.exit_code is not None else -1

    # ------------------------------------------------------------------
    # fork / kthread mm attach
    # ------------------------------------------------------------------
    def do_fork(
        self,
        parent: Task,
        child_program_factory: Optional[ProgramFactory] = None,
        stopped: bool = True,
    ) -> Tuple[Task, int]:
        """Fork ``parent``; returns (child, cost_ns).

        The child's address space is COW-shared; this is the consistency
        device of the concurrent "Checkpoint" mechanism [5] and of
        libckpt's forked checkpoints: the frozen child preserves the
        instantaneous image while the parent keeps running.
        """
        child_mm = parent.mm.fork()
        child = Task(
            pid=self.alloc_pid(),
            name=f"{parent.name}-child",
            mm=child_mm,
            program_factory=child_program_factory,
            policy=parent.policy,
            static_prio=parent.static_prio,
            rt_prio=parent.rt_prio,
            uid=parent.uid,
        )
        child.node_id = self.node_id
        child.parent = parent
        parent.children.append(child)
        # Duplicate descriptor table (offsets copied; files shared).
        for fd, fdesc in parent.fds.items():
            child.install_fd(
                FileDescriptor(
                    fd=fd,
                    file=fdesc.file,
                    offset=fdesc.offset,
                    flags=fdesc.flags,
                    cloexec=fdesc.cloexec,
                )
            )
            fdesc.file.refcount += 1
        child.signals.blocked = set(parent.signals.blocked)
        child.signals.handlers = dict(parent.signals.handlers)
        child.main_steps = parent.main_steps
        self.tasks[child.pid] = child
        cost = self.costs.fork_fixed_ns + self.costs.fork_per_page_ns * (
            parent.mm.total_present_pages()
        )
        if stopped or child_program_factory is None:
            child.state = TaskState.STOPPED
        else:
            self.scheduler.enqueue(child)
            self._kick()
        self.engine.metrics.inc("forks")
        return child, cost

    def kthread_attach_mm(self, kthread: Task, target: Task) -> int:
        """Attach a kernel thread to ``target``'s page tables; returns cost.

        If the CPU running the kthread already holds the target's mm (the
        kthread "interrupt[ed] the application it wants to checkpoint"),
        the attach is free; otherwise it pays an address-space switch plus
        a TLB flush, and the displaced working set reloads cold.
        """
        cpu = self._cpu_of(kthread)
        if cpu is None:
            raise SchedulerError("kthread is not running on any CPU")
        if cpu.current_mm is target.mm:
            return 0
        cost = self.costs.address_space_switch_ns + self.costs.tlb_flush_ns
        displaced = cpu.current_mm
        cpu.current_mm = target.mm
        if displaced is not None:
            for t in self.tasks.values():
                if t.mm is displaced:
                    t.tlb_cold_pages = min(
                        displaced.total_present_pages(), self.costs.tlb_entries
                    )
        self.engine.metrics.inc("kthread_mm_switches")
        return cost

    def _cpu_of(self, task: Task) -> Optional[CPU]:
        for cpu in self.scheduler.cpus:
            if cpu.current is task:
                return cpu
        return None

    # ------------------------------------------------------------------
    # Interrupt control (paper: defer interrupts during checkpoint)
    # ------------------------------------------------------------------
    def disable_irqs_for(self, task: Task) -> bool:
        """Disable interrupts on the CPU running ``task``; True on success."""
        cpu = self._cpu_of(task)
        if cpu is None:
            return False
        cpu.irq_disabled = True
        return True

    def enable_irqs_for(self, task: Task) -> int:
        """Re-enable interrupts; returns how many were deferred."""
        cpu = self._cpu_of(task)
        if cpu is None:
            return 0
        cpu.irq_disabled = False
        deferred = cpu.deferred_irqs
        cpu.deferred_irqs = 0
        # Deferred interrupts are replayed as a burst of backlog.
        cpu.irq_backlog_ns += deferred * self.costs.interrupt_overhead_ns
        return deferred

    def enable_irq_noise(self, rate_hz: float) -> None:
        """Generate Poisson device interrupts at ``rate_hz`` per CPU."""
        if rate_hz <= 0:
            return
        rng = self.engine.spawn_rng()
        mean_gap_ns = 1e9 / rate_hz

        def arrival(cpu: CPU) -> None:
            if self._halted:
                return
            if cpu.irq_disabled:
                cpu.deferred_irqs += 1
            elif cpu.current is not None:
                cpu.irq_backlog_ns += self.costs.interrupt_overhead_ns
                cpu.current.acct.interrupts_absorbed += 1
            gap = max(1, int(rng.exponential(mean_gap_ns)))
            self.engine.after_anon(gap, lambda: arrival(cpu))

        for cpu in self.scheduler.cpus:
            gap = max(1, int(rng.exponential(mean_gap_ns)))
            self.engine.after_anon(gap, lambda c=cpu: arrival(c))

    # ------------------------------------------------------------------
    # Direct kernel-side state access (system-level checkpointers)
    # ------------------------------------------------------------------
    def read_task_struct(self, task: Task) -> Dict[str, Any]:
        """Everything a system-level checkpointer reads "for free".

        "In kernel space every data structure relevant to a process's
        state is readily accessible: these include registers, memory
        regions, file descriptors, signal state, and more."
        """
        return {
            "pid": task.pid,
            "name": task.name,
            "uid": task.uid,
            "registers": task.registers.snapshot(),
            "main_steps": task.main_steps,
            "policy": task.policy.value,
            "static_prio": task.static_prio,
            "vmas": [
                {
                    "name": v.name,
                    "start": v.start,
                    "npages": v.npages,
                    "prot": v.prot,
                    "kind": v.kind.value,
                    "shared": v.shared,
                    "file_path": v.file_path,
                    "shm_key": v.shm_key,
                }
                for v in task.mm.vmas
            ]
            if task.mm is not None
            else [],
            "fds": [fd.snapshot() for fd in task.fds.values()],
            "signals": task.signals.snapshot(),
        }
