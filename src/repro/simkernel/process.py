"""Simulated tasks (processes and kernel threads).

A :class:`Task` carries exactly the state the paper enumerates as "every
data structure relevant to a process's state": registers, memory regions
(the :class:`~repro.simkernel.memory.AddressSpace`), file descriptors,
signal state, credentials, and scheduling parameters.  System-level
checkpointers read these fields directly; user-level ones must recover the
same information through system calls (``sbrk``, ``lseek``,
``sigpending`` ...) at boundary-crossing cost -- that asymmetry is
experiment E3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple, TYPE_CHECKING

from ..errors import SimulationError
from .memory import AddressSpace
from .signals import SignalState

if TYPE_CHECKING:  # pragma: no cover
    from .vfs import File

__all__ = [
    "TaskState",
    "SchedPolicy",
    "Mode",
    "Registers",
    "FileDescriptor",
    "Accounting",
    "Task",
    "ProgramFactory",
]

#: Builds the op generator for a task, resuming at ``start_step`` main-program
#: ops already completed (restart support).
ProgramFactory = Callable[["Task", int], Generator]


def _as_generator(program: Iterator) -> Generator:
    """``program`` itself, or a generator over a plain iterator that drops
    the results the kernel sends (a plain iterator cannot receive them)."""
    return program if hasattr(program, "send") else (op for op in program)


class TaskState(str, Enum):
    """Lifecycle states (Linux-flavoured)."""

    READY = "ready"  # runnable, waiting for a CPU
    RUNNING = "running"
    SLEEPING = "sleeping"  # blocked (I/O, sleep, waiting)
    STOPPED = "stopped"  # SIGSTOP / frozen for checkpoint or suspend
    ZOMBIE = "zombie"  # exited, not yet reaped
    DEAD = "dead"


class SchedPolicy(str, Enum):
    """Scheduling classes.

    ``CKPT`` is the paper's proposed "new priority ... introduced in order
    to be sure nobody will interrupt the kernel thread": it outranks even
    SCHED_FIFO tasks.
    """

    OTHER = "other"  # time sharing with dynamic priority decay
    FIFO = "fifo"  # real-time, run to completion at its rt_prio
    RR = "rr"  # real-time round robin
    CKPT = "ckpt"  # above FIFO: dedicated checkpoint class


class Mode(str, Enum):
    """Privilege mode the task's current op executes in."""

    USER = "user"
    KERNEL = "kernel"


@dataclass
class Registers:
    """Architectural register file (deterministic, checkpoint-verifiable).

    ``pc`` advances once per completed op; ``gpr`` entries are scrambled
    deterministically so a restored register file can be compared
    bit-for-bit against the original.
    """

    pc: int = 0x1000
    sp: int = 0x7FFF_F000
    gpr: List[int] = field(default_factory=lambda: [0] * 8)

    def advance(self, step: int) -> None:
        """Deterministically evolve the register file after an op."""
        self.pc += 4
        self.gpr[step % 8] = (self.gpr[step % 8] * 6364136223846793005 + step) & (
            2**64 - 1
        )

    def snapshot(self) -> dict:
        """Serializable copy."""
        return {"pc": self.pc, "sp": self.sp, "gpr": list(self.gpr)}

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Registers":
        """Rebuild from :meth:`snapshot` output."""
        return cls(pc=snap["pc"], sp=snap["sp"], gpr=list(snap["gpr"]))


@dataclass
class FileDescriptor:
    """An open file description: object reference plus position/flags.

    The positioning ``offset`` is the datum a user-level checkpointer must
    fetch with ``lseek()`` per descriptor, and the attribute the kernel
    reads for free.
    """

    fd: int
    file: "File"
    offset: int = 0
    flags: int = 0
    cloexec: bool = False

    def snapshot(self) -> dict:
        """Serializable view used in checkpoint images."""
        return {
            "fd": self.fd,
            "path": self.file.path,
            "kind": self.file.kind,
            "offset": self.offset,
            "flags": self.flags,
            "cloexec": self.cloexec,
        }


@dataclass
class Accounting:
    """Per-task cost/observable counters the experiments report on."""

    cpu_ns: int = 0
    user_ns: int = 0
    kernel_ns: int = 0
    syscalls: int = 0
    mode_switches: int = 0
    page_faults: int = 0
    cow_copies: int = 0
    tracking_faults: int = 0
    signals_received: int = 0
    tlb_refill_ns: int = 0
    interrupts_absorbed: int = 0
    context_switches: int = 0
    stall_ns: int = 0  # time stopped for checkpointing
    main_steps: int = 0


class Task:
    """A simulated process or kernel thread.

    Parameters
    ----------
    pid:
        Process identifier (kernel-persistent state: restoring it on
        another machine requires either luck or virtualization).
    name:
        Diagnostic name.
    mm:
        Address space; kernel threads pass ``None`` and borrow whatever
        page tables are live (the TLB discussion of Section 4.1).
    program_factory:
        Builds this task's op generator; also used to resume after
        restart.
    is_kthread:
        Kernel threads run all ops in kernel mode, are never signalled
        with user handlers, and default to SCHED_FIFO.
    """

    def __init__(
        self,
        pid: int,
        name: str,
        mm: Optional[AddressSpace],
        program_factory: Optional[ProgramFactory] = None,
        is_kthread: bool = False,
        policy: SchedPolicy = SchedPolicy.OTHER,
        static_prio: int = 120,
        rt_prio: int = 0,
        uid: int = 1000,
        start_step: int = 0,
    ) -> None:
        self.pid = pid
        self.name = name
        self.mm = mm
        self.is_kthread = is_kthread
        self.program_factory = program_factory
        self.state = TaskState.READY
        #: Privilege mode of the program frame (and of queued ops).
        self._base_mode = Mode.KERNEL if is_kthread else Mode.USER
        self.mode = self._base_mode
        self.policy = policy if not is_kthread else (
            policy if policy != SchedPolicy.OTHER else SchedPolicy.FIFO
        )
        self.static_prio = static_prio
        self.rt_prio = rt_prio
        self.uid = uid
        self.registers = Registers()
        self.fds: Dict[int, FileDescriptor] = {}
        self._next_fd = 3  # 0..2 notionally stdio
        self.signals = SignalState()
        self.acct = Accounting()
        self.exit_code: Optional[int] = None
        self.parent: Optional["Task"] = None
        self.children: List["Task"] = []
        #: Remaining quantum in scheduler ticks (time-sharing class).
        self.counter_ticks: int = 0
        #: Pages the task must re-walk after a TLB flush hit its CPU.
        self.tlb_cold_pages: int = 0
        #: Frame stack: main program at the bottom, signal handlers and
        #: checkpoint activities pushed on top.  Each entry is a mutable
        #: ``[generator, mode, pending_send]`` -- a kernel-mode signal
        #: action or checkpoint capture runs its ops in kernel mode even
        #: though it executes in this task's context (the paper's
        #: "executed in kernel mode behind the process that has to be
        #: checkpointed").
        self._stack: List[list] = []
        #: Frame that yielded the op currently in flight (send routing).
        self._yield_frame: Any = None
        #: Whether the op currently in flight advances :attr:`main_steps`
        #: on completion; decided when it is fetched.
        self.op_counts_main = False
        #: True while the current op is inside a non-reentrant libc region.
        self.in_non_reentrant = False
        #: Number of *main-program* ops completed (restart cursor).
        self.main_steps = 0
        #: Set by the kernel when a checkpoint stop is requested.
        self.stopped_for_checkpoint = False
        #: Arbitrary per-mechanism annotations (shadow state, pods, ...).
        self.annotations: Dict[str, Any] = {}
        self._chain_tip: Optional[Tuple[Any, str]] = None
        self._held_tip: Optional[Tuple[Any, str]] = None  # tip whose key it holds
        #: Opaque owner node id (set by the cluster layer).
        self.node_id: Optional[int] = None
        #: Set while the kernel has asked this task to stop at the next op
        #: boundary (checkpoint freeze).
        self.stop_requested = False
        #: Ops that run before the program resumes: the per-page segments
        #: of a multi-page write, and (at the front) a write that faulted
        #: into a user-level tracking handler and is retried after it.
        self.op_queue: deque = deque()
        if program_factory is not None:
            self.rebuild_program(start_step)
            self.acct.main_steps = start_step

    # ------------------------------------------------------------------
    @property
    def chain_tip(self) -> Optional[Tuple[Any, str]]:
        """``(storage, key)`` of the image this task's next delta extends:
        the last completed checkpoint, restore or rollback.  A task
        attribute, not an annotation, so no image ever captures it."""
        return self._chain_tip

    @chain_tip.setter
    def chain_tip(self, tip: Optional[Tuple[Any, str]]) -> None:
        """Until the task completes, its tip holds the key in the
        storage's hold table (:mod:`repro.stablestore.holds`); moving
        the tip releases the old key."""
        old, self._chain_tip = self._held_tip, tip
        self._held_tip = tip if self.exit_code != 0 else None
        if self._held_tip is not None:
            tip[0].holds.hold(tip[1])
        if old is not None:
            old[0].holds.release(old[1])

    # ------------------------------------------------------------------
    def alloc_fd(self) -> int:
        """Allocate the next file descriptor number."""
        fd = self._next_fd
        self._next_fd += 1
        return fd

    def install_fd(self, fdesc: FileDescriptor) -> None:
        """Attach an open file description (used by open/dup/restart)."""
        self.fds[fdesc.fd] = fdesc
        self._next_fd = max(self._next_fd, fdesc.fd + 1)

    # -- program execution machinery -------------------------------------
    @property
    def in_handler(self) -> bool:
        """Whether a pushed (signal/checkpoint) frame is executing."""
        return len(self._stack) > 1

    def push_frame(self, gen: Iterator, mode: Mode = Mode.USER) -> None:
        """Push a handler/activity program on top of the program.

        ``mode`` selects the privilege level the frame's ops execute at:
        user signal handlers push USER frames, kernel-mode signal actions
        and in-context checkpoint captures push KERNEL frames.
        """
        self._stack.append([_as_generator(gen), mode, None])

    def next_op(self):
        """Return the task's next op, or None once the program returned.

        Queued ops run first, but only while the program frame is on top
        (a pushed frame runs to completion before them); then the top
        frame's generator resumes.  Exhausted frames are popped.  Pending
        send-values are stored *per frame*: a syscall may push a new frame
        before its result is delivered, and the result belongs to the
        caller's frame, not the pushed one.  Sets :attr:`mode` and
        :attr:`op_counts_main` for the fetched op.
        """
        stack = self._stack
        while True:
            if len(stack) <= 1 and self.op_queue:
                op = self.op_queue.popleft()
                self._yield_frame = None
                self.mode = self._base_mode
                self.op_counts_main = not op.continuation
                return op
            if not stack:
                return None
            frame = stack[-1]
            send_value = frame[2]
            frame[2] = None
            try:
                op = frame[0].send(send_value)
            except StopIteration:
                stack.pop()
                continue
            self._yield_frame = frame
            self.mode = frame[1]
            self.op_counts_main = len(stack) == 1
            return op

    def feed_result(self, value: Any) -> None:
        """Deliver an op result to the frame that yielded the op."""
        if self._yield_frame is not None:
            self._yield_frame[2] = value

    def completed_op(self) -> None:
        """Record completion of one op.

        Advances the register file always; advances the main-step restart
        cursor only if :meth:`next_op` fetched the op from the program
        frame (not a pushed frame, not a continuation segment of a split
        write) and the kernel did not requeue it after a tracking fault.
        """
        if self.op_counts_main:
            self.main_steps += 1
            self.acct.main_steps = self.main_steps
        self.registers.advance(self.main_steps)

    def rebuild_program(self, start_step: int) -> None:
        """Reset the frame stack from the factory at ``start_step``
        (spawn and restart path)."""
        if self.program_factory is None:
            raise SimulationError(f"task {self.name!r} has no program factory")
        self._stack = [[_as_generator(self.program_factory(self, start_step)),
                        self._base_mode, None]]
        self._yield_frame = None
        self.op_queue.clear()
        self.main_steps = start_step

    # ------------------------------------------------------------------
    def effective_prio(self) -> int:
        """Lower is more urgent.  CKPT < FIFO/RR (by rt_prio) < OTHER."""
        if self.policy == SchedPolicy.CKPT:
            return -1000 - self.rt_prio
        if self.policy in (SchedPolicy.FIFO, SchedPolicy.RR):
            return -self.rt_prio
        # Time sharing: dynamic priority improves (decreases) as the task
        # accumulates unused quantum, mirroring counter-based decay.
        return self.static_prio - min(self.counter_ticks, 20)

    def alive(self) -> bool:
        """Neither exited nor reaped."""
        return self.state not in (TaskState.ZOMBIE, TaskState.DEAD)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "kthread" if self.is_kthread else "proc"
        return f"<Task {self.pid} {self.name!r} {kind} {self.state.value}>"
