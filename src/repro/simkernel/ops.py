"""The operation vocabulary that simulated programs are written in.

A *program* is a Python generator that yields :class:`Op` instances; the
kernel executes each op, charges virtual time, and sends results back into
the generator.  Programs run in user mode (applications, user-level
checkpoint handlers) or kernel mode (kernel threads, kernel-mode signal
actions); the same vocabulary serves both, with the kernel charging
boundary crossings only where they really occur.

Programs must be **restartable**: a workload supplies a
``program_factory(task, start_step)`` and the kernel counts completed ops,
so a restarted task resumes at the recorded step with its memory image
restored from the checkpoint rather than replayed.

The kernel dispatches on an op's exact type, so the vocabulary is closed:
a program yields these classes, not subclasses of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

__all__ = [
    "Op",
    "Compute",
    "MemWrite",
    "MemRead",
    "Syscall",
    "Sleep",
    "Exit",
    "Yield",
]


@dataclass(slots=True)
class Op:
    """Base class for program operations."""

    #: When true, the op executes inside a non-reentrant libc region
    #: (malloc/free).  A user signal handler that itself uses those
    #: functions and interrupts such an op triggers the reentrancy hazard
    #: the paper describes.
    non_reentrant: bool = field(default=False, kw_only=True)


@dataclass(slots=True)
class Compute(Op):
    """Pure CPU work for ``ns`` nanoseconds."""

    ns: int = 0


@dataclass(slots=True)
class MemWrite(Op):
    """Write ``nbytes`` at ``offset`` inside the named VMA.

    The kernel splits the range per page, services faults (allocation,
    COW, tracking write-protect), charges copy time, and fills a
    deterministic pattern derived from ``seed`` so restores are
    byte-verifiable.
    """

    vma: str = ""
    offset: int = 0
    nbytes: int = 0
    seed: int = 0
    #: Internal: set on the 2nd..nth per-page segments the kernel splits a
    #: multi-page write into, so only the original op advances the
    #: restart step counter.
    continuation: bool = False


@dataclass(slots=True)
class MemRead(Op):
    """Read ``nbytes`` at ``offset`` in the named VMA (charges bandwidth,
    sets accessed bits, participates in the TLB-cold penalty)."""

    vma: str = ""
    offset: int = 0
    nbytes: int = 0


@dataclass(slots=True)
class Syscall(Op):
    """Invoke the named system call; the result is sent back into the
    program generator.  User-mode callers pay the full boundary cost;
    kernel-mode callers pay only the work."""

    name: str = ""
    args: Tuple[Any, ...] = ()


@dataclass(slots=True)
class Sleep(Op):
    """Block voluntarily for ``ns`` of virtual time."""

    ns: int = 0


@dataclass(slots=True)
class Exit(Op):
    """Terminate the task with ``code``."""

    code: int = 0


@dataclass(slots=True)
class Yield(Op):
    """Relinquish the CPU without blocking (sched_yield)."""
