"""System-call table, dispatch costs, and interposition hooks.

Two of the paper's arguments live here:

* **Cost asymmetry (E3).** A user-level checkpointer extracts kernel-held
  process state through system calls -- ``sbrk(0)`` for heap boundaries,
  ``lseek()`` per descriptor for file offsets, ``sigpending()`` for queued
  signals -- paying two privilege crossings plus dispatch each time, while
  the kernel reads the same fields directly from the task structure.
  Every syscall here charges :meth:`CostModel.syscall_ns` for user-mode
  callers and only the call-specific work for kernel-mode callers.

* **Interposition overhead (E4).** LD_PRELOAD-based packages wrap
  ``mmap``/``munmap``/``dlopen``/``open``/``dup`` to mirror kernel state
  into user-space shadow structures.  Hooks registered per task via
  :meth:`SyscallTable.interpose` run on matching calls, charge their extra
  bookkeeping time, and may record shadow state in ``task.annotations``.

New checkpoint-specific system calls (VMADump's, EPCKPT's, Checkpoint's)
are registered at module load through :meth:`SyscallTable.register`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import SyscallError
from .process import Mode, Task

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

__all__ = ["SyscallResult", "SyscallTable"]


@dataclass
class SyscallResult:
    """Outcome of a syscall handler: return value + in-kernel work time."""

    value: Any = None
    work_ns: int = 0


#: Handler signature: ``fn(kernel, task, *args) -> SyscallResult``.
Handler = Callable[..., SyscallResult]
#: Interposition hook: ``fn(kernel, task, name, args) -> extra_ns``.
InterposeHook = Callable[["Kernel", Task, str, tuple], int]


class SyscallTable:
    """Name -> handler mapping with per-task interposition."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Handler] = {}
        #: Global hooks (applied to every task) -- rarely used directly.
        self._global_hooks: List[Tuple[frozenset, InterposeHook]] = []

    def register(self, name: str, handler: Handler) -> None:
        """Install (or replace) the handler for ``name``."""
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        """Remove a handler (kernel-module unload path)."""
        self._handlers.pop(name, None)

    def has(self, name: str) -> bool:
        """Whether the call exists in this kernel build."""
        return name in self._handlers

    # ------------------------------------------------------------------
    @staticmethod
    def interpose(task: Task, names: List[str], hook: InterposeHook) -> None:
        """Attach an LD_PRELOAD-style wrapper to ``task`` for ``names``."""
        table = task.annotations.setdefault("interpose", {})
        for n in names:
            table.setdefault(n, []).append(hook)

    # ------------------------------------------------------------------
    def dispatch(
        self, kernel: "Kernel", task: Task, name: str, args: tuple
    ) -> Tuple[SyscallResult, int]:
        """Execute the call; return ``(result, total_duration_ns)``.

        User-mode callers pay the full boundary cost; kernel-mode callers
        (kernel threads, in-context kernel frames) pay dispatch work only,
        reflecting that "all this information is directly accessible in
        the kernel".
        """
        handler = self._handlers.get(name)
        if handler is None:
            raise SyscallError(f"unknown system call {name!r}")
        extra_ns = 0
        hooks = task.annotations.get("interpose", {}).get(name, ())
        for hook in hooks:
            extra_ns += int(hook(kernel, task, name, args))
        result = handler(kernel, task, *args)
        costs = kernel.costs
        if task.mode == Mode.USER:
            duration = costs.syscall_ns(result.work_ns) + extra_ns
            task.acct.mode_switches += 2
        else:
            duration = costs.syscall_dispatch_ns // 4 + result.work_ns + extra_ns
        task.acct.syscalls += 1
        return result, duration
