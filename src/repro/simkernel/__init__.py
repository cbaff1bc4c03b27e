"""Simulated Linux-like operating-system substrate.

This subpackage is the foundation of the reproduction: a deterministic
discrete-event kernel with processes, virtual memory (page protection,
dirty tracking, COW), signals with user/kernel delivery semantics, a
multiprocessor scheduler (time-sharing + real-time + the paper's proposed
checkpoint class), system calls with privilege-boundary costs, kernel
threads with borrowed page tables, a VFS with /dev and /proc, and
loadable kernel modules.

Quick start::

    from repro.simkernel import Kernel, ops

    k = Kernel(ncpus=2, seed=1)

    def program(task, start_step):
        for i in range(start_step, 100):
            yield ops.Compute(ns=10_000)
            yield ops.MemWrite(vma="heap", offset=i * 4096, nbytes=512, seed=i)

    t = k.spawn_process("app", program)
    k.run_until_exit(t)
"""

from . import ops
from .costs import CostModel, DEFAULT_COSTS, NS_PER_MS, NS_PER_S, NS_PER_US
from .engine import Completion, Engine
from .kernel import Kernel
from .memory import AddressSpace, PageFlag, Prot, VMA, VMAKind
from .modules import KernelModule, install_static
from .parallel import (
    Envelope,
    LocalShardGroup,
    ParallelError,
    ShardContext,
    ShardGroup,
    WindowReply,
    WindowStats,
    run_windows,
)
from .process import (
    FileDescriptor,
    Mode,
    Registers,
    SchedPolicy,
    Task,
    TaskState,
)
from .scheduler import CPU, Scheduler
from .signals import HandlerKind, Sig, SignalHandler, SignalState
from .syscalls import SyscallResult, SyscallTable
from .vfs import DeviceNode, File, ProcEntry, RegularFile, SocketFile, VFS

__all__ = [
    "ops",
    "CostModel",
    "DEFAULT_COSTS",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_S",
    "Completion",
    "Engine",
    "Kernel",
    "AddressSpace",
    "PageFlag",
    "Prot",
    "VMA",
    "VMAKind",
    "KernelModule",
    "install_static",
    "FileDescriptor",
    "Mode",
    "Registers",
    "SchedPolicy",
    "Task",
    "TaskState",
    "CPU",
    "Scheduler",
    "HandlerKind",
    "Sig",
    "SignalHandler",
    "SignalState",
    "SyscallResult",
    "SyscallTable",
    "DeviceNode",
    "File",
    "ProcEntry",
    "RegularFile",
    "SocketFile",
    "VFS",
    "Envelope",
    "ShardContext",
    "ShardGroup",
    "LocalShardGroup",
    "WindowReply",
    "WindowStats",
    "ParallelError",
    "run_windows",
]
