"""Workloads holding kernel-persistent state.

Section 3 of the paper: "user-level implementations are limited to
applications that do not depend o[n] some persistent state belonging to
the operating system, per example sockets, shared memory, PIDs, and IP
address.  In contrast, a system-level approach can virtualizate these
resources."  These workloads hold a socket and a shared-memory
segment so experiment E11 can show which mechanisms restore them (ZAP
pods), which fail cross-machine (plain system-level), and which cannot
capture them at all (user-level).
"""

from __future__ import annotations

from typing import Iterator

from ..simkernel import Task, ops
from .base import Workload

__all__ = ["SocketApp", "SharedMemoryApp"]


class SocketApp(Workload):
    """Opens a TCP connection at setup; the socket must exist on restart."""

    setup_ops = 1
    ops_per_iteration = 2
    #: The peer every instance connects to.
    REMOTE_ADDR = "10.0.0.9:5000"

    def __init__(self, local_port: int = 40123, **kw) -> None:
        super().__init__(**kw)
        self.local_port = local_port

    def setup(self, task: Task) -> Iterator[ops.Op]:
        yield ops.Syscall(name="socket_connect", args=(self.REMOTE_ADDR, self.local_port))

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        yield ops.Compute(ns=self.compute_ns)
        yield ops.MemWrite(vma="heap", offset=(it * 4096) % (self.heap_bytes - 512), nbytes=512, seed=it)


class SharedMemoryApp(Workload):
    """Attaches a SysV shared-memory segment and writes through it."""

    setup_ops = 2
    ops_per_iteration = 2

    def __init__(self, shm_key: int = 77, shm_bytes: int = 64 * 1024, **kw) -> None:
        super().__init__(**kw)
        self.shm_key = shm_key
        self.shm_bytes = shm_bytes

    def setup(self, task: Task) -> Iterator[ops.Op]:
        yield ops.Syscall(name="shmget", args=(self.shm_key, self.shm_bytes))
        yield ops.Syscall(name="shmat", args=(self.shm_key,))

    def iteration(self, task: Task, it: int) -> Iterator[ops.Op]:
        yield ops.Compute(ns=self.compute_ns)
        yield ops.MemWrite(
            vma=f"shm:{self.shm_key}",
            offset=(it * 256) % (self.shm_bytes - 256),
            nbytes=256,
            seed=it,
        )
