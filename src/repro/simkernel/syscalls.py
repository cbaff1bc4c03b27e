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

Every kernel's table starts with its own copy of the default calls
defined at the bottom of this module.  New checkpoint-specific system
calls (VMADump's, EPCKPT's, Checkpoint's) are registered at module load
through :meth:`SyscallTable.register`, on that kernel only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple, TYPE_CHECKING

from ..errors import SyscallError
from .memory import PageFlag, Prot, VMAKind
from .process import FileDescriptor, Mode, SchedPolicy, Task
from .signals import Sig
from .vfs import SocketFile

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
    """Name -> handler mapping with per-task interposition.

    A new table holds a private copy of the default system calls.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Handler] = dict(_DEFAULT_HANDLERS)

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


# ----------------------------------------------------------------------
# Default system calls
# ----------------------------------------------------------------------
def _sys_getpid(k, task):
    return SyscallResult(task.pid, 50)


def _sys_sbrk(k, task, delta=0):
    heap = task.mm.vma("heap")
    if delta:
        k_new = heap.size_bytes + int(delta)
        task.mm.resize("heap", k_new)
    return SyscallResult(task.mm.vma("heap").end, 150)


def _sys_mmap(k, task, name, nbytes, prot=Prot.RW, kind=VMAKind.ANON, shared=False):
    vma = task.mm.map(name, nbytes, prot=prot, kind=VMAKind(kind), shared=shared)
    return SyscallResult(vma.start, 800)


def _sys_munmap(k, task, name):
    task.mm.unmap(name)
    return SyscallResult(0, 600)


def _sys_mprotect(k, task, vma_name, action, page=None):
    """Tracking-oriented mprotect.

    ``action``: ``"arm"`` write-protects all present pages of the
    VMA for dirty tracking; ``"unprotect"`` clears TRACK_WP on one
    page (the user-level SIGSEGV handler's fix-up); ``"disarm"``
    clears the whole VMA.
    """
    vma = task.mm.vma(vma_name)
    if action == "arm":
        present = (vma.flags & PageFlag.PRESENT) != 0
        armed = int(present.sum())
        vma.flags[present] |= PageFlag.TRACK_WP
        vma.flags[present] &= ~PageFlag.DIRTY & 0xFF
        vma.flags &= ~PageFlag.UNPROT & 0xFF
        vma.tracking_armed = True
        return SyscallResult(armed, 300 + 15 * armed)
    if action == "unprotect":
        vma.clear_flag(int(page), PageFlag.TRACK_WP)
        vma.set_flag(int(page), PageFlag.UNPROT)
        return SyscallResult(0, 300)
    if action == "disarm":
        vma.flags &= ~PageFlag.TRACK_WP & 0xFF
        vma.tracking_armed = False
        return SyscallResult(0, 300)
    raise SyscallError(f"mprotect: unknown action {action!r}")


def _sys_open(k, task, path, create=False):
    if not k.vfs.exists(path) and create:
        k.vfs.create(path)
    f = k.vfs.lookup(path)
    fd = task.alloc_fd()
    task.install_fd(FileDescriptor(fd=fd, file=f))
    f.refcount += 1
    return SyscallResult(fd, 400)


def _sys_close(k, task, fd):
    fdesc = task.fds.pop(int(fd), None)
    if fdesc is None:
        raise SyscallError(f"close: bad fd {fd}")
    fdesc.file.refcount -= 1
    return SyscallResult(0, 200)


def _sys_dup(k, task, fd):
    src = task.fds.get(int(fd))
    if src is None:
        raise SyscallError(f"dup: bad fd {fd}")
    nfd = task.alloc_fd()
    task.install_fd(
        FileDescriptor(fd=nfd, file=src.file, offset=src.offset, flags=src.flags)
    )
    src.file.refcount += 1
    return SyscallResult(nfd, 250)


def _sys_lseek(k, task, fd, offset=0, whence="cur"):
    fdesc = task.fds.get(int(fd))
    if fdesc is None:
        raise SyscallError(f"lseek: bad fd {fd}")
    if whence == "set":
        fdesc.offset = int(offset)
    elif whence == "cur":
        fdesc.offset += int(offset)
    elif whence == "end":
        fdesc.offset = fdesc.file.size + int(offset)
    else:
        raise SyscallError(f"lseek: bad whence {whence!r}")
    return SyscallResult(fdesc.offset, 150)


def _sys_read(k, task, fd, nbytes):
    fdesc = task.fds.get(int(fd))
    if fdesc is None:
        raise SyscallError(f"read: bad fd {fd}")
    data = fdesc.file.read(fdesc.offset, int(nbytes))
    fdesc.offset += len(data)
    return SyscallResult(data, 300 + k.costs.memcpy_ns(len(data)))


def _sys_write(k, task, fd, data):
    fdesc = task.fds.get(int(fd))
    if fdesc is None:
        raise SyscallError(f"write: bad fd {fd}")
    payload = data if isinstance(data, (bytes, bytearray)) else bytes(int(data))
    n = fdesc.file.write(fdesc.offset, bytes(payload))
    fdesc.offset += n
    return SyscallResult(n, 300 + k.costs.memcpy_ns(n))


def _sys_unlink(k, task, path):
    k.vfs.unlink(path)
    return SyscallResult(0, 350)


def _sys_ioctl(k, task, fd, cmd, arg=None):
    fdesc = task.fds.get(int(fd))
    if fdesc is None:
        raise SyscallError(f"ioctl: bad fd {fd}")
    value = fdesc.file.ioctl(task, cmd, arg)
    return SyscallResult(value, 500)


def _sys_kill(k, task, pid, sig):
    k.post_signal(int(pid), Sig(sig))
    return SyscallResult(0, k.costs.signal_post_ns)


def _sys_sigaction(k, task, sig, handler):
    task.signals.register(Sig(sig), handler)
    return SyscallResult(0, 250)


def _sys_sigpending(k, task):
    return SyscallResult(list(task.signals.pending), 150)


def _sys_sigprocmask(k, task, how, sigs):
    sigset = {Sig(s) for s in sigs}
    if how == "block":
        task.signals.blocked |= sigset
    elif how == "unblock":
        task.signals.blocked -= sigset
    elif how == "set":
        task.signals.blocked = sigset
    else:
        raise SyscallError(f"sigprocmask: bad how {how!r}")
    return SyscallResult(0, 200)


def _sys_setitimer(k, task, interval_ns, sig=Sig.SIGALRM, first_ns=None):
    first = int(first_ns) if first_ns is not None else int(interval_ns)
    k._itimers[task.pid] = {
        "interval_ns": int(interval_ns),
        "sig": Sig(sig),
        "next_ns": k.engine.now_ns + first,
    }
    return SyscallResult(0, 300)


def _sys_fork(k, task, child_factory=None):
    child, cost = k.do_fork(task, child_program_factory=child_factory)
    return SyscallResult(child.pid, cost)


def _sys_setsched(k, task, pid, policy, rt_prio=0):
    target = k.task_by_pid(int(pid))
    target.policy = SchedPolicy(policy)
    target.rt_prio = int(rt_prio)
    return SyscallResult(0, 400)


def _sys_shmget(k, task, key, nbytes):
    seg = k.shm_segments.setdefault(
        int(key), {"size": int(nbytes), "id": 0x5000 + len(k.shm_segments), "attached": set()}
    )
    return SyscallResult(seg["id"], 500)


def _sys_shmat(k, task, key):
    seg = k.shm_segments.get(int(key))
    if seg is None:
        raise SyscallError(f"shmat: no segment with key {key}")
    name = f"shm:{key}"
    if not task.mm.has_vma(name):
        task.mm.map(
            name, seg["size"], prot=Prot.RW, kind=VMAKind.SHM,
            shared=True, shm_key=int(key),
        )
    seg["attached"].add(task.pid)
    return SyscallResult(task.mm.vma(name).start, 700)


def _sys_socket_connect(k, task, remote_addr, local_port):
    if int(local_port) in k.ports_in_use:
        raise SyscallError(f"port {local_port} in use")
    k.ports_in_use.add(int(local_port))
    sockpath = f"socket:[{task.pid}:{local_port}]"
    sock = SocketFile(sockpath, int(local_port), str(remote_addr))
    fd = task.alloc_fd()
    task.install_fd(FileDescriptor(fd=fd, file=sock))
    sock.refcount += 1
    return SyscallResult(fd, 900)


def _sys_nanosleep(k, task, ns):
    # Modelled via the Sleep op; syscall form kept for API parity.
    raise SyscallError("use the Sleep op instead of nanosleep")


def _sys_uname(k, task):
    return SyscallResult({"node_id": k.node_id, "sysname": "simlinux"}, 100)


#: The default system calls; each :class:`SyscallTable` starts with its
#: own copy, so a module that registers a call changes one kernel only.
_DEFAULT_HANDLERS: Dict[str, Handler] = {
    "getpid": _sys_getpid,
    "sbrk": _sys_sbrk,
    "mmap": _sys_mmap,
    "munmap": _sys_munmap,
    "mprotect": _sys_mprotect,
    "open": _sys_open,
    "close": _sys_close,
    "dup": _sys_dup,
    "lseek": _sys_lseek,
    "read": _sys_read,
    "write": _sys_write,
    "unlink": _sys_unlink,
    "ioctl": _sys_ioctl,
    "kill": _sys_kill,
    "sigaction": _sys_sigaction,
    "sigpending": _sys_sigpending,
    "sigprocmask": _sys_sigprocmask,
    "setitimer": _sys_setitimer,
    "fork": _sys_fork,
    "sched_setscheduler": _sys_setsched,
    "shmget": _sys_shmget,
    "shmat": _sys_shmat,
    "socket_connect": _sys_socket_connect,
    "nanosleep": _sys_nanosleep,
    "uname": _sys_uname,
}
