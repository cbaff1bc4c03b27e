"""A small virtual file system: regular files, /dev nodes, /proc entries.

The surveyed kernel-thread mechanisms expose three user-level interfaces
(Section 4.1 of the paper), all of which exist here:

1. a **device file** in ``/dev`` driven with ``read``/``write``/``ioctl``
   (CRAK, BLCR, ZAP);
2. a **/proc pseudo-file** driven with ``read``/``write`` (CHPOX
   registration, PsncR/C);
3. a **new system call** (VMADump, EPCKPT, Checkpoint) -- that path lives
   in :mod:`repro.simkernel.syscalls`.

Regular files also carry the attributes that make user-level
checkpointing expensive to reconstruct (per-descriptor offsets fetched
with ``lseek``) and the failure modes UCLiK fixes (deleted-but-open
files whose contents must be rescued into the checkpoint).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import SyscallError

__all__ = ["File", "RegularFile", "DeviceNode", "ProcEntry", "SocketFile", "VFS"]


class File:
    """Base class for everything reachable by ``open``."""

    kind = "file"

    def __init__(self, path: str) -> None:
        self.path = path
        #: Unlinked while still open (UCLiK's deleted-file case).
        self.deleted = False

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` from ``offset``."""
        raise SyscallError(f"{self.path}: not readable")

    def write(self, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``; returns bytes written."""
        raise SyscallError(f"{self.path}: not writable")

    def ioctl(self, task: Any, cmd: str, arg: Any) -> Any:
        """Device control; only device nodes implement it."""
        raise SyscallError(f"{self.path}: ioctl on non-device")

    @property
    def size(self) -> int:
        """Current length in bytes (0 for pseudo files)."""
        return 0


class RegularFile(File):
    """An ordinary file with real contents (bytearray-backed)."""

    kind = "regular"

    def __init__(self, path: str, content: bytes = b"") -> None:
        super().__init__(path)
        self.content = bytearray(content)

    def read(self, offset: int, nbytes: int) -> bytes:
        return bytes(self.content[offset : offset + nbytes])

    def write(self, offset: int, data: bytes) -> int:
        end = offset + len(data)
        if end > len(self.content):
            self.content.extend(b"\x00" * (end - len(self.content)))
        self.content[offset:end] = data
        return len(data)

    @property
    def size(self) -> int:
        return len(self.content)


class DeviceNode(File):
    """A character device in ``/dev`` whose behaviour is its ``ioctl``
    callback; reads return nothing and writes are refused.

    Checkpoint modules (CRAK, BLCR) create one of these and accept the pid
    of the process to checkpoint as the ``ioctl`` argument -- exactly the
    interface the paper describes.
    """

    kind = "device"

    def __init__(
        self, path: str, on_ioctl: Optional[Callable[[Any, str, Any], Any]] = None
    ) -> None:
        super().__init__(path)
        self._on_ioctl = on_ioctl

    def ioctl(self, task: Any, cmd: str, arg: Any) -> Any:
        if self._on_ioctl is None:
            raise SyscallError(f"{self.path}: device has no ioctl handler")
        return self._on_ioctl(task, cmd, arg)

    def read(self, offset: int, nbytes: int) -> bytes:
        return b""


class ProcEntry(File):
    """A ``/proc`` pseudo-file backed by read/write callbacks.

    CHPOX registers target pids by writing them here; PsncR/C exposes its
    control entry the same way.
    """

    kind = "proc"

    def __init__(
        self,
        path: str,
        on_read: Optional[Callable[[], bytes]] = None,
        on_write: Optional[Callable[[bytes], int]] = None,
    ) -> None:
        super().__init__(path)
        self._on_read = on_read
        self._on_write = on_write

    def read(self, offset: int, nbytes: int) -> bytes:
        if self._on_read is None:
            return b""
        data = self._on_read()
        return data[offset : offset + nbytes]

    def write(self, offset: int, data: bytes) -> int:
        if self._on_write is None:
            raise SyscallError(f"{self.path}: proc entry not writable")
        return self._on_write(data)


class SocketFile(File):
    """A connected socket endpoint.

    Sockets are the canonical *kernel-persistent state* of Section 3: they
    exist in kernel tables, not in the process image, so a user-level
    checkpointer cannot recreate them on restart; ZAP-style virtualization
    records the pod-relative endpoint so the restore path can rebuild it.
    """

    kind = "socket"

    def __init__(self, path: str, local_port: int, remote_addr: str) -> None:
        super().__init__(path)
        self.local_port = local_port
        self.remote_addr = remote_addr

    def read(self, offset: int, nbytes: int) -> bytes:
        return b""  # payloads are out of scope; identity is what matters

    def write(self, offset: int, data: bytes) -> int:
        return len(data)


class VFS:
    """Path namespace plus registration helpers for modules."""

    def __init__(self) -> None:
        self._files: Dict[str, File] = {}

    def create(self, path: str, content: bytes = b"") -> RegularFile:
        """Create (or truncate) a regular file."""
        f = RegularFile(path, content)
        self._files[path] = f
        return f

    def register(self, file: File) -> File:
        """Install an externally built file object (device, proc entry)."""
        self._files[file.path] = file
        return file

    def remove(self, path: str) -> None:
        """Remove a namespace entry (module unload)."""
        self._files.pop(path, None)

    def lookup(self, path: str) -> File:
        """Resolve a path or raise."""
        try:
            return self._files[path]
        except KeyError:
            raise SyscallError(f"no such file: {path}") from None

    def exists(self, path: str) -> bool:
        """Whether the path resolves."""
        return path in self._files

    def unlink(self, path: str) -> File:
        """Remove the name; the object stays alive while descriptors hold it."""
        f = self.lookup(path)
        f.deleted = True
        del self._files[path]
        return f

    def paths(self) -> list:
        """Sorted list of all paths (diagnostics)."""
        return sorted(self._files)
