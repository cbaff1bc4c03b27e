"""Loadable kernel modules vs static-kernel extensions.

Table 1's last column records whether each surveyed package ships as a
kernel module.  The paper: "often it is possible to write most of the
code as kernel module.  This will provide portability and modularity and
will help during the development and debugging phases because a module
can be loaded and unloaded dynamically."

:class:`KernelModule` subclasses register system calls, device nodes,
/proc entries, and kernel signals on load, and must remove all of them on
unload.  Static extensions (VMADump, EPCKPT, Software Suspend,
Checkpoint) use :func:`install_static` instead: same registrations, but
irreversible -- the kernel would need to be rebuilt.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from ..errors import RegistryError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

__all__ = ["KernelModule", "install_static"]


class KernelModule:
    """Base class for loadable kernel modules.

    Subclasses override :meth:`on_load`; registrations made through the
    ``add_*`` helpers are reverted automatically by :meth:`unload`.
    """

    #: Module name as it would appear in ``lsmod``.
    name: str = "module"

    def __init__(self) -> None:
        self.kernel: Optional["Kernel"] = None
        self._undo: List[Callable[[], None]] = []
        self.loaded = False

    # -- registration helpers (auto-undone on unload) --------------------
    def add_device(self, node) -> None:
        """Create a /dev node; removed on unload."""
        k = self._require_kernel()
        k.vfs.register(node)
        self._undo.append(lambda: k.vfs.remove(node.path))

    def add_proc_entry(self, entry) -> None:
        """Create a /proc entry; removed on unload."""
        k = self._require_kernel()
        k.vfs.register(entry)
        self._undo.append(lambda: k.vfs.remove(entry.path))

    def add_kernel_signal(self, sig, action, label: str = "") -> None:
        """Add a new kernel signal with a kernel-mode default action."""
        k = self._require_kernel()
        k.add_kernel_signal(sig, action, label=label)
        self._undo.append(lambda: k.remove_kernel_signal(sig))

    def _require_kernel(self) -> "Kernel":
        if self.kernel is None:
            raise RegistryError(f"module {self.name!r} is not loaded")
        return self.kernel

    # -- lifecycle --------------------------------------------------------
    def load(self, kernel: "Kernel") -> "KernelModule":
        """insmod: attach to ``kernel`` and perform registrations."""
        if self.loaded:
            raise RegistryError(f"module {self.name!r} already loaded")
        if self.name in kernel.modules:
            raise RegistryError(f"a module named {self.name!r} is already loaded")
        self.kernel = kernel
        self.on_load()
        kernel.modules[self.name] = self
        self.loaded = True
        return self

    def unload(self) -> None:
        """rmmod: revert every registration."""
        if not self.loaded:
            raise RegistryError(f"module {self.name!r} is not loaded")
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        self.kernel.modules.pop(self.name, None)
        self.loaded = False
        self.kernel = None

    def on_load(self) -> None:
        """Subclass hook: perform registrations here."""
        raise NotImplementedError


def install_static(kernel: "Kernel", name: str, setup: Callable[["Kernel"], None]) -> None:
    """Compile an extension into the static kernel (irreversible).

    Used by the VMADump/EPCKPT/Software-Suspend/Checkpoint models, which
    the paper notes are "implemented in the static part of the kernel" --
    hence their Table 1 "kernel module: no".
    """
    if name in kernel.builtin_extensions:
        raise RegistryError(f"static extension {name!r} already installed")
    setup(kernel)
    kernel.builtin_extensions.append(name)
