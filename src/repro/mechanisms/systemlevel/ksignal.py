"""Kernel-mode-signal checkpointers: CHPOX and Software Suspend.

Both add a new signal whose *default action runs inside the kernel*:
no user stack frame, no relinking, full transparency -- but delivery is
still deferred to the target's next kernel->user transition, so the
initiation latency depends on what the system is doing (E7).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ...core.capture import copy_pages, restore_image, snapshot_metadata
from ...core.checkpointer import CheckpointRequest, RequestState
from ...core.features import Features, Initiation
from ...core.image import CheckpointImage
from ...core.registry import register
from ...core.taxonomy import Agent, Context, TaxonomyPosition
from ...errors import CheckpointError, RestartError, StorageError
from ...simkernel import Kernel, Task, TaskState, ops
from ...simkernel.modules import KernelModule, install_static
from ...simkernel.signals import Sig
from ...simkernel.vfs import ProcEntry
from ...storage.backends import StorageKind
from .base import SystemLevelCheckpointer

__all__ = ["CHPOX", "SoftwareSuspend"]


class _ChpoxModule(KernelModule):
    """The loadable module CHPOX ships as."""

    name = "chpox"

    def __init__(self, owner: "CHPOX") -> None:
        super().__init__()
        self.owner = owner

    def on_load(self) -> None:
        self.add_proc_entry(
            ProcEntry(
                "/proc/chpox",
                on_read=lambda: (
                    ",".join(str(p) for p in sorted(self.owner.registered)) + "\n"
                ).encode(),
                on_write=self.owner._proc_write,
            )
        )
        self.add_kernel_signal(Sig.SIGSYS, self.owner._signal_action, label="chpox")


@register
class CHPOX(SystemLevelCheckpointer):
    """CHPOX: /proc registration + the SIGSYS kernel signal, as a module.

    "It creates a new entry in the /proc pseudo file system and also a
    new kernel signal (SIGSYS).  Prior to checkpoint applications must
    be registered sending the pid to the new created entry in /proc.
    Then, checkpoints are initiated by sending the new signal to the
    process."  Storage is node-local only.
    """

    mech_name = "CHPOX"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_SIGNAL,
        specifics=("kernel module", "/proc registration", "SIGSYS", "MOSIX-tested"),
    )
    features = Features(
        incremental=False,
        transparent=True,
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.USER,
        kernel_module=True,
        requires_registration=True,
    )
    description = "Checkpointing and restart of processes for Linux (Kiev)"

    def install(self) -> None:
        self.registered: set = set()
        self._module = _ChpoxModule(self).load(self.kernel)
        self._pending: Dict[int, CheckpointRequest] = {}

    def uninstall(self) -> None:
        self._module.unload()
        self.installed = False

    def _proc_write(self, data: bytes) -> int:
        """Register a pid by writing it to /proc/chpox."""
        pid = int(data.decode().strip())
        self.kernel.task_by_pid(pid)  # validate
        self.registered.add(pid)
        return len(data)

    def prepare_target(self, task: Task) -> None:
        """Registration step: echo the pid into /proc/chpox."""
        self._proc_write(str(task.pid).encode())

    def _signal_action(self, task: Task) -> None:
        if task.pid not in self.registered:
            return  # unregistered processes ignore the signal
        req = self._pending.pop(task.pid, None)
        if req is None:
            req = self._new_request(task)
        self.capture_frame(task, req)

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """User initiation: ``kill -SIGSYS <pid>``."""
        if task.pid not in self.registered:
            raise CheckpointError(
                f"pid {task.pid} not registered with CHPOX (/proc/chpox)"
            )
        req = self._new_request(task, incremental)
        self._pending[task.pid] = req
        self.kernel.post_signal(task.pid, Sig.SIGSYS)
        return req


@register
class SoftwareSuspend(SystemLevelCheckpointer):
    """Software Suspend: whole-machine hibernation via a freeze signal.

    "A new default kernel signal is implemented to initiate[] the
    hibernation which is delivered to every process in the system to
    freeze their execution.  When all processes are stopped the image of
    the RAM is saved on the swap partition in the local disk.  After
    that it powers down the system."  Standby mode keeps the image in
    memory instead.
    """

    mech_name = "Software Suspend"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_SIGNAL,
        specifics=("static kernel", "freeze all processes", "RAM image to swap"),
    )
    features = Features(
        incremental=False,
        transparent=True,
        stable_storage=(StorageKind.LOCAL, StorageKind.MEMORY),
        initiation=Initiation.USER,
        kernel_module=False,
    )
    description = "Hibernation in the official kernel (swsusp)"

    SYSTEM_KEY = "swsusp/system-image"

    def install(self) -> None:
        def setup(kernel: Kernel) -> None:
            # SIGFREEZE's default action already stops processes; the
            # static patch simply makes the signal exist + the suspend
            # orchestration below.
            pass

        install_static(self.kernel, f"{self.mech_name}:{id(self)}", setup)

    # ------------------------------------------------------------------
    def suspend(self, power_down: bool = True) -> CheckpointRequest:
        """Freeze every process, save the RAM image, power down.

        Returns a request tracking the whole-system image.
        """
        kernel = self.kernel
        victims = [
            t
            for t in kernel.tasks.values()
            if not t.is_kthread and t.alive()
        ]
        if not victims:
            raise CheckpointError("nothing to suspend")
        rep = victims[0]
        req = self._new_request(rep)
        for t in victims:
            kernel.post_signal(t.pid, Sig.SIGFREEZE)

        def suspender(kt: Task, step: int) -> Generator:
            req.state = RequestState.RUNNING
            req.started_ns = kernel.engine.now_ns
            # Wait until every process is frozen.
            while any(v.alive() and v.state != TaskState.STOPPED for v in victims):
                yield ops.Sleep(ns=200_000)
            images: List[CheckpointImage] = []
            total = 0
            for v in victims:
                if not v.alive():
                    continue
                sub = self._new_image(req, v)
                sub.key = f"{req.key}/pid{v.pid}"
                snapshot_metadata(kernel, v, sub)
                yield ops.Compute(ns=2_000)
                # The RAM image is everything -- no filtering.
                pages = [
                    (vma.name, int(p)) for vma in v.mm.vmas for p in vma.present_pages()
                ]
                yield from copy_pages(kernel, v, sub, pages)
                total += sub.size_bytes
                images.append(sub)
            system_image = {"images": images, "victim_pids": [v.pid for v in victims]}
            delay = self.storage.store(
                self.SYSTEM_KEY, system_image, total, kernel.engine.now_ns
            )
            yield ops.Compute(ns=delay)
            # Represent the system image by its first process image so
            # the generic bookkeeping has something to point at.
            self._complete(req, images[0], rep)
            if power_down:
                kernel.halt()

        kernel.spawn_kthread("swsusp", suspender, rt_prio=80)
        return req

    def resume_system(self, new_kernel: Kernel) -> List:
        """Boot-time restore: bring every frozen process back."""
        blob, delay = self.storage.load(self.SYSTEM_KEY, new_kernel.engine.now_ns)
        results = []
        for image in blob["images"]:
            results.append(
                restore_image(
                    new_kernel,
                    image,
                    io_delay_ns=delay // max(1, len(blob["images"])),
                    strict_kernel_state=False,
                )
            )
        return results

    def image_chain(self, key: str, target_kernel: Optional[Kernel] = None,
                    prefetch: bool = False):
        """Find ``key``'s process image inside the stored system image.

        A suspend stores one blob under :attr:`SYSTEM_KEY`, not one per
        request.  ``key`` names one ``<request>/pid<N>`` process image, or
        a request, which restores the process its request represents
        (its first image).
        """
        kernel = target_kernel or self.kernel
        blob, delay = self.storage.load(self.SYSTEM_KEY, kernel.engine.now_ns)
        image = self._find_image(blob, key)
        if image is None:
            raise RestartError(f"{key!r} is not in the stored system image")
        return [image], delay

    def chain_available(self, key: str) -> bool:
        """Whether the stored system image holds ``key`` (the keys
        :meth:`image_chain` accepts); an I/O-free peek like the base
        probe's."""
        if not self.storage.exists(self.SYSTEM_KEY):
            return False
        try:
            blob = self.storage.peek(self.SYSTEM_KEY)
        except StorageError:
            return False
        return self._find_image(blob, key) is not None

    @staticmethod
    def _find_image(blob, key: str) -> Optional[CheckpointImage]:
        """The process image in a system image that ``key`` names: a
        ``<request>/pid<N>`` key, or a request's key (its first image)."""
        for image in blob["images"]:
            if image.key in (key, f"{key}/pid{image.pid}"):
                return image
        return None

    def unfreeze(self) -> int:
        """Thaw every stopped process (suspend cancelled / standby wake)."""
        n = 0
        for t in list(self.kernel.tasks.values()):
            if t.state == TaskState.STOPPED and not t.is_kthread:
                self.kernel.resume_task(t)
                n += 1
        return n

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """Suspend is system-wide; a per-task request suspends everything
        (without powering down, so the caller can keep simulating)."""
        if incremental:
            raise CheckpointError("Software Suspend has no incremental mode")
        return self.suspend(power_down=False)
