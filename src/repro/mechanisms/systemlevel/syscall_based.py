"""System-call-based checkpointers: VMADump, BProc, EPCKPT.

These are "implemented in the static part of the kernel": new system
calls invoke the checkpoint, so the application (or a launcher tool)
must cooperate -- the transparency/flexibility weakness the paper pins
on this corner of the taxonomy.
"""

from __future__ import annotations

from typing import Generator

from ...core.checkpointer import CheckpointRequest
from ...core.features import Features, Initiation
from ...core.registry import register
from ...core.taxonomy import Agent, Context, TaxonomyPosition
from ...errors import CheckpointError
from ...simkernel import Kernel, Mode, Task, ops
from ...simkernel.modules import install_static
from ...simkernel.signals import Sig
from ...simkernel.syscalls import SyscallResult, SyscallTable
from ...storage.backends import StorageKind
from .base import SystemLevelCheckpointer

__all__ = ["VMADump", "BProc", "EPCKPT"]


@register
class VMADump(SystemLevelCheckpointer):
    """VMADump: self-checkpoint via a new system call.

    "Applications directly invoke these system calls to checkpoint
    themselves by writing the process state to a file descriptor ...
    the relevant data of the process can be directly accessed through
    the *current* kernel macro because VMADump is called by the process
    to be checkpointed."
    """

    mech_name = "VMADump"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_SYSTEM_CALL,
        specifics=("static kernel", "self-invoked via current", "writes to fd"),
    )
    features = Features(
        incremental=False,
        transparent=False,  # the application must call the syscall
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.AUTOMATIC,  # the app checkpoints itself
        kernel_module=False,
    )
    description = "Virtual Memory Area Dumper (BProc project)"

    #: Name of the system call this mechanism adds to the kernel.
    syscall_name = "vmadump_dump"

    def install(self) -> None:
        def setup(kernel: Kernel) -> None:
            kernel.syscalls.register(self.syscall_name, self._sys_dump)

        install_static(self.kernel, f"{self.mech_name}:{id(self)}", setup)

    def _sys_dump(self, kernel: Kernel, task: Task) -> SyscallResult:
        """The new syscall: checkpoint the *calling* process (current)."""
        req = self._new_request(task)
        self.capture_frame(task, req)
        return SyscallResult(req.key, 800)

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """Model the application reaching its own checkpoint call *now*.

        There is no external initiation path -- that is exactly the
        flexibility problem; this helper exists so experiments can place
        the call without rewriting each workload.
        """
        req = self._new_request(task, incremental)
        self.capture_frame(task, req)
        return req


@register
class BProc(VMADump):
    """BProc: VMADump plus the Beowulf distributed process space.

    Adds process *migration*: the state is streamed to a peer node and
    the process recreated there; nothing is kept on stable storage
    (Table 1: storage "none").
    """

    mech_name = "BPROC"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_SYSTEM_CALL,
        specifics=("static kernel", "single system image", "migration stream"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.NONE,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        migration=True,
    )
    description = "Beowulf distributed process space (bproc_move)"

    syscall_name = "bproc_move"

    def migrate(self, task: Task, dest_kernel: Kernel) -> CheckpointRequest:
        """Move ``task`` to ``dest_kernel`` (the process calls bproc_move).

        The capture runs in the caller's context, streams through the
        migration pipe, is restored on the destination, and the source
        process exits.
        """
        req = self._new_request(task)
        kernel = self.kernel

        def frame() -> Generator:
            from ...core.capture import copy_pages, snapshot_metadata, store_image
            from ...core.checkpointer import RequestState

            req.state = RequestState.RUNNING
            req.started_ns = kernel.engine.now_ns
            image = self._new_image(req, task)
            snapshot_metadata(kernel, task, image)
            yield ops.Compute(ns=2_000)
            pages = self._page_set(task, image.parent_key)
            yield from copy_pages(kernel, task, image, pages)
            yield from store_image(kernel, self.storage, image)
            self._complete(req, image, task)
            # Recreate on the destination, then vanish locally.
            self.restart(req.key, target_kernel=dest_kernel, strict_kernel_state=True)
            yield ops.Exit(code=0)

        task.push_frame(frame(), Mode.KERNEL)
        return req


@register
class EPCKPT(SystemLevelCheckpointer):
    """EPCKPT: syscalls + a dedicated kernel signal + a launcher tool.

    "EPCKPT provides more transparency than VMADump because the process
    to be checkpointed is identified by the process ID ... A new default
    kernel signal is created to invoke the checkpoint operation.
    Application must be launch[ed] via one of [its] tool[s] ... thus
    incurring undesirable overhead."
    """

    mech_name = "EPCKPT"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_SYSTEM_CALL,
        specifics=("static kernel", "by pid", "new kernel signal", "launcher tool"),
    )
    features = Features(
        incremental=False,
        transparent=True,  # no source change/recompile/relink
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.USER,
        kernel_module=False,
        requires_registration=True,  # must be started under the launcher
    )
    description = "Eduardo Pinheiro's checkpoint (Rutgers)"

    #: Per-syscall tracing overhead imposed by the launcher's run-time
    #: bookkeeping ("trace some information about the application's
    #: execution during run time").
    TRACE_OVERHEAD_NS = 450
    _TRACED_CALLS = ["open", "close", "dup", "mmap", "munmap", "fork", "sbrk"]

    def install(self) -> None:
        def setup(kernel: Kernel) -> None:
            kernel.syscalls.register("epckpt_checkpoint", self._sys_checkpoint)
            kernel.add_kernel_signal(Sig.SIGCKPT, self._sigckpt_action, label="epckpt")

        install_static(self.kernel, f"{self.mech_name}:{id(self)}", setup)

    def prepare_target(self, task: Task) -> None:
        """Launching under the EPCKPT tool arms run-time tracing."""
        task.annotations["epckpt_traced"] = True

        def trace_hook(kernel, t, name, args) -> int:
            return self.TRACE_OVERHEAD_NS

        SyscallTable.interpose(task, self._TRACED_CALLS, trace_hook)

    def _require_traced(self, task: Task) -> None:
        if not task.annotations.get("epckpt_traced"):
            raise CheckpointError(
                "EPCKPT can only checkpoint processes launched via its tool"
            )

    def _sys_checkpoint(self, kernel: Kernel, task: Task, pid: int) -> SyscallResult:
        """Tool-invoked syscall: checkpoint the process named by pid."""
        target = kernel.task_by_pid(int(pid))
        self._require_traced(target)
        req = self._new_request(target)
        self.capture_frame(target, req)
        return SyscallResult(req.key, 900)

    def _sigckpt_action(self, task: Task) -> None:
        """Kernel-mode default action of the new checkpoint signal."""
        if not task.annotations.get("epckpt_traced"):
            return  # not initialized: signal is a no-op for this process
        req = self._new_request(task)
        self.capture_frame(task, req)

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """User initiation: the command-line tool sends the new signal."""
        self._require_traced(task)
        req = self._new_request(task, incremental)
        # The signal action will reuse this request when delivered, so
        # initiation latency spans post -> delivery (the E7 metric).
        self._pending_external = req
        # The tool posts the kernel signal; capture starts when the
        # signal is delivered at the target's next kernel->user return.
        self.kernel.post_signal(task.pid, Sig.SIGCKPT)
        return req

    def _new_request(self, task: Task, incremental: bool = False):
        # Reuse an externally created request (signal-delivery path) so
        # initiation latency spans post -> delivery.
        pending = getattr(self, "_pending_external", None)
        if pending is not None and pending.target_pid == task.pid:
            self._pending_external = None
            return pending
        return super()._new_request(task, incremental)
