"""The concurrent "Checkpoint" mechanism (Carothers & Szymanski [5]).

"Checkpoint/restart operations are provided through system calls
implemented in the kernel static part.  The innovation of this approach
is that the checkpoint operations are performed by a thread running
concurrently with the application.  The *fork* mechanism is used to
guarantee the consistency of data between the thread and the
application process.  However, this approach is not transparent -- it
requires direct invocation of system calls."

The application's stall is just the fork (plus COW faults it takes on
pages it rewrites while the saver runs), instead of being frozen for the
whole capture -- experiment E9 measures that trade.
"""

from __future__ import annotations

from ...core.checkpointer import CheckpointRequest
from ...core.features import Features, Initiation
from ...core.registry import register
from ...core.taxonomy import Agent, Context, TaxonomyPosition
from ...simkernel import Kernel, Task
from ...simkernel.modules import install_static
from ...simkernel.syscalls import SyscallResult
from ...storage.backends import StorageKind
from .base import SystemLevelCheckpointer

__all__ = ["CheckpointMT"]


@register
class CheckpointMT(SystemLevelCheckpointer):
    """Fork/COW concurrent checkpointing via a new system call."""

    mech_name = "Checkpoint"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_SYSTEM_CALL,
        specifics=("static kernel", "fork/COW consistency", "concurrent saver thread"),
    )
    features = Features(
        incremental=False,
        transparent=False,  # direct syscall invocation required
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        multithreaded=True,
    )
    description = "Checkpointing of multithreaded programs (Dr. Dobbs 2002)"

    syscall_name = "checkpoint_mt"

    def install(self) -> None:
        def setup(kernel: Kernel) -> None:
            kernel.syscalls.register(self.syscall_name, self._sys_checkpoint)

        install_static(self.kernel, f"{self.mech_name}:{id(self)}", setup)

    def _sys_checkpoint(self, kernel: Kernel, task: Task) -> SyscallResult:
        """The new syscall: fork, then save the frozen child concurrently.

        The syscall's cost to the caller is the fork (task structures +
        COW page-table sweep); the page copying happens in a kernel
        thread against the child's frozen image while the caller runs.
        """
        req = self.request_checkpoint(task)
        return SyscallResult(req.key, req.target_stall_ns)

    def checkpoint_op(self):
        """Op a cooperating application yields to checkpoint itself."""
        from ...simkernel import ops

        return ops.Syscall(name=self.syscall_name)

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """Model the application invoking the syscall now (see VMADump)."""
        req = self._new_request(task, incremental)
        child, fork_cost = self.kernel.do_fork(task, stopped=True)
        # Charge the fork to the target as a stall (it executed the call).
        req.target_stall_ns = fork_cost
        self.kthread_capture(task, req, capture_mm_of=child)
        return req
