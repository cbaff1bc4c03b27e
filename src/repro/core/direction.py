"""The paper's "direction forward", built.

The survey's conclusion argues for a specific point in the taxonomy
no extant package occupied: *system-level*, via a *kernel thread*
(schedulable above everything, interrupt-deferring), packaged as a
*kernel module*, with *incremental* checkpointing ("there is no
implementation of incremental checkpointing for Linux up to now ... we
argue that this feature would be desirable"), *automatic initiation at
system level* ("using internal mechanisms to start the kernel thread",
no batch-software dependence), *remote stable storage* (so checkpoints
survive the node), full transparency, and restart-anywhere resource
handling.  :class:`AutonomicCheckpointer` is exactly that design,
assembled from the same substrate pieces the surveyed mechanisms use --
which is what makes the end-to-end comparison (E18) meaningful.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import CheckpointError
from ..mechanisms.systemlevel.base import SystemLevelCheckpointer
from ..simkernel import Kernel, SchedPolicy, Task
from ..simkernel.modules import KernelModule
from ..simkernel.vfs import DeviceNode, ProcEntry
from ..storage.backends import StorageKind
from .checkpointer import CheckpointRequest
from .features import Features, Initiation
from .registry import register
from .taxonomy import Agent, Context, TaxonomyPosition

__all__ = ["AutonomicCheckpointer"]


class _AutoCkptModule(KernelModule):
    name = "autockpt"

    def __init__(self, owner: "AutonomicCheckpointer") -> None:
        super().__init__()
        self.owner = owner

    def on_load(self) -> None:
        self.add_device(DeviceNode("/dev/autockpt", on_ioctl=self.owner._ioctl))
        self.add_proc_entry(
            ProcEntry(
                "/proc/autockpt",
                on_read=lambda: self.owner._proc_status(),
            )
        )


@register
class AutonomicCheckpointer(SystemLevelCheckpointer):
    """System-level, kernel-thread, incremental, automatic, remote C/R."""

    mech_name = "AutonomicCkpt"
    surveyed = False  # this repository's synthesis, not a surveyed package
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.OS_KERNEL_THREAD,
        specifics=(
            "kernel module",
            "SCHED_CKPT priority class",
            "interrupt deferral",
            "incremental (kernel dirty tracking)",
            "in-kernel timer initiation",
            "remote stable storage",
        ),
    )
    features = Features(
        incremental=True,
        transparent=True,
        stable_storage=(StorageKind.REMOTE, StorageKind.LOCAL),
        initiation=Initiation.AUTOMATIC,
        kernel_module=True,
        multithreaded=True,
        migration=True,
        virtualization=True,
    )
    description = "The survey's advocated design, synthesized"

    restores_pid = True
    virtualizes_resources = True
    rescues_deleted_files = True

    #: The paper's new scheduling class: nothing preempts the capture.
    kthread_policy = SchedPolicy.CKPT
    kthread_rt_prio = 99
    defer_irqs = True
    #: Take a fresh full checkpoint after this many deltas: restart must
    #: walk the whole base+delta chain, so unbounded chains trade a tiny
    #: capture saving for ever-slower recovery.
    rebase_every = 6

    def install(self) -> None:
        self._module = _AutoCkptModule(self).load(self.kernel)
        self._timers: Dict[int, object] = {}
        self._controller = None
        #: Automatic in-kernel retunes driven by the attached controller.
        self.retuned = 0

    def uninstall(self) -> None:
        self._module.unload()
        self.installed = False

    def attach_controller(self, controller) -> None:
        """Close the autonomic loop *inside the kernel module*.

        Every completed checkpoint feeds the controller (which folds
        both the measured application stall and the observed stable-
        storage commit latency into its Daly model), and the automatic
        timer is retuned to the fresh recommendation -- so when the
        storage tier slows down under contention, the interval visibly
        widens without any user-space management (E19).
        """
        self._controller = controller

    def _complete(self, req, image, task) -> None:
        super()._complete(req, image, task)
        if self._controller is None:
            return
        self._controller.observe_checkpoint(req)
        interval_ns = self._controller.recommended_interval_ns()
        timer = self._timers.get(req.target_pid)
        if timer is not None and timer["interval_ns"] != interval_ns:
            timer["interval_ns"] = interval_ns
            self.retuned += 1

    def _proc_status(self) -> bytes:
        lines = [
            f"checkpoints={len(self.completed_requests())}",
            f"timers={sorted(self._timers)}",
        ]
        return ("\n".join(lines) + "\n").encode()

    def _ioctl(self, requester: Optional[Task], cmd: str, arg) -> object:
        if cmd == "checkpoint":
            pid = arg["pid"] if isinstance(arg, dict) else int(arg)
            return self.request_checkpoint(self.kernel.task_by_pid(pid))
        raise CheckpointError(f"{self.mech_name}: unknown ioctl {cmd!r}")

    # ------------------------------------------------------------------
    def request_checkpoint(
        self, task: Task, incremental: bool = True
    ) -> CheckpointRequest:
        """Checkpoint ``task`` from the dedicated kernel thread.

        A process with no chain tip in this mechanism's storage (its
        first checkpoint) gets a full image; later checkpoints, and the
        first one after a restore, save only kernel-tracked dirty pages
        (tracking is re-armed each time), with a periodic full re-base
        every :attr:`rebase_every` deltas so the restart chain stays
        short.
        """
        chain_len = int(task.annotations.get("autockpt_chain", 0))
        make_delta = (
            incremental
            and self._chain_parent(task) is not None
            and chain_len < self.rebase_every
        )
        req = self._new_request(task, incremental=make_delta)
        task.annotations["autockpt_chain"] = chain_len + 1 if make_delta else 0
        self.kthread_capture(task, req)
        return req

    # ------------------------------------------------------------------
    def enable_automatic(
        self,
        task: Task,
        interval_ns: int,
        on_complete: Optional[Callable[[CheckpointRequest], None]] = None,
    ) -> None:
        """Automatic initiation *inside the kernel*: a timer wakes the
        checkpoint thread directly -- no signals, no user-space manager.

        The interval can be changed later with :meth:`set_interval`
        (the autonomic controller's knob).
        """
        self._timers[task.pid] = {"interval_ns": int(interval_ns)}

        def fire() -> None:
            timer = self._timers.get(task.pid)
            if timer is None or not task.alive():
                self._timers.pop(task.pid, None)
                return
            req = self.request_checkpoint(task)
            if on_complete is not None:
                req.add_done_callback(on_complete)
            self.kernel.engine.after(timer["interval_ns"], fire, label="autockpt")

        self.kernel.engine.after(int(interval_ns), fire, label="autockpt")

    def set_interval(self, task: Task, interval_ns: int) -> None:
        """Adjust the automatic-checkpoint period for ``task``."""
        timer = self._timers.get(task.pid)
        if timer is None:
            raise CheckpointError(f"pid {task.pid} has no automatic timer")
        timer["interval_ns"] = int(interval_ns)

    def disable_automatic(self, task: Task) -> None:
        """Stop automatic checkpoints for ``task``."""
        self._timers.pop(task.pid, None)
