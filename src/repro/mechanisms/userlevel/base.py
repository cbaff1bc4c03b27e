"""Shared machinery for user-level checkpointers.

User-level mechanisms run the checkpoint *inside the target, in user
mode*, typically from a signal handler.  Every kernel-held datum costs a
system call (Section 3 / experiment E3); pages are buffered and written
through ``write()`` (more boundary crossings); incremental tracking uses
``mprotect`` + SIGSEGV (two orders costlier per first-touch than the
kernel's own fault handler); and kernel-persistent resources (sockets,
SysV shm) simply cannot be recreated on restart.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ...core.capture import (
    DEFAULT_SKIP_KINDS,
    RestoreResult,
    copy_pages,
    select_pages,
    store_image,
    user_extract_metadata,
)
from ...core.checkpointer import Checkpointer, CheckpointRequest, RequestState
from ...errors import CheckpointError, StorageError
from ...simkernel import Task, ops
from ...simkernel.signals import HandlerKind, Sig, SignalHandler
from .. import incremental as incr

__all__ = ["UserLevelCheckpointer"]


class UserLevelCheckpointer(Checkpointer):
    """Base class for user-level mechanisms.

    Subclasses choose the trigger signal, initiation style, and whether
    the handler uses non-reentrant libc functions (the hazard the paper
    flags).  ``prepare_target`` wires the handler -- the relink/modify
    step that costs these packages their transparency.
    """

    #: Signal whose user handler runs the checkpoint.
    trigger_signal: Sig = Sig.SIGALRM
    #: The checkpoint code mallocs buffers inside the handler (true for
    #: real libraries that snapshot via stdio) -- enables hazard counting.
    handler_uses_malloc: bool = True
    skip_kinds = DEFAULT_SKIP_KINDS

    # ------------------------------------------------------------------
    def prepare_target(self, task: Task) -> None:
        """Link/initialize the library inside the target.

        Registers the trigger-signal handler; incremental-capable
        libraries also install the SIGSEGV tracking handler.
        """
        task.signals.register(
            self.trigger_signal,
            SignalHandler(
                kind=HandlerKind.USER,
                program_factory=self._handler_factory,
                uses_non_reentrant=self.handler_uses_malloc,
                label=f"{self.mech_name}-ckpt",
            ),
        )
        task.annotations[f"{self.mech_name}_linked"] = True
        if self.features.incremental:
            incr.arm_user_tracking(self.kernel, task)

    def _require_linked(self, task: Task) -> None:
        if not task.annotations.get(f"{self.mech_name}_linked"):
            raise CheckpointError(
                f"pid {task.pid} is not linked against {self.mech_name}"
            )

    def enable_timer(self, task: Task, interval_ns: int) -> None:
        """Automatic initiation: periodic trigger signal via setitimer.

        Installed from within the library's init code, so the cost is
        the one syscall (charged when the program next runs -- here we
        set it directly, the one-off cost is negligible)."""
        self._require_linked(task)
        self.kernel._itimers[task.pid] = {
            "interval_ns": int(interval_ns),
            "sig": self.trigger_signal,
            "next_ns": self.kernel.engine.now_ns + int(interval_ns),
        }

    # ------------------------------------------------------------------
    def _handler_factory(self, task: Task) -> Generator:
        """Build the user-mode checkpoint handler program."""
        req = self._pending_for(task) or self._new_request(
            task, incremental=self.features.incremental
        )

        def handler():
            req.state = RequestState.RUNNING
            req.started_ns = self.kernel.engine.now_ns
            self.kernel.engine.metrics.inc("capture.handler_captures")
            image = self._new_image(req, task)
            # Kernel-state extraction: one syscall per datum (E3).
            yield from user_extract_metadata(self.kernel, task, image)
            # Handler-local buffering work (the malloc the paper warns
            # about happens here).
            yield ops.Compute(ns=5_000, non_reentrant=self.handler_uses_malloc)
            # A full image (no parent) saves every page; a delta saves only
            # the shadow-tracked dirty ones.
            if image.parent_key is not None:
                pages = self._shadow_pages(task)
            else:
                pages = select_pages(
                    self.kernel, task, incremental=False, skip_kinds=self.skip_kinds
                )
            yield from copy_pages(self.kernel, task, image, pages, user_mode=True)
            store_start_ns = self.kernel.engine.now_ns
            try:
                yield from store_image(self.kernel, self.storage, image)
            except StorageError as exc:
                # Lost backend / write quorum unreachable: the
                # checkpoint fails, the application continues.
                req.target_stall_ns = self.kernel.engine.now_ns - req.started_ns
                self._fail(req, f"stable-storage write failed: {exc}")
                return
            req.storage_delay_ns = self.kernel.engine.now_ns - store_start_ns
            if self.features.incremental:
                # Re-arm: a full mprotect sweep, one syscall per VMA.
                yield from incr.user_arm_ops(task)
            req.target_stall_ns = self.kernel.engine.now_ns - req.started_ns
            self._complete(req, image, task)

        return handler()

    def restart(self, key: str, *args, **kwargs) -> RestoreResult:
        """Restart, then re-arm dirty tracking as the relinked library's
        restart code does: the restored task starts a fresh shadow set,
        so its first delta holds exactly the pages it writes."""
        result = super().restart(key, *args, **kwargs)
        if self.features.incremental:
            task = result.task
            task.annotations["shadow_dirty"] = set()
            incr.arm_user_tracking(self.kernel, task)
            task.mm.protect_for_tracking()
        return result

    def _shadow_pages(self, task: Task) -> List[Tuple[str, int]]:
        """Pages recorded by the user-level SIGSEGV tracking handler."""
        shadow = task.annotations.get("shadow_dirty", set())
        return sorted(shadow)

    # -- request plumbing --------------------------------------------------
    def _pending_for(self, task: Task) -> Optional[CheckpointRequest]:
        pending = getattr(self, "_pending_by_pid", None)
        if pending:
            return pending.pop(task.pid, None)
        return None

    def _mark_pending(self, req: CheckpointRequest) -> None:
        """Remember an externally created request until its signal lands.

        Keyed by pid: several ranks may have checkpoints in flight at
        once (coordinated parallel jobs), each delivered asynchronously.
        """
        if not hasattr(self, "_pending_by_pid"):
            self._pending_by_pid = {}
        self._pending_by_pid[req.target_pid] = req

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        """Initiate by sending the trigger signal (kill path)."""
        self._require_linked(task)
        req = self._new_request(
            task, incremental=incremental or self.features.incremental
        )
        self._mark_pending(req)
        self.kernel.post_signal(task.pid, self.trigger_signal)
        return req
