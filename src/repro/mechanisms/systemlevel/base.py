"""Shared machinery for system-level (in-kernel) checkpointers.

Two execution shapes cover all surveyed OS-level mechanisms:

* **In-context capture** (:meth:`SystemLevelCheckpointer.capture_frame`):
  the target itself executes the checkpoint code in kernel mode -- this
  is both the *system call* shape (the application invoked it) and the
  *kernel-mode signal handler* shape (the kernel runs the default action
  in the process context).  Data is automatically consistent ("the
  application is executing the checkpointing code ... so data do not
  change during the checkpoint"), but the work runs at the application's
  scheduling priority and can be preempted or interrupted (E10).

* **Kernel-thread capture** (:meth:`SystemLevelCheckpointer.kthread_capture`):
  a separate kernel thread does the work -- CRAK, ZAP, UCLiK, BLCR (one
  task or a whole thread group), LAM/MPI, PsncR/C, Checkpoint [5] and
  the direction forward all run this one program.  It makes the image
  consistent by stopping the target for the copy, or by reading a
  fork/COW child (the caller's, or its own at ``pipeline_depth`` > 1,
  drained through the writeback pipeline).  It may pay an address-space
  switch + TLB flush to reach the memory (E8), but can run at
  SCHED_FIFO or the paper's dedicated checkpoint priority and can defer
  interrupts.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from ...core.capture import (
    DEFAULT_SKIP_KINDS,
    capture_extents,
    charge_store,
    copy_pages,
    select_pages,
    snapshot_metadata,
    store_image,
)
from ...core.checkpointer import Checkpointer, CheckpointRequest, RequestState
from ...core.image import CheckpointImage
from ...errors import CheckpointError, StorageError
from ...simkernel import Mode, SchedPolicy, Task, TaskState, ops
from .. import incremental as incr

__all__ = ["SystemLevelCheckpointer"]


class SystemLevelCheckpointer(Checkpointer):
    """Base class for OS-level mechanisms."""

    #: VMA kinds excluded from images when ``features.data_filtering``.
    skip_kinds = DEFAULT_SKIP_KINDS

    #: Scheduling class and real-time priority of the capture kernel
    #: thread, and whether it defers interrupts on its CPU.
    kthread_policy = SchedPolicy.FIFO
    kthread_rt_prio = 50
    defer_irqs = False
    #: In-flight window of the asynchronous COW writeback pipeline.
    #: 1 (the default) keeps the surveyed synchronous capture shapes;
    #: > 1 makes :meth:`kthread_capture` fork a single task and drain
    #: the COW child through the pipeline.
    pipeline_depth: int = 1

    # ------------------------------------------------------------------
    def arm_incremental(self, task: Task) -> int:
        """Arm kernel-side dirty tracking for the next interval."""
        if not self.features.incremental:
            raise CheckpointError(
                f"{self.mech_name} does not support incremental checkpointing"
            )
        return incr.arm_system_tracking(self.kernel, task)

    def _page_set(
        self, task: Task, parent_key: Optional[str]
    ) -> List[Tuple[str, int]]:
        """Pages to save: only the dirty ones when the image extends
        ``parent_key``, every resident one for a full image."""
        return select_pages(
            self.kernel,
            task,
            incremental=parent_key is not None,
            skip_kinds=self.skip_kinds,
            data_filtering=self.features.data_filtering,
        )

    # ------------------------------------------------------------------
    def capture_frame(self, task: Task, req: CheckpointRequest) -> None:
        """Push an in-context (kernel-mode) capture frame onto ``task``.

        The frame runs when the task is next scheduled; the application
        makes no progress meanwhile (its ops resume after the frame).
        """
        kernel = self.kernel

        def frame() -> Generator:
            req.state = RequestState.RUNNING
            req.started_ns = kernel.engine.now_ns
            kernel.engine.metrics.inc("capture.frame_captures")
            image = self._new_image(req, task)
            snapshot_metadata(kernel, task, image)
            # Walking the task struct is nearly free in kernel mode.
            yield ops.Compute(ns=2_000)
            pages = self._page_set(task, image.parent_key)
            yield from copy_pages(kernel, task, image, pages)
            store_start_ns = kernel.engine.now_ns
            try:
                yield from store_image(kernel, self.storage, image)
            except StorageError as exc:
                # Stable storage refused the image (lost backend, write
                # quorum unreachable): this checkpoint fails, the
                # application continues.
                req.target_stall_ns = kernel.engine.now_ns - req.started_ns
                self._fail(req, f"stable-storage write failed: {exc}")
                return
            req.storage_delay_ns = kernel.engine.now_ns - store_start_ns
            req.target_stall_ns = kernel.engine.now_ns - req.started_ns
            self._complete(req, image, task)

        task.push_frame(frame(), Mode.KERNEL)

    # ------------------------------------------------------------------
    def kthread_capture(
        self,
        target: Task,
        req: CheckpointRequest,
        threads: Sequence[Task] = (),
        capture_mm_of: Optional[Task] = None,
    ) -> Task:
        """Spawn the kernel thread that captures ``target``.

        The surveyed kernel-thread agents differ only in how the image is
        made consistent:

        * **stop** -- ``target`` (or every task of ``threads``, a thread
          group that includes it) is frozen for the copy and resumed
          before the image is written;
        * **caller's COW child** -- ``capture_mm_of`` is a stopped fork of
          ``target`` made at this call (Checkpoint [5]): memory is read
          from it, metadata from ``target`` at the call, and the child
          is reaped afterwards;
        * **own COW child** -- at :attr:`pipeline_depth` > 1 a single task
          is forked here, so the application stalls only for the fork.

        A COW capture at :attr:`pipeline_depth` > 1 drains its extents
        through a :class:`~repro.stablestore.WritebackPipeline`: each
        extent's memcpy overlaps the quorum write of the previous ones,
        so the only storage waits on the drain's critical path are window
        backpressure and the commit barrier.  Every other capture copies
        the image, then writes it with :func:`store_image`.
        """
        from ...stablestore.pipeline import WritebackPipeline

        kernel = self.kernel
        engine = kernel.engine
        depth = self.pipeline_depth
        group = list(threads) or [target]
        cow = capture_mm_of is not None or (depth > 1 and not threads)
        fork = cow and capture_mm_of is None
        pipelined = cow and depth > 1
        rearm = self.features.incremental

        def snapshot() -> CheckpointImage:
            # The metadata describes ``target`` at the instant its
            # memory is fixed (the freeze, or the COW fork), so the
            # restart cursor matches the pages.
            image = self._new_image(req, target)
            snapshot_metadata(kernel, target, image)
            if threads:
                image.user_state["threads"] = [
                    {
                        "name": t.name,
                        "registers": t.registers.snapshot(),
                        "step": t.main_steps,
                        "thread_index": t.annotations.get("thread_index", i),
                    }
                    for i, t in enumerate(threads)
                    if t.alive()
                ]
            return image

        def attach(kt: Task, source: Task) -> Generator:
            # Borrow the source's page tables (E8: free only if this CPU
            # already holds them), then walk the task structs.
            attach_ns = kernel.kthread_attach_mm(kt, source)
            if attach_ns:
                yield ops.Compute(ns=attach_ns)
            yield ops.Compute(ns=2_000 * len(group))

        # A caller's COW child was forked at this instant; the target
        # runs on while the capture thread waits for a CPU.
        forked_image = snapshot() if capture_mm_of is not None else None

        def drain(image, source: Task, pages) -> Generator:
            pipe = WritebackPipeline(self.storage, engine, req.key, depth=depth)
            try:
                for chunk, copy_ns in capture_extents(kernel, source, image, pages):
                    yield ops.Compute(ns=copy_ns)
                    stall = pipe.ns_until_slot()
                    if stall > 0:
                        yield ops.Sleep(ns=stall)
                    pipe.submit(chunk)
                barrier = pipe.barrier_ns()
                if barrier > 0:
                    yield ops.Sleep(ns=barrier)
                image.time_ns = engine.now_ns
                commit_ns = pipe.commit(image, image.size_bytes)
            except StorageError as exc:
                pipe.abort(str(exc))
                raise
            except GeneratorExit:
                # The capture thread died with its node: give the stream
                # up, releasing what it holds.
                pipe.abort("capture thread died with its node")
                raise
            # Client-visible storage wait: backpressure stalls + the
            # commit barrier + the manifest write -- the part the
            # pipeline could NOT hide behind copying.
            req.storage_delay_ns = pipe.stall_ns + barrier + commit_ns
            yield from charge_store(kernel, commit_ns)

        def prog(kt: Task, step: int) -> Generator:
            child = capture_mm_of

            def finish(image, error: Optional[str]) -> None:
                if self.defer_irqs:
                    kernel.enable_irqs_for(kt)
                if child is not None:
                    kernel._exit_task(child, code=0)
                    kernel.reap(child)
                if error is None:
                    self._complete(req, image, target)
                else:
                    self._fail(req, error)

            req.state = RequestState.RUNNING
            req.started_ns = engine.now_ns
            engine.metrics.inc(
                "capture.pipelined_captures" if pipelined else "capture.kthread_captures"
            )
            if self.defer_irqs:
                kernel.disable_irqs_for(kt)
            # Freeze.  Only tasks stopped HERE are resumed: one parked
            # by someone else (drain, safe pre-emption) stays frozen.
            frozen = []
            if not cow:
                frozen = [t for t in group if t.alive() and t.state != TaskState.STOPPED]
                for t in group:
                    kernel.stop_task(t)
                # Wait for every task to reach an op boundary (one may
                # be mid-op on another CPU).
                while any(t.alive() and t.state != TaskState.STOPPED for t in group):
                    yield ops.Sleep(ns=50_000)
            if capture_mm_of is None and not target.alive():
                # A caller's COW child would still hold the state.
                for t in frozen:
                    if t.alive():
                        kernel.resume_task(t)
                finish(None, f"target pid {target.pid} exited before capture")
                return
            if fork:
                # The COW fork snapshots the address space atomically.
                child, fork_cost = kernel.do_fork(target, stopped=True)
                # Metadata and pages are read at the snapshot; the
                # address-space attach is paid once the fork is.
                image = snapshot()
                pages = self._page_set(child, image.parent_key)
            else:
                source = target if child is None else child
                image = snapshot() if forked_image is None else forked_image
                yield from attach(kt, source)
                pages = self._page_set(source, image.parent_key)
                if not pipelined:
                    yield from copy_pages(kernel, source, image, pages)
            # Re-arm dirty tracking at the snapshot instant, so pages
            # the target writes from here on land in the next delta.
            if rearm:
                self.arm_incremental(target)
            if fork:
                yield ops.Compute(ns=fork_cost)
            if rearm:
                yield ops.Compute(ns=30 * len(pages) + 1_000)
            if frozen or fork:
                for t in frozen:
                    kernel.resume_task(t)
                req.target_stall_ns = engine.now_ns - req.started_ns
                # The freeze window is the application-visible cost of
                # this capture; record it as its own span.
                engine.tracer.record(
                    "checkpoint.freeze",
                    req.started_ns,
                    engine.now_ns,
                    pid=target.pid,
                    key=req.key,
                )
            if fork:
                yield from attach(kt, child)
            try:
                if pipelined:
                    yield from drain(image, child, pages)
                else:
                    # The copy already isolated the data in the image
                    # buffers, so the write runs after the thaw.
                    store_start_ns = engine.now_ns
                    yield from store_image(kernel, self.storage, image)
                    req.storage_delay_ns = engine.now_ns - store_start_ns
            except StorageError as exc:
                # Lost backend / write quorum unreachable: the
                # checkpoint fails, the application keeps running.
                finish(image, f"stable-storage write failed: {exc}")
            else:
                finish(image, None)

        return kernel.spawn_kthread(
            f"k{self.mech_name.lower()}/{req.key.rsplit('/', 1)[-1]}",
            prog,
            policy=self.kthread_policy,
            rt_prio=self.kthread_rt_prio,
        )
