"""Hardware-supported checkpointing: Revive and SafetyNet.

"There are two recent proposals for hardware-supported checkpointing
for shared-memory multiprocessors, Revive [29] and Safetynet [34].  In
Revive checkpointing is supported by modifications of the hardware
related to the directory controller of the machine.  In comparison,
Safetynet requires more hardware resources than Revive.  The
processor's caches must be modified, and it also requires an additional
buffer to store the checkpointing data."

Both take frequent, cheap, memory-resident checkpoints at cache-line
granularity and *roll back in place* on an error -- a different use
pattern from the OS packages (no stable storage, no cross-node restart),
which is why the paper notes hardware schemes are "of limited
importance" for commodity fault tolerance.
"""

from __future__ import annotations

from ...core.checkpointer import Checkpointer, CheckpointRequest, RequestState
from ...core.features import Features, Initiation
from ...core.image import CheckpointImage, materialize_chain
from ...core.registry import register
from ...core.taxonomy import Agent, Context, TaxonomyPosition
from ...errors import RestartError
from ...simkernel import Kernel, Task
from ...simkernel.process import Registers
from ...storage.backends import StorageKind
from .cacheline import CacheLineTracker

__all__ = ["HardwareCheckpointer", "Revive", "SafetyNet"]


class HardwareCheckpointer(Checkpointer):
    """Base class for the two hardware schemes.

    Checkpoints are *epochs*: the line log accumulated since the last
    epoch is flushed into a delta image in (protected) memory.  Rollback
    restores the last epoch in place.
    """

    #: Per-write logging overhead (scheme-dependent).
    per_write_overhead_ns: int = 0
    #: Relative silicon cost, for the E14 resource comparison
    #: (SafetyNet "requires more hardware resources than Revive").
    hardware_cost_units: int = 1
    #: Fixed epoch-flush latency (log drain into protected memory).
    epoch_flush_ns: int = 20_000

    def __init__(self, kernel: Kernel, storage) -> None:
        super().__init__(kernel, storage)
        self.tracker = CacheLineTracker(
            kernel, per_write_overhead_ns=self.per_write_overhead_ns
        )

    def request_checkpoint(
        self, task: Task, incremental: bool = True
    ) -> CheckpointRequest:
        """Close the current epoch for ``task``.

        Hardware checkpoints are always incremental after the first
        epoch; the first epoch snapshots all resident pages (hardware
        cannot know what was dirtied before it was armed).
        """
        req = self._new_request(task, incremental=True)
        req.state = RequestState.RUNNING
        req.started_ns = self.kernel.engine.now_ns
        self.kernel.engine.metrics.inc("capture.hw_epochs")
        image = self._new_image(req, task)
        from ...core.capture import snapshot_metadata

        snapshot_metadata(self.kernel, task, image)
        if image.parent_key is None:
            # First epoch: full resident snapshot, extent-coalesced.
            from ...core.capture import _extent_runs

            for vma in task.mm.vmas:
                resident = [(vma.name, int(p)) for p in vma.present_pages()]
                for name, start, npages in _extent_runs(resident):
                    image.take_pages(name, start, vma.read_pages(start, npages))
            self.tracker.drain_into(task, CheckpointImage(
                key="discard", mechanism="", pid=0, task_name="", node_id=0,
                step=0, registers={},
            ))
        else:
            self.tracker.drain_into(task, image)
        delay = self.storage.store(
            image.key, image, image.size_bytes, self.kernel.engine.now_ns
        )
        done_at = self.epoch_flush_ns + delay

        def finish() -> None:
            self._complete(req, image, task)

        self.kernel.engine.after(done_at, finish, label="hw-epoch")
        return req

    # ------------------------------------------------------------------
    def rollback(self, key: str, task: Task) -> int:
        """Roll ``task`` back to the epoch stored under ``key``, in place.

        Returns the number of bytes rewritten.  This is the
        shared-memory-multiprocessor recovery path: same machine, same
        process, memory and registers wound back.
        """
        chain, _ = self.image_chain(key)
        image = (
            chain[0]
            if len(chain) == 1
            else materialize_chain(chain, page_size=self.kernel.costs.page_size)
        )
        if image.pid != task.pid:
            raise RestartError(
                f"epoch {key!r} belongs to pid {image.pid}, not {task.pid}"
            )
        rewritten = 0
        for chunk in image.chunks:
            vma = task.mm.vma(chunk.vma)
            for c in chunk.split_pages():
                arr, _ = vma.ensure_page(c.page_index)
                arr[c.offset : c.offset + c.nbytes] = c.data
            rewritten += chunk.nbytes
        task.registers = Registers.from_snapshot(image.registers)
        task.chain_tip = (self.storage, key)
        workload = image.user_state.get("workload")
        if workload is not None:
            task.rebuild_program(workload.align_step(image.step))
        engine = self.kernel.engine
        engine.metrics.inc("restart.hw_rollbacks")
        engine.tracer.instant("restart.rollback", key=key, pid=task.pid, bytes=rewritten)
        # Discard lines dirtied since the epoch (they were rolled back).
        self.tracker.drain_into(task, CheckpointImage(
            key="discard", mechanism="", pid=0, task_name="", node_id=0,
            step=0, registers={},
        ))
        return rewritten


@register
class Revive(HardwareCheckpointer):
    """ReVive: directory-controller logging (Prvulovic et al., ISCA '02)."""

    mech_name = "ReVive"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.HW_DIRECTORY_CONTROLLER,
        specifics=("directory controller mods", "memory-based log"),
    )
    features = Features(
        incremental=True,
        transparent=True,
        stable_storage=(StorageKind.MEMORY,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
    )
    description = "Cost-effective architectural support for rollback recovery"
    #: Logging rides the directory protocol: small per-write cost.
    per_write_overhead_ns = 40
    hardware_cost_units = 1


@register
class SafetyNet(HardwareCheckpointer):
    """SafetyNet: cache checkpoint buffers (Sorin et al., ISCA '02)."""

    mech_name = "SafetyNet"
    position = TaxonomyPosition(
        context=Context.SYSTEM_LEVEL,
        agent=Agent.HW_CACHE,
        specifics=("modified caches", "dedicated checkpoint buffers"),
    )
    features = Features(
        incremental=True,
        transparent=True,
        stable_storage=(StorageKind.MEMORY,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
    )
    description = "Global checkpoint/recovery for shared memory multiprocessors"
    #: Dedicated buffers hide the logging latency almost entirely...
    per_write_overhead_ns = 5
    #: ...at the price of "more hardware resources than Revive".
    hardware_cost_units = 3
