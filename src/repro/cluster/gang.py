"""Gang scheduling via checkpoint-based time multiplexing.

The paper's opening sentence lists gang scheduling among the
functionalities checkpoint/restart enables.  On a capability machine,
two jobs that each want the whole machine can share it in alternating
*slots*: at each slot boundary the running gang is checkpointed and
parked (safe pre-emption at scale) and the other gang is resumed --
either thawed in place (its memory is still resident) or restored from
its images (if the machine was drained in between).

:class:`GangScheduler` implements the rotate-in-place flavour: park via
checkpoint-then-freeze, thaw the next gang.  The checkpoint guarantees
the park is *safe*: if a node dies while a gang is frozen, the gang is
recoverable from its images like any other failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.checkpointer import Checkpointer, RequestState
from ..errors import ClusterError
from ..simkernel import TaskState
from .job import ParallelJob
from .machine import Cluster

__all__ = ["GangScheduler"]


@dataclass
class _GangState:
    job: ParallelJob
    #: rank index -> last park image key (safety net for failures).
    park_images: Dict[int, str] = field(default_factory=dict)
    slots_run: int = 0


class GangScheduler:
    """Round-robin gangs over the whole machine in fixed time slots.

    Parameters
    ----------
    cluster:
        The machine; all gangs run on its compute nodes.
    mechanisms:
        node_id -> checkpointer used for safe parking.
    slot_ns:
        Slot length.  Real gang schedulers use seconds-to-minutes; the
        simulation defaults to tens of milliseconds for test speed.
    """

    def __init__(
        self,
        cluster: Cluster,
        mechanisms: Dict[int, Checkpointer],
        slot_ns: int = 50_000_000,
    ) -> None:
        self.cluster = cluster
        self.mechanisms = mechanisms
        self.slot_ns = int(slot_ns)
        self.gangs: List[_GangState] = []
        self._active: Optional[int] = None
        self._running = False
        self.rotations = 0

    # ------------------------------------------------------------------
    def add_gang(self, job: ParallelJob) -> None:
        """Register a gang.  Jobs added after start() begin parked."""
        state = _GangState(job=job)
        self.gangs.append(state)
        if self._running:
            self._freeze_now(state)

    def start(self) -> None:
        """Freeze everyone but gang 0, then begin rotating."""
        if not self.gangs:
            raise ClusterError("no gangs registered")
        self._running = True
        self._active = 0
        for i, gang in enumerate(self.gangs):
            if i != 0:
                self._freeze_now(gang)
        self.cluster.engine.after(self.slot_ns, self._rotate, label="gang-slot")

    def stop(self) -> None:
        """Stop rotating (the active gang keeps running)."""
        self._running = False

    @property
    def active_gang(self) -> Optional[ParallelJob]:
        """The gang currently holding the machine."""
        if self._active is None:
            return None
        return self.gangs[self._active].job

    # ------------------------------------------------------------------
    def _freeze_now(self, gang: _GangState) -> None:
        """Immediate freeze without a checkpoint (initial parking)."""
        for rank in gang.job.ranks:
            if rank.task.alive() and rank.task.state != TaskState.STOPPED:
                rank.node.kernel.stop_task(rank.task)

    def _park(self, gang: _GangState) -> None:
        """Safe park: checkpoint every rank, freeze when images are durable."""
        for rank in gang.job.ranks:
            if not rank.task.alive():
                continue
            mech = self.mechanisms.get(rank.node.node_id)
            if mech is None:
                rank.node.kernel.stop_task(rank.task)
                continue
            mech.prepare_target(rank.task)

            def freeze(req, rank=rank) -> None:
                # DONE leaves a park image; FAILED freezes all the same.
                if req.state == RequestState.DONE:
                    gang.park_images[rank.index] = req.key
                if rank.task.alive():
                    rank.node.kernel.stop_task(rank.task)

            mech.request_checkpoint(rank.task).add_done_callback(freeze)

    def _thaw(self, gang: _GangState) -> None:
        for rank in gang.job.ranks:
            if rank.task.alive() and rank.task.state == TaskState.STOPPED:
                rank.node.kernel.resume_task(rank.task)
        gang.slots_run += 1

    def _rotate(self) -> None:
        if not self._running:
            return
        alive = [g for g in self.gangs if not g.job.finished]
        if not alive:
            self._running = False
            return
        current = self.gangs[self._active]
        if len(alive) > 1 or current.job.finished:
            # Pick the next unfinished gang after the current index.
            n = len(self.gangs)
            nxt = None
            for off in range(1, n + 1):
                cand = (self._active + off) % n
                if not self.gangs[cand].job.finished:
                    nxt = cand
                    break
            if nxt is not None and nxt != self._active:
                if not current.job.finished:
                    self._park(current)
                self._active = nxt
                self._thaw(self.gangs[nxt])
                self.rotations += 1
        self.cluster.engine.after(self.slot_ns, self._rotate, label="gang-slot")
