"""Parallel-application user-level checkpointers: CoCheck, CLIP, CCIFT.

Coordinated checkpointing of message-passing programs implemented
entirely in user space (library layer over PVM/MPI).  The coordination
protocol (flush channels, then checkpoint every rank) runs at user
level; each rank's capture is a plain user-level checkpoint with all
the Section-3 costs.
"""

from __future__ import annotations

from typing import List

from ...core.checkpointer import CheckpointRequest
from ...core.features import Features, Initiation
from ...core.registry import register
from ...core.taxonomy import Agent, Context, TaxonomyPosition
from ...errors import CheckpointError
from ...simkernel import Task
from ...simkernel.signals import Sig
from ...storage.backends import StorageKind
from .base import UserLevelCheckpointer

__all__ = ["CoCheck", "CLIP", "CCIFT"]


class _ParallelUserCkpt(UserLevelCheckpointer):
    """Shared coordination logic for the user-level parallel trio."""

    #: Per-rank channel-flush cost before captures may start.
    FLUSH_NS_PER_RANK = 400_000

    def checkpoint_job(self, ranks: List[Task]) -> List[CheckpointRequest]:
        """Coordinated checkpoint: flush channels, then signal every rank."""
        if not ranks:
            raise CheckpointError("empty rank list")
        for r in ranks:
            self._require_linked(r)
        flush_ns = self.FLUSH_NS_PER_RANK * len(ranks)
        reqs = [self._new_request(r) for r in ranks]

        def trigger() -> None:
            for r, req in zip(ranks, reqs):
                if r.alive():
                    self._mark_pending(req)
                    # The coordinator (rank 0's library) kills each rank
                    # with the trigger signal.
                    self.kernel.post_signal(r.pid, self.trigger_signal)
                else:
                    self._fail(req, f"rank pid {r.pid} dead at checkpoint")

        self.kernel.engine.after(flush_ns, trigger, label="ul-flush")
        return reqs


@register
class CoCheck(_ParallelUserCkpt):
    """CoCheck: consistent checkpoints for PVM/MPI at user level."""

    mech_name = "CoCheck"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.CHECKPOINT_LIBRARY,
        specifics=("PVM/MPI layer", "ready-message flush protocol"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        parallel_mpi=True,
        migration=True,
        requires_registration=True,
    )
    description = "Managing checkpoints for parallel programs (JSSPP '96)"
    trigger_signal = Sig.SIGUSR1


@register
class CLIP(_ParallelUserCkpt):
    """CLIP: semi-transparent checkpointing for Intel Paragon MPPs."""

    mech_name = "CLIP"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.CHECKPOINT_LIBRARY,
        specifics=("message-passing apps", "user placed ckpt calls"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        parallel_mpi=True,
        requires_registration=True,
    )
    description = "CLIP: a checkpointing tool for message-passing programs"
    trigger_signal = Sig.SIGUSR1


@register
class CCIFT(_ParallelUserCkpt):
    """CCIFT: automated application-level checkpointing via precompiler.

    Bronevetsky et al.: a source-to-source precompiler inserts the
    checkpointing code, so the *agent* is the precompiler rather than a
    hand-linked library.
    """

    mech_name = "CCIFT"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.PRECOMPILER,
        specifics=("source-to-source precompiler", "MPI protocol layer"),
    )
    features = Features(
        incremental=False,
        transparent=False,  # source is transformed and recompiled
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        parallel_mpi=True,
        requires_registration=True,
    )
    description = "Automated application-level checkpointing of MPI (PPoPP '03)"
    trigger_signal = Sig.SIGUSR1
