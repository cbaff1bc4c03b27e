"""User-level checkpoint libraries: libckpt, libckp, Thckpt, Esky,
Condor, libtckpt, and the PSC terascale library.

All are Section-3 citizens: linked (or preloaded) into the application,
triggered by general-purpose signals, extracting kernel state through
system calls.  Their Features rows extend Table 1 (which covers only the
system-level packages) using the survey text's descriptions.
"""

from __future__ import annotations

from typing import List

from ...core.checkpointer import CheckpointRequest
from ...core.features import Features, Initiation
from ...core.registry import register
from ...core.taxonomy import Agent, Context, TaxonomyPosition
from ...simkernel import Task
from ...simkernel.signals import Sig
from ...storage.backends import StorageKind
from .base import UserLevelCheckpointer

__all__ = ["Libckpt", "Libckp", "Thckpt", "Esky", "Condor", "Libtckpt", "PscCR"]


@register
class Libckpt(UserLevelCheckpointer):
    """libckpt (Plank et al.): the canonical user-level checkpointer.

    SIGALRM-timer automatic initiation and user-level *incremental*
    checkpointing via mprotect+SIGSEGV -- the reference implementation
    of the technique the paper discusses in Section 3.
    """

    mech_name = "libckpt"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.CHECKPOINT_LIBRARY,
        specifics=("relink against library", "SIGALRM timer", "mprotect incremental"),
    )
    features = Features(
        incremental=True,
        transparent=False,  # relink (or even source changes for forked ckpt)
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        requires_registration=True,
    )
    description = "Transparent checkpointing under Unix (Usenix '95)"
    trigger_signal = Sig.SIGALRM


@register
class Libckp(UserLevelCheckpointer):
    """libckp (Wang et al.): full-image user-level checkpointing."""

    mech_name = "libckp"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.CHECKPOINT_LIBRARY,
        specifics=("relink against library", "full images"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        requires_registration=True,
    )
    description = "Checkpointing and its applications (FTCS '95)"
    trigger_signal = Sig.SIGALRM


@register
class Thckpt(UserLevelCheckpointer):
    """Thckpt: user-level checkpointing of single-threaded processes."""

    mech_name = "Thckpt"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.CHECKPOINT_LIBRARY,
        specifics=("relink against library",),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        requires_registration=True,
    )
    description = "Thckpt (sourceforge)"
    trigger_signal = Sig.SIGALRM


@register
class Esky(UserLevelCheckpointer):
    """Esky: SIGALRM-driven user-level checkpointing (Solaris/Linux)."""

    mech_name = "Esky"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.USER_SIGNAL_HANDLER,
        specifics=("SIGALRM timer", "user signal handler"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        requires_registration=True,
    )
    description = "Esky checkpoint/restart (ANU)"
    trigger_signal = Sig.SIGALRM


@register
class Condor(UserLevelCheckpointer):
    """Condor's checkpoint library: general-purpose signals + remote I/O.

    "Others, like Condor, may use some general purpose signals such as
    SIGUSR1, SIGUSR2, and SIGUNUSED" -- user-initiated via ``kill``, and
    its shadow mechanism lets checkpoints land on a remote machine.
    """

    mech_name = "Condor"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.USER_SIGNAL_HANDLER,
        specifics=("SIGUSR2", "remote shadow I/O", "relink condor_compile"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
        initiation=Initiation.USER,
        kernel_module=False,
        migration=True,
        requires_registration=True,
    )
    description = "Condor distributed processing system (Wisconsin)"
    trigger_signal = Sig.SIGUSR2


@register
class Libtckpt(UserLevelCheckpointer):
    """libtckpt: user-level checkpointing for LinuxThreads programs."""

    mech_name = "libtckpt"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.CHECKPOINT_LIBRARY,
        specifics=("relink against library", "multithreaded", "thread barrier"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.LOCAL,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        multithreaded=True,
        requires_registration=True,
    )
    description = "User-level checkpointing for LinuxThreads (Usenix '01)"
    trigger_signal = Sig.SIGUSR1

    #: Cost of herding all threads to the barrier before capture.
    THREAD_BARRIER_NS = 150_000

    def request_checkpoint(
        self, task: Task, incremental: bool = False
    ) -> CheckpointRequest:
        group: List[int] = task.annotations.get("thread_group", [task.pid])
        # Every sibling must also be linked (same process image).
        for pid in group:
            if pid in self.kernel.tasks:
                self.kernel.tasks[pid].annotations.setdefault(
                    f"{self.mech_name}_linked", True
                )
        # The barrier stalls siblings; modelled as stopping them for the
        # duration of the leader's handler.
        for pid in group:
            t = self.kernel.tasks.get(pid)
            if t is not None and t is not task and t.alive():
                self.kernel.stop_task(t)
        req = super().request_checkpoint(task, incremental)

        def release() -> None:
            if req.completed_ns is None:
                self.kernel.engine.after(200_000, release)
                return
            for pid in group:
                t = self.kernel.tasks.get(pid)
                if t is not None and t is not task and t.alive():
                    self.kernel.resume_task(t)

        self.kernel.engine.after(self.THREAD_BARRIER_NS, release)
        return req


@register
class PscCR(UserLevelCheckpointer):
    """The Pittsburgh Supercomputing Center checkpoint library.

    User-level library for the Terascale system's parallel applications;
    checkpoints land on shared (remote) storage.
    """

    mech_name = "PSC"
    position = TaxonomyPosition(
        context=Context.USER_LEVEL,
        agent=Agent.CHECKPOINT_LIBRARY,
        specifics=("parallel applications", "shared filesystem"),
    )
    features = Features(
        incremental=False,
        transparent=False,
        stable_storage=(StorageKind.REMOTE,),
        initiation=Initiation.AUTOMATIC,
        kernel_module=False,
        parallel_mpi=True,
        requires_registration=True,
    )
    description = "PSC Terascale checkpoint and recovery (CMU-PSC-TR-2001)"
    trigger_signal = Sig.SIGUSR1
