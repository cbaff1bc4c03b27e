"""Every kernel-thread mechanism runs the one ``kthread_capture`` program.

A matrix over the mechanisms that use it (CRAK, UCLiK, BLCR on one task
and on a 3-thread group, PsncR/C, Checkpoint [5] and the direction
forward) at ``pipeline_depth`` 1 and 4: a failed stable-storage write
fails the request and leaves nothing frozen or unreaped, and a good one
restores to the uninterrupted run's heap.
"""

from __future__ import annotations

import pytest

from repro.core.checkpointer import RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.mechanisms import BLCR, CRAK, CheckpointMT, PsncRC, UCLiK
from repro.simkernel import Kernel, TaskState
from repro.simkernel.costs import NS_PER_MS
from repro.storage import LocalDiskStorage
from repro.workloads import SparseWriter, ThreadedWorkload, memory_digest

from mech_helpers import make_writer, run_request

CASES = {
    "CRAK": (CRAK, 1),
    "UCLiK": (UCLiK, 1),
    "BLCR": (BLCR, 1),
    "BLCR-group": (BLCR, 3),
    "PsncRC": (PsncRC, 1),
    "CheckpointMT": (CheckpointMT, 1),
    "Autonomic": (AutonomicCheckpointer, 1),
}
DEPTHS = (1, 4)


def _workload(nthreads):
    if nthreads > 1:
        return ThreadedWorkload(
            nthreads=nthreads, iterations=1_000, heap_bytes=256 * 1024,
            compute_ns=20_000,
        )
    return make_writer(iterations=3_000, heap=256 * 1024)


def _spawn(kernel, nthreads):
    wl = _workload(nthreads)
    return wl.spawn_group(kernel) if nthreads > 1 else [wl.spawn(kernel)]


def _setup(name, depth, ncpus=2):
    cls, nthreads = CASES[name]
    k = Kernel(ncpus=ncpus, seed=11)
    storage = LocalDiskStorage(0)
    mech = cls(k, storage)
    mech.pipeline_depth = depth
    tasks = _spawn(k, nthreads)
    for t in tasks:
        mech.prepare_target(t)
    k.run_for(2 * NS_PER_MS)
    return k, storage, mech, tasks


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_failed_store_fails_request_and_thaws(name, depth):
    k, storage, mech, tasks = _setup(name, depth)
    storage.mark_node_failed()
    req = mech.request_checkpoint(tasks[0])
    run_request(k, req)
    assert req.state == RequestState.FAILED
    assert "stable-storage write failed" in req.error
    assert [t.name for t in k.tasks.values() if t.state == TaskState.STOPPED] == []
    assert [t.name for t in k.tasks.values() if t.name.endswith("-child")] == []
    assert all(t.alive() for t in tasks)


def _reference_digest(nthreads, ncpus):
    k = Kernel(ncpus=ncpus, seed=11)
    tasks = _spawn(k, nthreads)
    for t in tasks:
        k.run_until_exit(t, limit_ns=10**13)
    return memory_digest(tasks[0])["heap"]


@pytest.mark.parametrize("ncpus", (1, 2))
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_restore_matches_uninterrupted_run(name, depth, ncpus):
    k, _, mech, tasks = _setup(name, depth, ncpus)
    # Two checkpoints: the direction forward's second one is a delta
    # over the re-armed dirty set.
    for _ in range(2):
        req = mech.request_checkpoint(tasks[0])
        run_request(k, req)
        assert req.state == RequestState.DONE, req.error
        k.run_for(NS_PER_MS)
    assert [t.name for t in k.tasks.values() if t.name.endswith("-child")] == []
    dest = Kernel(ncpus=ncpus, seed=11, node_id=1)
    if len(tasks) > 1:
        restored = [
            r.task if hasattr(r, "task") else r
            for r in mech.restart_group(req.key, target_kernel=dest)
        ]
    else:
        restored = [mech.restart(req.key, target_kernel=dest).task]
    for t in restored:
        dest.run_until_exit(t, limit_ns=10**13)
    digest = memory_digest(restored[0])["heap"]
    assert digest == _reference_digest(len(tasks), ncpus)


#: The captures that read memory from a COW fork: the caller's
#: (Checkpoint [5]) at any depth, the thread's own at depth > 1.
FORKED = [("CheckpointMT", 1)] + [
    (name, 4) for name, (_, nthreads) in sorted(CASES.items()) if nthreads == 1
]


@pytest.mark.parametrize("name,depth", FORKED)
def test_forked_image_metadata_is_read_at_the_fork(name, depth):
    """The restart cursor (step, registers) is the target's at the fork
    that fixed the image's memory, not at a later instant: on two CPUs
    the target keeps running while the capture thread pays for the fork
    and the address-space attach (short ops let it advance meanwhile)."""
    cls, _ = CASES[name]
    k = Kernel(ncpus=2, seed=11)
    mech = cls(k, LocalDiskStorage(0))
    mech.pipeline_depth = depth
    target = SparseWriter(
        iterations=3_000, dirty_fraction=0.1, heap_bytes=256 * 1024,
        compute_ns=20_000, seed=3,
    ).spawn(k)
    mech.prepare_target(target)
    at_fork = []
    fork = k.do_fork

    def recording_fork(parent, *args, **kwargs):
        at_fork.append((parent.main_steps, parent.registers.snapshot()))
        return fork(parent, *args, **kwargs)

    k.do_fork = recording_fork
    for _ in range(3):
        k.run_for(2 * NS_PER_MS)
        req = mech.request_checkpoint(target)
        run_request(k, req)
        assert req.state == RequestState.DONE, req.error
        step, registers = at_fork[-1]
        assert (req.image.step, req.image.registers) == (step, registers)
