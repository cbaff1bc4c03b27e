"""The library's central invariant, across the workload zoo.

For any workload and any checkpoint instant: running to completion after
a restart from the image produces memory byte-identical to a run that
was never interrupted.  This is what distinguishes a *checkpoint* from
an accounting exercise.
"""

from __future__ import annotations

import pytest

from repro.core.checkpointer import RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.mechanisms import CRAK
from repro.simkernel import Kernel
from repro.simkernel.costs import NS_PER_MS
from repro.stablestore import (
    ContentStore,
    ErasureStore,
    HierarchicalStore,
    ReplicatedStore,
    StorageCluster,
    StorageLevel,
)
from repro.storage import RemoteStorage
from repro.workloads import (
    DenseWriter,
    HotColdWriter,
    RandomUpdater,
    SparseWriter,
    StencilKernel,
    StreamingWriter,
    WavefrontSweep,
    memory_digest,
)

HEAP = 256 * 1024


def _zoo(iters):
    """The workload zoo, each running ``iters`` iterations."""
    return {
        "dense": lambda: DenseWriter(
            iterations=iters, heap_bytes=HEAP, compute_ns=20_000
        ),
        "sparse": lambda: SparseWriter(
            iterations=iters, dirty_fraction=0.1, heap_bytes=HEAP,
            compute_ns=20_000, seed=3,
        ),
        "streaming": lambda: StreamingWriter(
            iterations=iters, window_bytes=32 * 1024, heap_bytes=HEAP,
            compute_ns=20_000,
        ),
        "hotcold": lambda: HotColdWriter(
            iterations=iters, hot_fraction=0.1, heap_bytes=HEAP,
            compute_ns=20_000, seed=5,
        ),
        "stencil": lambda: StencilKernel(
            iterations=iters, heap_bytes=HEAP, compute_ns=20_000
        ),
        "wavefront": lambda: WavefrontSweep(
            iterations=iters, planes=16, heap_bytes=HEAP, compute_ns=20_000
        ),
        "gups": lambda: RandomUpdater(
            iterations=iters, updates_per_iteration=16, heap_bytes=HEAP,
            compute_ns=20_000, seed=7
        ),
    }


WORKLOADS = _zoo(400)
#: Long enough for four checkpoints 3 ms apart (at 400 iterations the
#: workloads exit before the third).
LONG_WORKLOADS = _zoo(4_000)


def clean_digest(ctor):
    k = Kernel(ncpus=2, seed=51)
    t = ctor().spawn(k)
    k.run_until_exit(t, limit_ns=10**13)
    return memory_digest(t)["heap"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("ckpt_at_ms", [2, 11])
def test_checkpoint_restart_equals_clean_run(name, ckpt_at_ms):
    ctor = WORKLOADS[name]
    k = Kernel(ncpus=2, seed=51)
    mech = CRAK(k, RemoteStorage())
    t = ctor().spawn(k)
    k.run_for(ckpt_at_ms * NS_PER_MS)
    if not t.alive():
        pytest.skip("workload finished before the checkpoint instant")
    req = mech.request_checkpoint(t)
    k.start()
    k.engine.run(
        until_ns=k.engine.now_ns + 10**12,
        until=lambda: req.state in (RequestState.DONE, RequestState.FAILED),
    )
    assert req.state == RequestState.DONE, req.error
    res = mech.restart(req.key)
    k.run_until_exit(res.task, limit_ns=10**13)
    assert res.task.exit_code == 0
    assert memory_digest(res.task)["heap"] == clean_digest(ctor), (
        f"{name}: restored run diverged from the uninterrupted run"
    )


def _replicated(engine):
    return ReplicatedStore(StorageCluster(engine, n_servers=3), replication=2)


def _hierarchy(engine, erasure_policy="back"):
    """A partner level plus a 4+2 erasure level (write-back by default)."""
    erasure = ErasureStore(StorageCluster(engine, n_servers=6), 4, 2)
    return HierarchicalStore(
        engine,
        [
            StorageLevel("partner", _replicated(engine)),
            StorageLevel("erasure", erasure, write=erasure_policy),
        ],
    )


#: Every storage stack the cluster can build, on one kernel's engine.
STACKS = {
    "remote": lambda engine: RemoteStorage(),
    "replicated": _replicated,
    "dedup": lambda engine: ContentStore(_replicated(engine), metrics=engine.metrics),
    "hierarchy-delta": _hierarchy,
    "dedup-hierarchy": lambda engine: ContentStore(
        _hierarchy(engine), metrics=engine.metrics
    ),
}


@pytest.mark.parametrize("name", ["sparse", "hotcold", "gups"])
@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("depth", [1, 4])
def test_incremental_chain_restart_equals_clean_run(name, stack, depth):
    """Same invariant through a base + two-delta incremental chain, on
    every storage stack, written synchronously or through the
    pipelined drain."""
    k = Kernel(ncpus=2, seed=51)
    mech = AutonomicCheckpointer(k, STACKS[stack](k.engine))
    _chain_restart_equals_clean_run(k, mech, WORKLOADS[name], depth, (2, 5, 8))


#: (workload, erasure level write policy); write-through cases keep
#: their plain workload id.
DELTA_CASES = [(n, p) for p in ("through", "back") for n in ("sparse", "hotcold", "gups")]


@pytest.mark.parametrize(
    "name,erasure_policy", DELTA_CASES,
    ids=[n if p == "through" else f"{n}-{p}" for n, p in DELTA_CASES],
)
@pytest.mark.parametrize("depth", [1, 4])
def test_delta_updated_chain_restart_equals_clean_run(name, depth, erasure_policy):
    """The same invariant when the erasure tier takes delta updates: a
    write-through or write-back 4+2 erasure level under a partner level,
    with every chain of two or more images compacted, so each
    re-compacted flat reaches the erasure stripe as a dirty-extent
    update (a write-back copy holds the old flat until it lands)."""
    k = Kernel(ncpus=2, seed=51)
    mech = AutonomicCheckpointer(k, _hierarchy(k.engine, erasure_policy))
    mech.compaction_threshold = 2
    _chain_restart_equals_clean_run(
        k, mech, LONG_WORKLOADS[name], depth, (2, 5, 8, 11)
    )
    assert k.engine.metrics.counter("compaction.delta_runs").value >= 1
    assert mech.storage.level("erasure").backend.delta_writes >= 1


def _chain_restart_equals_clean_run(k, mech, ctor, depth, ckpt_at_ms):
    """Checkpoint a fresh ``ctor`` workload at each ``ckpt_at_ms``,
    restart the last image and compare with an uninterrupted run."""
    mech.pipeline_depth = depth
    t = ctor().spawn(k)
    last = None
    for at_ms in ckpt_at_ms:
        k.run_until(k.engine.now_ns)  # no-op keeps interface obvious
        k.run_for(0)
        k.start()
        k.engine.run(until_ns=at_ms * NS_PER_MS)
        if not t.alive():
            break
        req = mech.request_checkpoint(t)
        k.engine.run(
            until_ns=k.engine.now_ns + 10**12,
            until=lambda: req.state in (RequestState.DONE, RequestState.FAILED),
        )
        assert req.state == RequestState.DONE, req.error
        last = req
    if last is None:
        pytest.skip("workload too short")
    res = mech.restart(last.key)
    k.run_until_exit(res.task, limit_ns=10**13)
    assert memory_digest(res.task)["heap"] == clean_digest(ctor)
