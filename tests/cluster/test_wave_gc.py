"""Tests for checkpoint-wave garbage collection."""

from __future__ import annotations

import pytest

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.direction import AutonomicCheckpointer
from repro.mechanisms import CRAK
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import SparseWriter


def wf(rank):
    return SparseWriter(
        iterations=30_000, dirty_fraction=0.02, heap_bytes=256 * 1024,
        seed=rank, compute_ns=100_000,
    )


def build(keep_waves, mech_cls=CRAK):
    cl = Cluster(n_nodes=2, seed=71)
    job = ParallelJob(cl, wf, n_ranks=2, name="gc")
    mechs = {
        n.node_id: mech_cls(n.kernel, cl.remote_storage) for n in cl.nodes
    }
    coord = CheckpointCoordinator(
        job, mechs, interval_ns=20 * NS_PER_MS, keep_waves=keep_waves
    )
    coord.start()
    return cl, job, coord


def test_gc_disabled_by_default_retains_all():
    cl, job, coord = build(keep_waves=0)
    cl.run_for(200 * NS_PER_MS)
    assert len(coord.waves) >= 5
    assert coord.waves_pruned == 0


def test_gc_bounds_retained_waves_and_deletes_blobs():
    cl, job, coord = build(keep_waves=2)
    cl.run_for(250 * NS_PER_MS)
    assert len(coord.waves) <= 2
    assert coord.waves_pruned >= 2
    # The retained images are still loadable; total blobs bounded.
    stored = list(cl.remote_storage.keys())
    assert len(stored) <= 2 * 2 + 2  # keep_waves * ranks (+ slack in flight)
    for wave in coord.waves:
        for key, _ in wave.values():
            assert cl.remote_storage.exists(key)


def test_gc_never_breaks_recovery():
    cl, job, coord = build(keep_waves=1)
    cl.engine.after(110 * NS_PER_MS, lambda: cl.fail_node(0))
    # Need a spare for recovery.
    cl2, job2, coord2 = None, None, None  # (single-cluster scenario)
    # Re-build with a spare:
    cl = Cluster(n_nodes=2, n_spares=1, seed=71)
    job = ParallelJob(cl, wf, n_ranks=2, name="gc2")
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
        for n in cl.nodes
    }
    coord = CheckpointCoordinator(
        job, mechs, interval_ns=20 * NS_PER_MS, keep_waves=1
    )
    coord.start()
    cl.engine.after(110 * NS_PER_MS, lambda: cl.fail_node(0))
    done = job.run_to_completion(limit_ns=240 * NS_PER_S)
    assert done
    assert coord.recoveries == 1
    assert not coord.unrecoverable


def test_gc_protects_incremental_ancestors():
    """With chained deltas, GC must not delete a retained image's base."""
    cl, job, coord = build(keep_waves=1, mech_cls=AutonomicCheckpointer)
    cl.run_for(200 * NS_PER_MS)
    assert len(coord.waves) == 1
    # The retained wave's full chain must still be materializable.
    wave = coord.waves[-1]
    mech = next(iter(coord.mechanisms.values()))
    for key, _ in wave.values():
        chain, _ = mech.image_chain(key)
        assert chain[0].parent_key is None  # base reachable and full


def test_gc_sweep_charges_no_reads():
    """Finding a retained image's ancestors peeks at the store: a sweep
    must not add to its read bytes or occupy its device."""
    cl, job, coord = build(keep_waves=1, mech_cls=AutonomicCheckpointer)
    store = cl.remote_storage
    sweep = coord._gc_old_waves
    charged = []

    def watched_sweep():
        before = (store.bytes_read, store.device.busy_until_ns)
        sweep()
        charged.append((before, (store.bytes_read, store.device.busy_until_ns)))

    coord._gc_old_waves = watched_sweep
    cl.run_for(200 * NS_PER_MS)
    assert coord.waves_pruned > 0
    assert all(before == after for before, after in charged)
