"""A recovery that supersedes one still restoring retires the older
restored tasks: only each rank's current task is alive on any node."""

from __future__ import annotations

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.direction import AutonomicCheckpointer
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import SparseWriter, memory_digest


def writer(rank):
    return SparseWriter(
        iterations=1500, dirty_fraction=0.03, heap_bytes=256 * 1024,
        seed=rank, compute_ns=100_000,
    )


def make_job():
    cl = Cluster(n_nodes=3, n_spares=2, seed=5)
    job = ParallelJob(cl, writer, n_ranks=3, name="ov")
    return cl, job


def test_superseded_restores_never_run():
    cl, job = make_job()
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
        for n in cl.nodes
    }
    coord = CheckpointCoordinator(job, mechs, interval_ns=20 * NS_PER_MS)
    coord.start()
    # The second failure lands while the first recovery's restores are
    # still in flight (stopped, waiting for their resume timers).
    cl.engine.after(70 * NS_PER_MS, lambda: cl.fail_node(0))
    cl.engine.after(70 * NS_PER_MS + 100_000, lambda: cl.fail_node(1))
    cl.engine.run(until_ns=150 * NS_PER_MS)  # past every resume timer
    assert coord.recoveries == 2
    alive = [
        t for n in cl.nodes for t in n.kernel.tasks.values()
        if t.name.startswith("ov/") and t.alive()
    ]
    assert len(alive) == len(job.ranks)
    assert {id(t) for t in alive} == {id(r.task) for r in job.ranks}

    assert job.run_to_completion(120 * NS_PER_S)
    _, ref = make_job()
    assert ref.run_to_completion(120 * NS_PER_S)
    assert [memory_digest(r.task) for r in job.ranks] == [
        memory_digest(r.task) for r in ref.ranks
    ]
