#!/usr/bin/env python
"""Fault-tolerant parallel job on a failing cluster.

The paper's headline scenario: a capability job whose runtime exceeds
the machine's MTBF.  An 8-rank job runs on 8 nodes with injected
fail-stop failures; a checkpoint coordinator takes periodic coordinated
waves to remote storage and restarts lost ranks on spare nodes.  The
same job is also run with no fault tolerance for contrast.

Run:  python examples/cluster_fault_tolerance.py
"""

from __future__ import annotations

from repro.cluster import (
    CheckpointCoordinator,
    Cluster,
    ExponentialFailures,
    ParallelJob,
    ScratchRestartPolicy,
)
from repro.core.direction import AutonomicCheckpointer
from repro.reporting import fmt_bytes, render_table
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import HotColdWriter

N_RANKS = 8
ITERS = 4_000


def workload_factory(rank: int) -> HotColdWriter:
    return HotColdWriter(
        iterations=ITERS, heap_bytes=512 * 1024, hot_fraction=0.08,
        seed=rank, compute_ns=100_000,
    )


def run(protected: bool) -> dict:
    cluster = Cluster(n_nodes=N_RANKS, n_spares=4, seed=21)
    # Aggressive failure regime: node MTBF ~3 s, failures armed for the
    # first 2 s -- a few nodes will die while the job runs.
    cluster.schedule_failures(
        ExponentialFailures(3.0, stream_seed=5), horizon_s=2.0
    )
    job = ParallelJob(cluster, workload_factory, N_RANKS, name="capability-job")
    coord = None
    if protected:
        mechs = {
            n.node_id: AutonomicCheckpointer(n.kernel, cluster.remote_storage)
            for n in cluster.nodes
        }
        coord = CheckpointCoordinator(job, mechs, interval_ns=60 * NS_PER_MS)
        coord.start()
    else:
        ScratchRestartPolicy(job)
    done = job.run_to_completion(limit_ns=600 * NS_PER_S)
    return {
        "completed": done,
        "makespan_s": job.makespan_s(),
        "node_failures": cluster.engine.metrics.counters().get("node_failures", 0),
        "restarts": job.restarts,
        "waves": len(coord.waves) if coord else 0,
        "recoveries": coord.recoveries if coord else 0,
        "lost_steps": coord.lost_steps if coord else None,
        "ckpt_traffic": cluster.remote_storage.bytes_written,
        "spares_used": 4 - cluster.spares_left(),
    }


def main() -> None:
    unprotected = run(protected=False)
    protected = run(protected=True)
    rows = []
    for name, d in (("no fault tolerance", unprotected), ("coordinated C/R", protected)):
        rows.append(
            (
                name,
                "yes" if d["completed"] else "no",
                f"{d['makespan_s']:.3f}" if d["makespan_s"] else "-",
                d["node_failures"],
                d["restarts"],
                d["waves"],
                d["recoveries"],
                fmt_bytes(d["ckpt_traffic"]),
                d["spares_used"],
            )
        )
    print(render_table(
        [
            "policy", "completed", "makespan s", "node failures", "restarts",
            "ckpt waves", "recoveries", "ckpt traffic", "spares used",
        ],
        rows,
        title=f"{N_RANKS}-rank capability job under fail-stop failures:",
    ))
    if protected["completed"] and unprotected["completed"]:
        speedup = unprotected["makespan_s"] / protected["makespan_s"]
        print(f"\ncoordinated checkpoint/restart finished {speedup:.2f}x faster "
              f"than restart-from-scratch under the same failure sequence.")


if __name__ == "__main__":
    main()
