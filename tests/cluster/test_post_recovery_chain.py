"""Recoveries from waves taken after an earlier recovery.

A restored rank's first delta extends the image it was restored from,
so a second recovery from a post-recovery wave rebuilds the right
memory, whatever wave GC and restore prefetch do.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.direction import AutonomicCheckpointer
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import HotColdWriter, memory_digest


def writer(rank, iterations):
    # Cold pages are rewritten rarely: a restore that loses one shows in
    # the final digest instead of being papered over by later writes.
    return HotColdWriter(
        iterations=iterations, hot_fraction=0.08, heap_bytes=512 * 1024,
        seed=rank, compute_ns=100_000, cold_touch_every=100,
    )


def run_job(n_ranks, iterations, fail_ms=(), interval_ms=0, **coord_kw):
    cl = Cluster(n_nodes=n_ranks, n_spares=len(fail_ms), seed=18)
    job = ParallelJob(
        cl, lambda r: writer(r, iterations), n_ranks=n_ranks, name="pr"
    )
    coord = None
    if fail_ms:
        mechs = {
            n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
            for n in cl.nodes
        }
        coord = CheckpointCoordinator(
            job, mechs, interval_ms * NS_PER_MS, **coord_kw
        )
        for i, ms in enumerate(fail_ms):
            cl.engine.after(ms * NS_PER_MS, lambda n=i: cl.fail_node(n))
        coord.start()
    return job, coord


def finish(job, coord):
    assert job.run_to_completion(60 * NS_PER_S)
    assert coord.recoveries == 2 and not coord.unrecoverable
    return [memory_digest(r.task) for r in job.ranks]


@lru_cache(maxsize=None)
def clean_digests(n_ranks, iterations):
    job, _ = run_job(n_ranks, iterations)
    assert job.run_to_completion(60 * NS_PER_S)
    return [memory_digest(r.task) for r in job.ranks]


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("keep_waves", [0, 1])
def test_second_recovery_from_a_post_recovery_wave(keep_waves, prefetch):
    job, coord = run_job(
        2, 1000, fail_ms=(50, 110), interval_ms=20,
        keep_waves=keep_waves, restore_prefetch=prefetch,
    )
    recovered = []
    recover_from = coord._recover_from

    def record(wave):
        recover_from(wave)
        recovered.append(wave)

    coord._recover_from = record
    digests = finish(job, coord)
    # The second recovery's images were all taken after the first one.
    first_gen = max(int(k.rsplit("/", 1)[1]) for k, _ in recovered[0].values())
    assert all(
        int(k.rsplit("/", 1)[1]) > first_gen for k, _ in recovered[1].values()
    )
    assert digests == clean_digests(2, 1000)


def test_rank_that_sat_out_the_retained_wave_recovers():
    """Short waves outpace a slow restore: a parked rank misses the one
    wave GC keeps, and the second recovery restores it from its tip."""
    job, coord = run_job(
        3, 800, fail_ms=(50, 100), interval_ms=6, keep_waves=1
    )
    assert finish(job, coord) == clean_digests(3, 800)
