"""Tests for the cluster substrate: nodes, failures, jobs, coordination."""

from __future__ import annotations

import pytest

from repro.cluster import (
    BatchManager,
    CheckpointCoordinator,
    Cluster,
    ExponentialFailures,
    ParallelJob,
    ScratchRestartPolicy,
    WeibullFailures,
    p_survive,
    system_mtbf_s,
)
from repro.core.direction import AutonomicCheckpointer
from repro.errors import ClusterError, NodeFailedError, StorageLostError
from repro.mechanisms import UCLiK
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.workloads import SparseWriter

import numpy as np


def writer_factory(iterations=3000, heap=512 * 1024):
    def wf(rank):
        return SparseWriter(
            iterations=iterations,
            dirty_fraction=0.03,
            heap_bytes=heap,
            seed=rank,
            compute_ns=100_000,
        )

    return wf


def autockpt_mechs(cluster):
    return {
        n.node_id: AutonomicCheckpointer(n.kernel, cluster.remote_storage)
        for n in cluster.nodes
    }


class TestFailureMath:
    def test_system_mtbf_scales_inversely(self):
        assert system_mtbf_s(1000.0, 10) == 100.0
        assert system_mtbf_s(1000.0, 1000) == 1.0

    def test_p_survive_decreases_with_size(self):
        p1 = p_survive(3600, 100_000 * 3600, 1)
        p64k = p_survive(3600, 100_000 * 3600, 65536)
        assert p64k < p1 < 1.0

    def test_exponential_mean_close_to_mtbf(self):
        model = ExponentialFailures(100.0, stream_seed=1)
        samples = model.draw_ttf_indexed(np.arange(4000), 0)
        assert abs(np.mean(samples) - 100.0) < 8.0

    def test_weibull_mean_matches_mtbf(self):
        model = WeibullFailures(50.0, shape=0.7, stream_seed=2)
        samples = model.draw_ttf_indexed(np.arange(6000), 0)
        assert abs(np.mean(samples) - 50.0) < 5.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ClusterError):
            ExponentialFailures(0.0)
        with pytest.raises(ClusterError):
            WeibullFailures(-1.0)
        with pytest.raises(ClusterError):
            system_mtbf_s(100.0, 0)


class TestClusterNodes:
    def test_fail_stop_kills_tasks_and_disk(self):
        cl = Cluster(n_nodes=2, seed=3)
        node = cl.node(0)
        t = SparseWriter(iterations=10_000).spawn(node.kernel)
        cl.run_for(5 * NS_PER_MS)
        node.local_storage.store("x", b"1", 10, cl.engine.now_ns)
        cl.fail_node(0)
        assert not node.up
        assert not t.alive()
        with pytest.raises(StorageLostError):
            node.local_storage.load("x", cl.engine.now_ns)

    def test_repair_brings_fresh_kernel_and_disk_back(self):
        cl = Cluster(n_nodes=1, seed=3)
        node = cl.node(0)
        node.local_storage.store("x", b"1", 10, 0)
        cl.fail_node(0)
        node.repair(disk_survived=True)
        assert node.up
        obj, _ = node.local_storage.load("x", cl.engine.now_ns)
        assert obj == b"1"
        assert node.kernel.tasks == {}

    def test_require_up_raises_on_failed(self):
        cl = Cluster(n_nodes=1, seed=3)
        cl.fail_node(0)
        with pytest.raises(NodeFailedError):
            cl.node(0).require_up()

    def test_failure_watchers_fire_once_per_failure(self):
        cl = Cluster(n_nodes=2, seed=3)
        seen = []
        cl.on_failure(lambda n: seen.append(n.node_id))
        cl.fail_node(1)
        cl.fail_node(1)  # already down: no second event
        assert seen == [1]

    def test_claim_spare_exhaustion(self):
        cl = Cluster(n_nodes=1, n_spares=1, seed=3)
        s = cl.claim_spare()
        assert s.node_id == 1
        with pytest.raises(ClusterError):
            cl.claim_spare()

    def test_schedule_failures_within_horizon(self):
        cl = Cluster(n_nodes=8, seed=5)
        model = ExponentialFailures(10.0, stream_seed=5)
        n = cl.schedule_failures(model, horizon_s=5.0)
        assert 0 < n <= 8


class TestLazyCluster:
    def test_materializes_only_touched_nodes(self):
        cl = Cluster(n_nodes=65_536, seed=0, lazy_nodes=True)
        assert len(cl.nodes) == 65_536
        assert cl.materialized_nodes() == 0
        job = ParallelJob(cl, writer_factory(iterations=2_000, heap=64 * 1024),
                          n_ranks=4, node_ids=[0, 1, 2, 3])
        assert cl.materialized_nodes() == 4
        assert job.run_to_completion(limit_ns=3600 * NS_PER_S)
        assert cl.materialized_nodes() == 4

    def test_spares_and_failures_work(self):
        cl = Cluster(n_nodes=16, n_spares=2, seed=0, lazy_nodes=True)
        cl.fail_node(3)
        assert not cl.node(3).up
        spare = cl.claim_spare()
        assert spare.node_id == 16
        assert cl.spares_left() == 1
        assert cl.materialized_nodes() == 2


class TestParallelJob:
    def test_job_completes_without_failures(self):
        cl = Cluster(n_nodes=2, seed=7)
        job = ParallelJob(cl, writer_factory(iterations=500), n_ranks=4)
        assert job.run_to_completion(limit_ns=30 * NS_PER_S)
        assert job.makespan_s() > 0

    def test_node_failure_without_policy_leaves_job_stuck(self):
        cl = Cluster(n_nodes=2, seed=7)
        job = ParallelJob(cl, writer_factory(iterations=5000), n_ranks=2)
        cl.engine.after(20 * NS_PER_MS, lambda: cl.fail_node(0))
        done = job.run_to_completion(limit_ns=5 * NS_PER_S)
        assert not done
        assert job.failed_ranks  # rank 0 died with the node

    def test_scratch_restart_policy_reruns_from_zero(self):
        cl = Cluster(n_nodes=2, n_spares=1, seed=7)
        job = ParallelJob(cl, writer_factory(iterations=2000), n_ranks=2)
        policy = ScratchRestartPolicy(job)
        cl.engine.after(50 * NS_PER_MS, lambda: cl.fail_node(0))
        done = job.run_to_completion(limit_ns=120 * NS_PER_S)
        assert done
        assert job.restarts == 1
        assert policy.lost_steps > 0


class TestCoordinator:
    def test_waves_accumulate(self):
        cl = Cluster(n_nodes=2, seed=7)
        job = ParallelJob(cl, writer_factory(iterations=4000), n_ranks=2)
        coord = CheckpointCoordinator(job, autockpt_mechs(cl), 40 * NS_PER_MS)
        coord.start()
        job.run_to_completion(limit_ns=60 * NS_PER_S)
        assert len(coord.waves) >= 2
        # Waves record every rank.
        assert all(set(w) == {0, 1} for w in coord.waves)

    def test_recovery_from_remote_storage_on_spare(self):
        cl = Cluster(n_nodes=2, n_spares=1, seed=7)
        job = ParallelJob(cl, writer_factory(iterations=4000), n_ranks=2)
        coord = CheckpointCoordinator(job, autockpt_mechs(cl), 30 * NS_PER_MS)
        coord.start()
        cl.engine.after(100 * NS_PER_MS, lambda: cl.fail_node(0))
        done = job.run_to_completion(limit_ns=120 * NS_PER_S)
        assert done
        assert coord.recoveries == 1
        assert not coord.unrecoverable
        # The replacement rank landed on the spare node.
        assert any(r.node.node_id == 2 for r in job.ranks)

    def test_local_storage_makes_failure_unrecoverable(self):
        cl = Cluster(n_nodes=2, n_spares=1, seed=7)
        job = ParallelJob(cl, writer_factory(iterations=6000), n_ranks=2)
        # UCLiK stores only on the node's local disk.
        mechs = {
            n.node_id: UCLiK(n.kernel, n.local_storage) for n in cl.nodes
        }
        coord = CheckpointCoordinator(job, mechs, 30 * NS_PER_MS)
        coord.start()
        cl.engine.after(100 * NS_PER_MS, lambda: cl.fail_node(0))
        done = job.run_to_completion(limit_ns=10 * NS_PER_S)
        assert not done
        assert coord.unrecoverable  # E13: checkpoints died with the disk

    def test_prefetch_restore_falls_back_to_serial(self):
        """Regression: a transient quorum loss *during* the parallel
        chain prefetch used to mark the whole job unrecoverable even
        though the serial generation-fallback walk could still read
        every image.  The coordinator must retry serially per rank."""

        class FlakyPrefetchStore:
            """load_parallel always fails mid-fetch; every other call
            forwards to the real replicated service."""

            def __init__(self, inner):
                self._inner = inner
                self.parallel_attempts = 0

            def load_parallel(self, keys, now_ns):
                self.parallel_attempts += 1
                raise StorageLostError("quorum lost mid-prefetch")

            def __getattr__(self, name):
                return getattr(self._inner, name)

        cl = Cluster(n_nodes=2, n_spares=1, seed=7,
                     storage_servers=3, replication=2)
        flaky = FlakyPrefetchStore(cl.remote_storage)
        job = ParallelJob(cl, writer_factory(iterations=4000), n_ranks=2)
        mechs = {
            n.node_id: AutonomicCheckpointer(n.kernel, flaky)
            for n in cl.nodes
        }
        coord = CheckpointCoordinator(
            job, mechs, 30 * NS_PER_MS, restore_prefetch=True
        )
        coord.start()
        cl.engine.after(100 * NS_PER_MS, lambda: cl.fail_node(0))
        done = job.run_to_completion(limit_ns=120 * NS_PER_S)
        assert done
        assert flaky.parallel_attempts >= 1
        assert coord.prefetch_fallbacks >= 1
        assert coord.recoveries == 1
        assert not coord.unrecoverable

    def test_prefetch_restore_success_path_never_falls_back(self):
        cl = Cluster(n_nodes=2, n_spares=1, seed=7,
                     storage_servers=3, replication=2)
        job = ParallelJob(cl, writer_factory(iterations=4000), n_ranks=2)
        coord = CheckpointCoordinator(
            job, autockpt_mechs(cl), 30 * NS_PER_MS, restore_prefetch=True
        )
        coord.start()
        cl.engine.after(100 * NS_PER_MS, lambda: cl.fail_node(0))
        done = job.run_to_completion(limit_ns=120 * NS_PER_S)
        assert done
        assert coord.prefetch_fallbacks == 0
        assert coord.recoveries == 1

    def test_failure_before_first_wave_degenerates_to_scratch(self):
        cl = Cluster(n_nodes=2, n_spares=1, seed=7)
        job = ParallelJob(cl, writer_factory(iterations=2000), n_ranks=2)
        coord = CheckpointCoordinator(job, autockpt_mechs(cl), 10 * NS_PER_S)
        coord.start()
        cl.engine.after(10 * NS_PER_MS, lambda: cl.fail_node(0))
        done = job.run_to_completion(limit_ns=120 * NS_PER_S)
        assert done
        assert coord.recoveries == 0  # no wave to recover from
        assert job.restarts == 1


class TestBatchManager:
    def test_submit_and_protect(self):
        cl = Cluster(n_nodes=2, seed=9)
        mgr = BatchManager(cl, head_node_id=0)
        job = mgr.submit(
            writer_factory(iterations=3000),
            n_ranks=2,
            name="j1",
            mechanisms=autockpt_mechs(cl),
            checkpoint_interval_ns=40 * NS_PER_MS,
        )
        job.run_to_completion(limit_ns=60 * NS_PER_S)
        assert len(mgr.coordinators["j1"].waves) >= 1

    def test_admin_checkpoint_now(self):
        cl = Cluster(n_nodes=2, seed=9)
        mgr = BatchManager(cl)
        mgr.submit(
            writer_factory(iterations=50_000),
            n_ranks=2,
            name="j1",
            mechanisms=autockpt_mechs(cl),
            checkpoint_interval_ns=10 * NS_PER_S,
        )
        cl.run_for(10 * NS_PER_MS)
        reqs = mgr.checkpoint_now("j1")
        assert len(reqs) == 2
        cl.run_for(2 * NS_PER_S)
        assert all(r.completed_ns is not None for r in reqs)

    def test_drain_and_release_node(self):
        cl = Cluster(n_nodes=2, seed=9)
        mgr = BatchManager(cl)
        job = mgr.submit(
            writer_factory(iterations=50_000),
            n_ranks=2,
            name="j1",
            mechanisms=autockpt_mechs(cl),
            checkpoint_interval_ns=10 * NS_PER_S,
        )
        cl.run_for(10 * NS_PER_MS)
        reqs = mgr.drain_node_for_maintenance(1)
        assert reqs
        cl.run_for(2 * NS_PER_S)
        drained = [r for r in job.ranks if r.node.node_id == 1]
        assert all(r.task.state.value == "stopped" for r in drained)
        resumed = mgr.release_node(1)
        assert resumed == len(drained)

    def test_head_node_failure_disables_management(self):
        """The centralization weakness: no head node, no initiation."""
        cl = Cluster(n_nodes=2, seed=9)
        mgr = BatchManager(cl, head_node_id=0)
        mgr.submit(
            writer_factory(iterations=50_000),
            n_ranks=2,
            name="j1",
            mechanisms=autockpt_mechs(cl),
            checkpoint_interval_ns=10 * NS_PER_S,
        )
        cl.fail_node(0)
        with pytest.raises(ClusterError):
            mgr.checkpoint_now("j1")
