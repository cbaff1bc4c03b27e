"""Tests for shard partitioning, counter-based per-node RNG streams,
and the one failure cohort (ShardFleet), alone and on a lazy cluster.

The invariant everything here serves: partitioning a fleet across
shards must not change *any* drawn value or transition time, because
the parallel engine's byte-identity gate rests on it -- and a cohort on
one engine is just the one-shard case of the same fleet.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ExponentialFailures,
    FailureModel,
    ParallelJob,
    ShardFleet,
    WeibullFailures,
    indexed_uniforms,
    shard_of,
    shard_range,
    shard_ranges,
    trial_first_failure_s,
)
from repro.cluster.shardfleet import _NEVER
from repro.errors import ClusterError
from repro.runner import run_parallel
from repro.simkernel import Engine
from repro.simkernel.costs import NS_PER_S
from repro.workloads import SparseWriter


# ----------------------------------------------------------------------
# Contiguous balanced partitioning
# ----------------------------------------------------------------------
class TestPartition:
    @settings(deadline=None, max_examples=60)
    @given(n_items=st.integers(min_value=1, max_value=5000),
           n_shards=st.integers(min_value=1, max_value=64))
    def test_ranges_cover_disjointly_and_balance(self, n_items, n_shards):
        if n_items < n_shards:
            with pytest.raises(ClusterError):
                shard_ranges(n_items, n_shards)
            return
        ranges = shard_ranges(n_items, n_shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_items
        sizes = []
        for k, (lo, hi) in enumerate(ranges):
            if k:
                assert lo == ranges[k - 1][1]  # contiguous, no gaps
            sizes.append(hi - lo)
            # O(1) accessor agrees with the enumeration.
            assert shard_range(k, n_items, n_shards) == (lo, hi)
        assert max(sizes) - min(sizes) <= 1

    @settings(deadline=None, max_examples=60)
    @given(n_items=st.integers(min_value=1, max_value=5000),
           n_shards=st.integers(min_value=1, max_value=64),
           data=st.data())
    def test_shard_of_inverts_ranges(self, n_items, n_shards, data):
        if n_items < n_shards:
            return
        item = data.draw(st.integers(min_value=0, max_value=n_items - 1))
        k = shard_of(item, n_items, n_shards)
        lo, hi = shard_range(k, n_items, n_shards)
        assert lo <= item < hi

    def test_out_of_range_rejected(self):
        with pytest.raises(ClusterError):
            shard_range(3, 10, 3)
        with pytest.raises(ClusterError):
            shard_of(10, 10, 3)
        with pytest.raises(ClusterError):
            shard_ranges(10, 0)


# ----------------------------------------------------------------------
# Counter-based per-node streams
# ----------------------------------------------------------------------
class TestIndexedStreams:
    def test_pure_function_of_seed_node_index(self):
        ids = np.arange(0, 64, dtype=np.int64)
        idx = np.zeros(64, dtype=np.int64)
        a = indexed_uniforms(99, ids, idx)
        b = indexed_uniforms(99, ids, idx)
        assert np.array_equal(a, b)
        assert ((a >= 0) & (a < 1)).all()
        # Seed, node and draw index each perturb the value.
        assert not np.array_equal(a, indexed_uniforms(100, ids, idx))
        assert not np.array_equal(a, indexed_uniforms(99, ids, idx + 1))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=2**63),
           n=st.integers(min_value=2, max_value=512),
           n_shards=st.integers(min_value=1, max_value=8))
    def test_partition_invariance(self, seed, n, n_shards):
        """Concatenating per-shard draws equals the single-range draw --
        the property the whole parallel engine rests on."""
        if n < n_shards:
            return
        ids = np.arange(0, n, dtype=np.int64)
        idx = np.zeros(n, dtype=np.int64)
        whole = indexed_uniforms(seed, ids, idx)
        parts = [
            indexed_uniforms(seed, np.arange(lo, hi, dtype=np.int64),
                             np.zeros(hi - lo, dtype=np.int64))
            for lo, hi in shard_ranges(n, n_shards)
        ]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_indexed_draws_follow_the_distributions(self):
        ids = np.arange(0, 20000, dtype=np.int64)
        idx = np.zeros(ids.size, dtype=np.int64)
        exp = ExponentialFailures(50.0, stream_seed=7)
        samples = exp.draw_ttf_indexed(ids, idx)
        assert (samples > 0).all()
        assert samples.mean() == pytest.approx(50.0, rel=0.05)
        wei = WeibullFailures(50.0, shape=0.7, stream_seed=7)
        samples = wei.draw_ttf_indexed(ids, idx)
        assert (samples > 0).all()
        assert samples.mean() == pytest.approx(50.0, rel=0.05)

    def test_trial_first_failures_agree_with_analytic_mtbf(self):
        """Mean time to first failure over many trials lies within 15%
        of node_mtbf / n."""
        n, mtbf = 64, 500.0
        model = ExponentialFailures(mtbf, stream_seed=3)
        draws = [trial_first_failure_s(model, 0, n, t) for t in range(300)]
        assert abs(np.mean(draws) - mtbf / n) / (mtbf / n) < 0.15

    def test_trial_first_failure_min_folds_across_shards(self):
        model = ExponentialFailures(1000.0, stream_seed=11)
        whole = trial_first_failure_s(model, 0, 300, trial=4)
        parts = [trial_first_failure_s(model, lo, hi, trial=4)
                 for lo, hi in shard_ranges(300, 7)]
        assert min(parts) == whole


# ----------------------------------------------------------------------
# ShardFleet dispatcher
# ----------------------------------------------------------------------
def run_fleet(lo, hi, seed=5, horizon_s=2000.0, **kw):
    eng = Engine(seed=1)
    fleet = ShardFleet(eng, lo, hi,
                       ExponentialFailures(300.0, stream_seed=seed),
                       repair_s=kw.pop("repair_s", 50.0), **kw)
    fleet.start()
    eng.run(until_ns=int(horizon_s * NS_PER_S))
    return fleet


class TestShardFleet:
    def test_rejects_bad_parameters(self):
        eng = Engine(seed=1)
        with pytest.raises(ClusterError, match="non-empty"):
            ShardFleet(eng, 4, 4, ExponentialFailures(100.0, stream_seed=1))
        with pytest.raises(ClusterError, match="negative"):
            ShardFleet(eng, 0, 4, ExponentialFailures(10.0), repair_s=-1.0)

    def test_requires_indexed_model_and_nonempty_range(self):
        eng = Engine(seed=1)
        with pytest.raises(NotImplementedError):
            ShardFleet(eng, 0, 4, FailureModel())
        with pytest.raises(ClusterError, match="non-empty"):
            ShardFleet(eng, 4, 2, ExponentialFailures(100.0))

    def test_transitions_match_union_of_subranges(self):
        """A [0, n) fleet and per-shard [lo, hi) fleets driven on
        separate engines replay identical per-node failure counts."""
        whole = run_fleet(0, 60)
        parts = [run_fleet(lo, hi) for lo, hi in shard_ranges(60, 4)]
        assert sum(f.failures for f in parts) == whole.failures
        assert sum(f.repairs for f in parts) == whole.repairs
        assert min(f.first_failure_ns for f in parts) == whole.first_failure_ns
        whole_counts = np.concatenate([f.draw_count for f in parts])
        assert np.array_equal(whole_counts, whole.draw_count)

    def test_downtime_accounting_is_exact(self):
        fleet = run_fleet(0, 32, repair_s=50.0)
        assert fleet.repairs > 0
        assert fleet.downtime_ns == fleet.repairs * 50 * NS_PER_S

    def test_repair_cycle_and_accounting(self):
        fleet = run_fleet(0, 16, horizon_s=300.0, repair_s=5.0)
        assert 0 < fleet.repairs <= fleet.failures
        assert fleet.downtime_ns == fleet.repairs * fleet.repair_ns
        down = fleet.failures - fleet.repairs
        assert int(fleet.down.sum()) == down
        assert fleet.up_count() == 16 - down
        assert fleet.first_failure_ns is not None

    def test_same_seed_runs_are_identical(self):
        def run():
            fleet = run_fleet(0, 64, seed=11, horizon_s=200.0, repair_s=10.0)
            return (fleet.failures, fleet.repairs, fleet.first_failure_ns,
                    fleet.draw_count.tolist(), fleet.fail_at_ns.tolist())

        assert run() == run()

    def test_detach_stops_managing_nodes(self):
        eng = Engine(seed=1)
        failed = set()
        fleet = ShardFleet(eng, 8, 16,
                           ExponentialFailures(10.0, stream_seed=1),
                           repair_s=1.0,
                           on_fail=lambda ids, _: failed.update(ids.tolist()))
        fleet.detach([9, 12])
        fleet.start()
        eng.run(until_ns=100 * NS_PER_S)
        assert failed == set(range(8, 16)) - {9, 12}
        fleet.detach(range(8, 16))
        assert fleet.up_count() == 0
        assert fleet.next_transition_ns() == _NEVER
        eng.run(until_ns=200 * NS_PER_S)
        assert eng.pending() == 0

    def test_on_fail_sees_global_ids_and_exact_times(self):
        eng = Engine(seed=1)
        seen = []
        fleet = ShardFleet(
            eng, 100, 132, ExponentialFailures(200.0, stream_seed=3),
            repair_s=25.0,
            on_fail=lambda ids, times: seen.append(
                (ids.copy(), times.copy())),
        )
        fleet.start()
        eng.run(until_ns=1000 * NS_PER_S)
        assert seen
        for ids, times in seen:
            assert ((ids >= 100) & (ids < 132)).all()
            assert (times <= eng.now_ns).all()
        assert sum(len(ids) for ids, _ in seen) == fleet.failures

    def test_stop_freezes_transitions(self):
        eng = Engine(seed=1)
        fleet = ShardFleet(eng, 0, 16,
                           ExponentialFailures(10.0, stream_seed=2),
                           repair_s=1.0)
        fleet.start()
        eng.run(until_ns=50 * NS_PER_S)
        frozen = fleet.failures
        fleet.stop()
        eng.run(until_ns=500 * NS_PER_S)
        assert fleet.failures == frozen

    def test_counters_reach_the_registry(self):
        eng = Engine(seed=1)
        fleet = ShardFleet(eng, 0, 24,
                           ExponentialFailures(100.0, stream_seed=9),
                           repair_s=20.0)
        fleet.start()
        eng.run(until_ns=1000 * NS_PER_S)
        counters = eng.metrics.to_dict()["counters"]
        assert counters["fleet.failures"] == fleet.failures
        assert counters["fleet.repairs"] == fleet.repairs

    def test_next_transition_never_when_drained(self):
        eng = Engine(seed=1)
        fleet = ShardFleet(eng, 0, 4,
                           ExponentialFailures(1e15, stream_seed=1),
                           repair_s=1.0)
        # Enormous MTBF: every fail_at saturates at the horizon cap,
        # but none is _NEVER (nodes are up, not detached).
        assert fleet.next_transition_ns() < _NEVER


# ----------------------------------------------------------------------
# The cohort on a cluster
# ----------------------------------------------------------------------
def _writer(r):
    return SparseWriter(iterations=2_000, dirty_fraction=0.05,
                        heap_bytes=64 * 1024, seed=r)


class TestClusterFleet:
    def test_lazy_cluster_fleet_churn_with_job(self):
        c = Cluster(n_nodes=65_536, seed=0, lazy_nodes=True)
        job = ParallelJob(c, _writer, n_ranks=4, node_ids=[0, 1, 2, 3])
        fleet = c.attach_fleet(ExponentialFailures(3600.0, stream_seed=2),
                               repair_s=300.0)
        # The job's nodes were already materialized, so the cohort must
        # not drive them.
        assert bool(fleet.detached[:4].all())
        assert not fleet.detached[4:].any()
        assert job.run_to_completion(limit_ns=int(3600 * NS_PER_S))
        assert fleet.failures > 0
        # Statistical failures did not materialize machines.
        assert c.materialized_nodes() == 4
        assert c.engine.counters.get("node_failures", 0) == 0

    def test_nodes_materialized_later_detach(self):
        c = Cluster(n_nodes=64, n_spares=2, seed=0, lazy_nodes=True)
        fleet = c.attach_fleet(ExponentialFailures(100.0, stream_seed=3))
        c.node(5)
        c.node(64)  # a spare, beyond the cohort
        assert np.flatnonzero(fleet.detached).tolist() == [5]
        assert fleet.up_count() == 63

    def test_attach_fleet_twice_rejected(self):
        c = Cluster(n_nodes=8, seed=0, lazy_nodes=True)
        c.attach_fleet(ExponentialFailures(100.0))
        with pytest.raises(ClusterError, match="already"):
            c.attach_fleet(ExponentialFailures(100.0))

    def test_attach_fleet_on_eager_cluster_rejected(self):
        c = Cluster(n_nodes=8, seed=0)
        with pytest.raises(ClusterError, match="lazy"):
            c.attach_fleet(ExponentialFailures(100.0))
        assert c.fleet is None

    def test_schedule_failures_identical_on_lazy_and_eager_clusters(self):
        def failures(lazy):
            c = Cluster(n_nodes=64, seed=5, lazy_nodes=lazy)
            seen = []
            c.on_failure(lambda n: seen.append((c.engine.now_ns, n.node_id)))
            assert c.schedule_failures(
                ExponentialFailures(100.0, stream_seed=9),
                horizon_s=60.0) > 0
            c.engine.run(until_ns=int(3600 * NS_PER_S))
            return seen

        eager = failures(False)
        assert eager and eager == failures(True)

    def test_schedule_failures_arms_the_fleets_first_draw(self):
        """Per-node scheduling and the cohort arm the same draw 0 of
        each node's stream, so first failures land at the same times."""
        n = 32
        c = Cluster(n_nodes=n, seed=9)
        seen = []
        c.on_failure(lambda node: seen.append((c.engine.now_ns,
                                               node.node_id)))
        c.schedule_failures(ExponentialFailures(200.0, stream_seed=77))
        c.engine.run(until_ns=int(3600 * NS_PER_S))

        eng = Engine(seed=9)
        observed = []
        fleet = ShardFleet(
            eng, 0, n, ExponentialFailures(200.0, stream_seed=77),
            repair_s=1e9,  # effectively no repair/re-arm
            on_fail=lambda ids, ts: observed.extend(
                zip(ts.tolist(), ids.tolist())))
        fleet.start()
        eng.run(until_ns=int(3600 * NS_PER_S))
        assert seen
        assert sorted(observed) == sorted(seen)

    def test_lazy_cluster_fleet_matches_sharded_fleet_storm(self):
        """The cohort a lazy cluster attaches and the 4-shard
        ``fleet_storm`` scenario are one fleet: same node count, seed,
        repair time and horizon give the same failures, repairs and
        first failure."""
        n, mtbf_s, repair_s, seed = 2_000, 400.0, 30.0, 7
        # 1,500 s plus an odd nanosecond: no transition lands on it.
        horizon_ns = 1_500 * NS_PER_S + 7
        c = Cluster(n_nodes=n, seed=seed, lazy_nodes=True)
        fleet = c.attach_fleet(
            ExponentialFailures(mtbf_s, stream_seed=seed), repair_s=repair_s)
        c.engine.run(until_ns=horizon_ns)

        res = run_parallel(
            "repro.cluster.scenarios:fleet_storm",
            {"n_nodes": n, "mtbf_s": mtbf_s, "repair_s": repair_s},
            seed, n_shards=4, horizon_ns=horizon_ns)
        shards = res.shard_results
        assert fleet.failures > fleet.repairs > 0
        assert fleet.failures == sum(r["failures"] for r in shards)
        assert fleet.repairs == sum(r["repairs"] for r in shards)
        assert fleet.first_failure_ns == min(
            r["first_failure_ns"] for r in shards)
        assert c.materialized_nodes() == 0
