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

from fleet_oracle import ScanFleet
from partition_oracle import shard_ranges
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
    trial_first_failure_s,
)
from repro.cluster import machine
from repro.cluster.shardfleet import _BLOCK, _NEVER
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
# The transition index against the full-scan oracle
# ----------------------------------------------------------------------
def _recorder(calls):
    return lambda ids, ts: calls.append((ids.tolist(), ts.tolist()))


class _Pair:
    """The indexed fleet and the scan oracle, each on its own engine,
    with the ``on_fail`` calls each one made."""

    def __init__(self, fleets, calls):
        self.fleets, self.calls = fleets, calls

    @classmethod
    def over(cls, lo, n, model, repair_s):
        calls = [[], []]
        return cls([kind(Engine(seed=1), lo, lo + n, model(),
                         repair_s=repair_s, on_fail=_recorder(log))
                    for kind, log in zip((ShardFleet, ScanFleet), calls)],
                   calls)

    def do(self, fn):
        for fleet in self.fleets:
            fn(fleet)
        self.check()

    def step(self):
        self.do(lambda f: f.engine.run(max_events=1))

    def check(self):
        a, b = self.fleets
        assert self.calls[0] == self.calls[1]
        for ids, _ in self.calls[0]:
            assert ids == sorted(ids)
        for name in ("draw_count", "fail_at_ns", "repair_at_ns", "down",
                     "detached"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.next_transition_ns() == b.next_transition_ns()

        def state(f):
            return (f.failures, f.repairs, f.downtime_ns,
                    f.first_failure_ns, f.up_count(), f.engine.now_ns,
                    f.engine.pending(), f.engine.metrics.counters())

        assert state(a) == state(b)
        # Each block minimum is its lanes' earliest transition.
        lanes = np.minimum(a._fail, a._repair).reshape(-1, _BLOCK)
        assert np.array_equal(a._block_min, lanes.min(axis=1))


class TestTransitionIndex:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        n=st.one_of(st.sampled_from([1, _BLOCK - 1, _BLOCK, 2 * _BLOCK]),
                    st.integers(min_value=1, max_value=4 * _BLOCK + 3)),
        lo=st.integers(min_value=0, max_value=5_000),
        weibull=st.booleans(),
        node_mtbf_per_node_s=st.sampled_from([0.5, 10.0]),
        repair_s=st.sampled_from([0.0, 3.0, 40.0]),
        seed=st.integers(min_value=0, max_value=2**32),
        detach=st.lists(st.integers(min_value=0, max_value=10**6),
                        max_size=8),
        detach_at=st.integers(min_value=-1, max_value=40),
        pause_at=st.integers(min_value=-1, max_value=40),
        gap_s=st.sampled_from([1.0, 30.0, 500.0]),
        steps=st.integers(min_value=1, max_value=60),
    )
    def test_indexed_dispatch_matches_the_scan(
            self, n, lo, weibull, node_mtbf_per_node_s, repair_s, seed,
            detach, detach_at, pause_at, gap_s, steps):
        mtbf_s = n * node_mtbf_per_node_s
        if weibull:
            def model():
                return WeibullFailures(mtbf_s, shape=0.7, stream_seed=seed)
        else:
            def model():
                return ExponentialFailures(mtbf_s, stream_seed=seed)
        pair = _Pair.over(lo, n, model, repair_s)
        pair.check()
        ids = sorted({lo + d % n for d in detach})
        if detach_at == -1:
            pair.do(lambda f: f.detach(ids))
        pair.do(lambda f: f.start())
        for step in range(steps):
            if step == detach_at:
                pair.do(lambda f: f.detach(ids))
            if step == pause_at:
                # Stopped while the engine advances: on restart every
                # transition in the gap is in the past (the t < now
                # re-arm) and lands in one dispatch.
                pair.do(lambda f: f.stop())
                pair.do(lambda f: f.engine.run(
                    until_ns=f.engine.now_ns + int(gap_s * NS_PER_S)))
                pair.do(lambda f: f.start())
            pair.step()

    def test_repaired_node_fails_again_in_the_same_dispatch(self):
        n = 3 * _BLOCK + 17
        pair = _Pair.over(0, n, lambda: ExponentialFailures(2.0, stream_seed=4),
                          repair_s=1.0)
        fleet = pair.fleets[0]
        pair.do(lambda f: f.start())
        while fleet.engine.now_ns < 2 * NS_PER_S:
            pair.step()
        assert fleet.down.any()
        pair.do(lambda f: f.stop())
        pair.do(lambda f: f.engine.run(until_ns=100 * NS_PER_S))
        was_down = fleet.down.copy()
        repairs, failures = fleet.repairs, fleet.failures
        pair.do(lambda f: f.start())
        pair.step()  # the one catch-up dispatch at now
        assert fleet.engine.now_ns == 100 * NS_PER_S
        assert fleet.repairs - repairs == int(was_down.sum())
        again = was_down & fleet.down
        assert again.any()  # repaired, redrawn into the past, failed
        assert fleet.failures - failures >= int(again.sum())
        for _ in range(50):
            pair.step()

    def test_dispatch_after_detach_emptied_every_due_block_rearms(self):
        n = 3 * _BLOCK + 5
        pair = _Pair.over(100, n, lambda: ExponentialFailures(
            500.0, stream_seed=6), repair_s=10.0)
        fleet = pair.fleets[0]
        pair.do(lambda f: f.start())
        t = fleet.next_transition_ns()
        first = 100 + int(np.flatnonzero(fleet.fail_at_ns == t)[0])
        # The dispatcher stays armed for t, but no block is due then.
        pair.do(lambda f: f.detach([first]))
        assert fleet.next_transition_ns() > t
        pair.step()
        assert fleet.engine.now_ns == t
        assert fleet.failures == 0 and pair.calls[0] == []
        assert fleet.engine.pending() == 1  # re-armed for the next one
        for _ in range(20):
            pair.step()
        assert fleet.failures > 0

    def test_detach_of_every_node_drains_the_index(self):
        pair = _Pair.over(0, 2 * _BLOCK + 1,
                          lambda: ExponentialFailures(50.0, stream_seed=2),
                          repair_s=5.0)
        pair.do(lambda f: f.start())
        for _ in range(30):
            pair.step()
        pair.do(lambda f: f.detach(range(2 * _BLOCK + 1)))
        assert pair.fleets[0].next_transition_ns() == _NEVER
        pair.step()  # the armed dispatch fires on an empty index
        pair.step()
        assert pair.fleets[0].engine.pending() == 0

    def test_lazy_cluster_materializing_mid_run_matches_the_scan(
            self, monkeypatch):
        n = 3 * _BLOCK + 9

        def build(kind, calls):
            monkeypatch.setattr(machine, "ShardFleet", kind)
            c = Cluster(n_nodes=n, n_spares=1, seed=3, lazy_nodes=True)
            c.node(4)  # materialized before the fleet attaches
            fleet = c.attach_fleet(
                ExponentialFailures(20.0 * n, stream_seed=8), repair_s=15.0)
            fleet.on_fail = _recorder(calls)
            return c, fleet

        calls = [[], []]
        (ca, a), (cb, b) = build(ShardFleet, calls[0]), build(ScanFleet,
                                                              calls[1])
        assert isinstance(b, ScanFleet) and not isinstance(a, ScanFleet)
        pair = _Pair([a, b], calls)
        for step in range(150):
            if step % 20 == 10:
                # Materialize the node due next: its block empties or
                # shrinks while the dispatcher is armed for it.
                nxt = np.minimum(b.fail_at_ns, b.repair_at_ns)
                node = int(np.argmin(nxt))
                ca.node(node)
                cb.node(node)
                pair.check()
            pair.step()
        assert a.failures > 0
        assert ca.materialized_nodes() == cb.materialized_nodes() > 5


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
        assert c.engine.metrics.counters().get("node_failures", 0) == 0

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
