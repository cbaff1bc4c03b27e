"""Tests for the replicated stable-storage service (repro.stablestore)."""

from __future__ import annotations

import pytest

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.autonomic import AutonomicIntervalController, FailureRateEstimator
from repro.core.checkpointer import RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.errors import ClusterError, StorageError, StorageLostError
from repro.simkernel import Engine
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.stablestore import (
    ReplicatedStore,
    ReplicationRepairer,
    StorageCluster,
)
from repro.workloads import SparseWriter


def make_store(n=3, rf=2, **kw):
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=n)
    return engine, sc, ReplicatedStore(sc, replication=rf, **kw)


class TestPlacement:
    def test_candidates_deterministic_across_instances(self):
        _, _, a = make_store()
        _, _, b = make_store()
        for key in ("m/1/1", "m/1/2", "m/9/55"):
            assert [s.server_id for s in a.candidates(key)] == [
                s.server_id for s in b.candidates(key)
            ]

    def test_candidates_memoized_per_key_until_delete(self):
        _, sc, store = make_store(n=5)
        order = store.candidates("m/1/1")
        assert isinstance(order, tuple) and store.candidates("m/1/1") is order
        assert sorted(s.server_id for s in order) == [s.server_id for s in sc.servers]
        store.store("m/1/1", b"", 100, 0)
        assert store.candidates("m/1/1") is order
        store.delete("m/1/1")
        assert "m/1/1" not in store._candidates
        assert store.candidates("m/1/1") == order  # same rendezvous order

    def test_replicas_spread_over_servers(self):
        _, sc, store = make_store(n=3, rf=2)
        for i in range(30):
            store.store(f"m/{i}/1", b"", 100, 0)
        counts = [len(s.replicas) for s in sc.servers]
        assert all(c > 0 for c in counts)
        assert sum(counts) == 30 * 2

    def test_holders_in_preference_order(self):
        _, _, store = make_store()
        store.store("m/1/1", b"", 100, 0)
        pref = [s.server_id for s in store.candidates("m/1/1")]
        holders = store.holders("m/1/1")
        assert holders == pref[:2]

    def test_replication_factor_validated(self):
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=2)
        with pytest.raises(StorageError):
            ReplicatedStore(sc, replication=3)
        with pytest.raises(StorageError):
            ReplicatedStore(sc, replication=0)


class TestQuorumWrites:
    def test_store_places_rf_replicas_and_returns_quorum_delay(self):
        _, _, store = make_store(n=3, rf=2)
        delay = store.store("m/1/1", {"x": 1}, 1_000_000, 0)
        assert delay > 0
        assert store.replica_count("m/1/1") == 2
        assert store.stored_bytes() == 1_000_000
        assert store.physical_bytes() == 2_000_000

    def test_failed_server_costs_timeout_and_backoff_then_falls_through(self):
        _, sc, store = make_store(n=3, rf=2)
        preferred = [s.server_id for s in store.candidates("m/1/1")][0]
        sc.fail_server(preferred)
        delay = store.store("m/1/1", b"", 1_000_000, 0)
        assert store.write_retries == 1
        assert store.backoff_ns_total == store.backoff_base_ns
        assert delay > store.timeout_ns  # the detection timeout is paid
        # Sloppy quorum: still fully replicated, on the fallback server.
        assert store.replica_count("m/1/1") == 2
        assert preferred not in store.holders("m/1/1")

    def test_backoff_grows_exponentially_and_caps(self):
        _, sc, store = make_store(n=4, rf=1)
        for s in sc.servers[:]:
            sc.fail_server(s.server_id)
        with pytest.raises(StorageLostError):
            store.store("m/1/1", b"", 100, 0)
        assert store.write_retries == 4
        b = store.backoff_base_ns
        expected = 0
        for _ in range(4):
            expected += b
            b = min(int(b * store.backoff_factor), store.backoff_cap_ns)
        assert store.backoff_ns_total == expected

    def test_quorum_unreachable_raises_and_rolls_back(self):
        _, sc, store = make_store(n=3, rf=3, write_quorum=3)
        sc.fail_server(0)
        with pytest.raises(StorageLostError):
            store.store("m/1/1", b"", 100, 0)
        assert store.quorum_write_failures == 1
        # No orphan partial replicas outside the directory.
        assert all(not s.holds("m/1/1") for s in sc.servers)
        assert not store.exists("m/1/1")

    def test_refused_overwrite_keeps_existing_replicas(self):
        _, sc, store = make_store(n=3, rf=3, write_quorum=3)
        store.store("m/1/1", {"gen": 1}, 100, 0)
        failed = store.holders("m/1/1")[0]
        sc.fail_server(failed)
        with pytest.raises(StorageLostError):
            store.store("m/1/1", {"gen": 2}, 100, 0)
        # The refused write installed nothing, and it must not delete
        # the previous generation's replicas on the live servers either.
        assert store.holders("m/1/1") == [
            s.server_id for s in store.candidates("m/1/1") if s.server_id != failed
        ]
        assert store.load("m/1/1", 0)[0] == {"gen": 1}


class TestQuorumReads:
    def test_read_from_surviving_replica(self):
        _, sc, store = make_store(n=3, rf=2)
        store.store("m/1/1", {"x": 1}, 1_000_000, 0)
        sc.fail_server(store.holders("m/1/1")[0])
        obj, delay = store.load("m/1/1", 0)
        assert obj == {"x": 1}
        assert delay > 0

    def test_all_holders_down_raises_lost(self):
        _, sc, store = make_store(n=3, rf=2)
        store.store("m/1/1", b"img", 100, 0)
        for sid in store.holders("m/1/1"):
            sc.fail_server(sid)
        assert store.lost_keys() == ["m/1/1"]
        with pytest.raises(StorageLostError):
            store.load("m/1/1", 0)
        assert store.quorum_read_failures == 1

    def test_unknown_key_raises_storage_error(self):
        _, _, store = make_store()
        with pytest.raises(StorageError):
            store.load("nope", 0)
        with pytest.raises(StorageError):
            store.peek("nope")

    def test_exists_tracks_live_replicas(self):
        _, sc, store = make_store(n=3, rf=2)
        store.store("m/1/1", b"", 100, 0)
        assert store.exists("m/1/1")
        for sid in store.holders("m/1/1"):
            sc.fail_server(sid)
        assert not store.exists("m/1/1")


class TestLifecycle:
    def test_delete_is_idempotent_and_reaches_failed_servers(self):
        _, sc, store = make_store(n=3, rf=2)
        store.store("m/1/1", b"", 100, 0)
        downed = store.holders("m/1/1")[0]
        sc.fail_server(downed)
        store.delete("m/1/1")
        store.delete("m/1/1")  # no-op
        sc.server(downed).recover(data_survived=True)
        # Tombstone applied: the recovered server no longer serves it.
        assert store.replica_count("m/1/1") == 0
        assert not store.exists("m/1/1")

    def test_server_recovery_with_data_restores_replicas(self):
        _, sc, store = make_store(n=3, rf=2)
        store.store("m/1/1", b"", 100, 0)
        sid = store.holders("m/1/1")[0]
        sc.fail_server(sid)
        assert store.replica_count("m/1/1") == 1
        sc.server(sid).recover(data_survived=True)
        assert store.replica_count("m/1/1") == 2

    def test_server_recovery_without_data_loses_replicas(self):
        _, sc, store = make_store(n=3, rf=2)
        store.store("m/1/1", b"", 100, 0)
        sid = store.holders("m/1/1")[0]
        sc.fail_server(sid)
        sc.server(sid).recover(data_survived=False)
        assert store.replica_count("m/1/1") == 1
        assert store.under_replicated() == ["m/1/1"]


class TestRepairer:
    def test_rereplication_restores_target_factor(self):
        engine, sc, store = make_store(n=3, rf=2)
        rep = ReplicationRepairer(store, engine)
        store.store("m/1/1", b"img", 1_000_000, 0)
        sc.fail_server(store.holders("m/1/1")[0])
        assert store.under_replicated() == ["m/1/1"]
        engine.run(until_ns=500 * NS_PER_MS)
        assert store.under_replicated() == []
        assert store.replica_count("m/1/1") == 2
        assert rep.repairs_completed == 1
        assert rep.bytes_rereplicated == 1_000_000

    def test_repair_skips_deleted_keys(self):
        engine, sc, store = make_store(n=3, rf=2)
        rep = ReplicationRepairer(store, engine)
        store.store("m/1/1", b"img", 1_000_000, 0)
        sc.fail_server(store.holders("m/1/1")[0])
        # Delete while the repair copy is (about to be) in flight.
        engine.after(3 * NS_PER_MS, lambda: store.delete("m/1/1"))
        engine.run(until_ns=500 * NS_PER_MS)
        assert rep.repairs_completed == 0
        assert list(store.keys()) == []

    def test_nothing_to_do_when_no_replica_survives(self):
        engine, sc, store = make_store(n=2, rf=1)
        rep = ReplicationRepairer(store, engine)
        store.store("m/1/1", b"img", 100, 0)
        sc.fail_server(store.holders("m/1/1")[0])
        engine.run(until_ns=500 * NS_PER_MS)
        assert store.lost_keys() == ["m/1/1"]
        assert rep.repairs_completed == 0

    def test_stopped_repairer_stays_quiet(self):
        engine, sc, store = make_store(n=3, rf=2)
        rep = ReplicationRepairer(store, engine)
        rep.stop()
        store.store("m/1/1", b"img", 100, 0)
        sc.fail_server(store.holders("m/1/1")[0])
        engine.run(until_ns=500 * NS_PER_MS)
        assert store.under_replicated() == ["m/1/1"]


def wf(rank):
    return SparseWriter(
        iterations=1200, dirty_fraction=0.03, heap_bytes=256 * 1024,
        seed=rank, compute_ns=100_000,
    )


class TestClusterIntegration:
    def test_nodes_share_the_injected_service(self):
        cl = Cluster(n_nodes=2, n_spares=1, seed=5, storage_servers=3)
        assert isinstance(cl.remote_storage, ReplicatedStore)
        for node in cl.nodes:
            assert node.remote_storage is cl.remote_storage
        assert cl.storage_repairer is not None

    def test_default_cluster_keeps_monolithic_remote(self):
        cl = Cluster(n_nodes=1, seed=5)
        assert not isinstance(cl.remote_storage, ReplicatedStore)
        assert cl.node(0).remote_storage is cl.remote_storage
        with pytest.raises(ClusterError):
            cl.fail_storage_server(0)

    def test_chain_available_follows_delta_ancestry(self):
        cl = Cluster(n_nodes=1, seed=6, storage_servers=3, replication=1,
                     storage_repair=False)
        node = cl.node(0)
        mech = AutonomicCheckpointer(node.kernel, node.remote_storage)
        task = wf(0).spawn(node.kernel)
        mech.prepare_target(task)
        r1 = mech.request_checkpoint(task)
        cl.run_until(lambda: r1.state == RequestState.DONE, 20 * NS_PER_S)
        r2 = mech.request_checkpoint(task)
        cl.run_until(lambda: r2.state == RequestState.DONE, 20 * NS_PER_S)
        assert r2.image.parent_key == r1.key
        assert mech.chain_available(r2.key)
        # Losing the *base* breaks the delta's chain even though the
        # delta blob itself is still readable.
        cl.fail_storage_server(cl.remote_storage.holders(r1.key)[0])
        if cl.remote_storage.holders(r2.key):
            assert not mech.chain_available(r2.key)

    def test_capture_survives_write_quorum_loss(self):
        # With fewer than W servers up the wave fails gracefully: the
        # request is FAILED but the application keeps running.
        cl = Cluster(n_nodes=1, seed=7, storage_servers=3, replication=2,
                     storage_repair=False)
        node = cl.node(0)
        mech = AutonomicCheckpointer(node.kernel, node.remote_storage)
        task = wf(0).spawn(node.kernel)
        mech.prepare_target(task)
        cl.fail_storage_server(0)
        cl.fail_storage_server(1)
        cl.fail_storage_server(2)
        req = mech.request_checkpoint(task)
        node.kernel.run_until_exit(task, limit_ns=60 * NS_PER_S)
        assert req.state == RequestState.FAILED
        assert "stable-storage write failed" in (req.error or "")
        assert task.exit_code == 0

    def test_coordinated_job_survives_storage_failure_with_rf2(self):
        cl = Cluster(n_nodes=2, n_spares=1, seed=8, storage_servers=3,
                     replication=2)
        job = ParallelJob(cl, wf, n_ranks=2)
        mechs = {
            n.node_id: AutonomicCheckpointer(n.kernel, n.remote_storage)
            for n in cl.nodes
        }
        coord = CheckpointCoordinator(job, mechs, 20 * NS_PER_MS)
        coord.start()

        def fail_holder():
            if not coord.waves:
                cl.engine.after(10 * NS_PER_MS, fail_holder)
                return
            key = next(iter(coord.waves[-1].values()))[0]
            cl.fail_storage_server(cl.remote_storage.holders(key)[0])

        cl.engine.after(50 * NS_PER_MS, fail_holder)
        cl.engine.after(120 * NS_PER_MS, lambda: cl.fail_node(0))
        assert job.run_to_completion(limit_ns=120 * NS_PER_S)
        assert coord.recoveries >= 1
        assert not coord.unrecoverable
        assert cl.remote_storage.lost_keys() == []


class TestAutonomicStorageFeedback:
    def test_interval_widens_with_storage_latency(self):
        est = FailureRateEstimator(prior_mtbf_s=3600.0)
        quiet = AutonomicIntervalController(est)
        busy = AutonomicIntervalController(est)
        quiet.observe_storage_latency(10 * NS_PER_MS)
        busy.observe_storage_latency(1000 * NS_PER_MS)
        assert (
            busy.recommended_interval_s() > quiet.recommended_interval_s()
        )

    def test_contended_link_raises_observed_latency(self):
        _, _, store = make_store(n=3, rf=2)
        first = store.store("c/0/1", b"", 4 * 1024 * 1024, 0)
        last = first
        for i in range(1, 8):
            last = store.store(f"c/{i}/1", b"", 4 * 1024 * 1024, 0)
        assert last > first  # queued behind earlier writes on the link

