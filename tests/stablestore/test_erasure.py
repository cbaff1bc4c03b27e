"""Tests for the Reed-Solomon erasure-coded store (repro.stablestore.erasure)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError, StorageLostError
from repro.simkernel import Engine
from repro.stablestore import (
    ErasureRepairer,
    ErasureStore,
    ReplicatedStore,
    Shard,
    StorageCluster,
    WritebackPipeline,
    rs_decode,
    rs_encode,
    rs_rebuild_shards,
)

COMMON = dict(deadline=None, max_examples=40)


def make_store(n=8, k=4, m=2, **kw):
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=n)
    return engine, sc, ErasureStore(sc, data_shards=k, parity_shards=m, **kw)


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_systematic_data_shards_are_payload_slices(self):
        payload = bytes(range(200))
        shards = rs_encode(payload, 4, 2)
        assert b"".join(shards[:4])[:200] == payload

    def test_every_shard_same_length(self):
        shards = rs_encode(b"x" * 1001, 4, 2)
        assert {len(s) for s in shards} == {251}

    def test_empty_payload_roundtrips(self):
        shards = rs_encode(b"", 3, 2)
        assert rs_decode(dict(enumerate(shards)), 3, 2, 0) == b""

    def test_too_few_shards_rejected(self):
        shards = rs_encode(b"abcdef", 3, 2)
        with pytest.raises(StorageError, match="need 3 shards"):
            rs_decode({0: shards[0], 1: shards[1]}, 3, 2, 6)

    def test_rebuild_reproduces_every_shard(self):
        payload = bytes(range(256)) * 3
        k, m = 4, 2
        shards = rs_encode(payload, k, m)
        for lost in range(k + m):
            rest = {i: s for i, s in enumerate(shards) if i != lost}
            rebuilt = rs_rebuild_shards(rest, k, m, [lost], len(payload))
            assert rebuilt == {lost: shards[lost]}

    def test_bad_km_rejected(self):
        with pytest.raises(StorageError):
            rs_encode(b"x", 0, 2)
        with pytest.raises(StorageError):
            rs_encode(b"x", 200, 100)

    def test_all_k_subsets_reconstruct_exhaustively(self):
        """The MDS property, exhaustively for a small code."""
        payload = b"the quick brown fox jumps over the lazy dog"
        k, m = 3, 3
        shards = rs_encode(payload, k, m)
        for combo in itertools.combinations(range(k + m), k):
            sub = {i: shards[i] for i in combo}
            assert rs_decode(sub, k, m, len(payload)) == payload


@settings(**COMMON)
@given(
    payload=st.binary(min_size=0, max_size=2048),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_any_k_of_km_shards_reconstruct_byte_identically(payload, k, m, data):
    """Property: any k-subset of the k+m shards decodes to the payload."""
    shards = rs_encode(payload, k, m)
    assert len(shards) == k + m
    subset = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=k + m - 1),
            min_size=k, max_size=k, unique=True,
        )
    )
    out = rs_decode({i: shards[i] for i in subset}, k, m, len(payload))
    assert out == payload


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestErasureStore:
    def test_roundtrip_bytes(self):
        _, _, store = make_store()
        payload = bytes(range(256)) * 8
        delay = store.store("m/1/1", payload, len(payload), 0)
        assert delay > 0
        obj, rdelay = store.load("m/1/1", delay)
        assert obj == payload
        assert rdelay > 0

    def test_roundtrip_uint8_array(self):
        _, _, store = make_store()
        arr = np.arange(1000, dtype=np.uint8)
        store.store("m/1/1", arr, arr.nbytes, 0)
        obj, _ = store.load("m/1/1", 0)
        assert isinstance(obj, np.ndarray)
        assert np.array_equal(obj, arr)

    def test_opaque_objects_keep_identity(self):
        _, _, store = make_store()
        obj = {"image": object()}
        store.store("m/1/1", obj, 4096, 0)
        got, _ = store.load("m/1/1", 0)
        assert got is obj

    def test_full_stripe_placed_on_distinct_servers(self):
        _, _, store = make_store(n=8, k=4, m=2)
        store.store("m/1/1", b"x" * 400, 400, 0)
        holders = store.shard_holders("m/1/1")
        assert sorted(holders) == list(range(6))
        assert len({s.server_id for s in holders.values()}) == 6

    def test_physical_bytes_ratio_is_km_over_k(self):
        _, _, store = make_store(n=8, k=4, m=2)
        store.store("m/1/1", b"x" * 4000, 4000, 0)
        assert store.physical_bytes() == 6 * 1000  # (k+m) * ceil(n/k)
        assert store.stored_bytes() == 4000

    def test_survives_any_m_failures(self):
        payload = bytes(range(256)) * 4
        for down in itertools.combinations(range(6), 2):
            _, sc, store = make_store(n=6, k=4, m=2)
            store.store("m/1/1", payload, len(payload), 0)
            for sid in down:
                sc.fail_server(sid)
            obj, _ = store.load("m/1/1", 0)
            assert obj == payload, f"lost with servers {down} down"

    def test_degraded_read_counted_only_when_parity_used(self):
        _, sc, store = make_store(n=6, k=4, m=2)
        store.store("m/1/1", b"y" * 800, 800, 0)
        store.load("m/1/1", 0)
        assert store.degraded_reads == 0
        # Kill a *data* shard holder: the read must recruit parity.
        sc.fail_server(store.shard_holders("m/1/1")[0].server_id)
        obj, _ = store.load("m/1/1", 0)
        assert obj == b"y" * 800
        assert store.degraded_reads == 1

    def test_more_than_m_failures_lose_the_blob(self):
        _, sc, store = make_store(n=6, k=4, m=2)
        store.store("m/1/1", b"z" * 600, 600, 0)
        for idx in (0, 1, 2):
            sc.fail_server(store.shard_holders("m/1/1")[idx].server_id)
        assert store.lost_keys() == ["m/1/1"]
        assert not store.exists("m/1/1")
        with pytest.raises(StorageLostError):
            store.load("m/1/1", 0)
        assert store.quorum_read_failures == 1

    def test_write_fails_without_enough_servers(self):
        _, sc, store = make_store(n=6, k=4, m=2)
        sc.fail_server(0)
        with pytest.raises(StorageLostError):
            store.store("m/1/1", b"x", 100, 0)
        assert store.quorum_write_failures == 1

    def test_relaxed_write_shards_tolerates_down_server(self):
        _, sc, store = make_store(n=6, k=4, m=2, write_shards=5)
        sc.fail_server(0)
        store.store("m/1/1", b"x" * 500, 500, 0)
        assert store.shard_count("m/1/1") == 5
        assert store.under_replicated() == ["m/1/1"]

    def test_code_wider_than_cluster_rejected(self):
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=4)
        with pytest.raises(StorageError, match="at least 6 servers"):
            ErasureStore(sc, data_shards=4, parity_shards=2)

    def test_retry_walk_charges_penalty(self):
        _, sc, store = make_store(n=8, k=4, m=2)
        base = store.store("m/1/1", b"x" * 100, 100, 0)
        pref = store.candidates("m/1/2")
        sc.fail_server(pref[0].server_id)
        slow = store.store("m/1/2", b"x" * 100, 100, 0)
        assert slow > base
        assert store.write_retries == 1

    def test_peek_reconstructs_without_io(self):
        engine, _, store = make_store()
        payload = b"peekable" * 50
        store.store("m/1/1", payload, len(payload), 0)
        before = store.bytes_read
        assert store.peek("m/1/1") == payload
        assert store.bytes_read == before

    def test_delete_drops_all_shards(self):
        _, sc, store = make_store()
        store.store("m/1/1", b"x" * 100, 100, 0)
        store.delete("m/1/1")
        assert not store.exists("m/1/1")
        assert store.physical_bytes() == 0
        assert all(not s.replicas for s in sc.servers)

    def test_shares_cluster_with_replicated_store(self):
        """Shard entries must never clobber whole-object replicas of
        the same key on a shared cluster (namespaced server keys)."""
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=6)
        rep = ReplicatedStore(sc, replication=2)
        ers = ErasureStore(sc, data_shards=4, parity_shards=2)
        payload = b"shared" * 100
        rep.store("m/1/1", payload, len(payload), 0)
        ers.store("m/1/1", payload, len(payload), 0)
        got_r, _ = rep.load("m/1/1", 0)
        got_e, _ = ers.load("m/1/1", 0)
        assert got_r == payload
        assert got_e == payload
        assert ers.physical_bytes() == 6 * 150  # shards only, not replicas


# ----------------------------------------------------------------------
# The write stream
# ----------------------------------------------------------------------
class TestErasureWriteStream:
    def test_stream_commit_publishes_and_roundtrips(self):
        _, _, store = make_store()
        payload = bytes(range(256)) * 16
        ws = store.open_stream("m/1/1", 0)
        d1 = ws.send(1024, 0)
        assert d1 > 0
        assert not store.exists("m/1/1")  # visible only at commit
        ws.commit(payload, len(payload), d1)
        obj, _ = store.load("m/1/1", d1)
        assert obj == payload

    def test_stream_traffic_matches_monolithic_store(self):
        _, _, a = make_store()
        _, _, b = make_store()
        payload = b"q" * 8192
        a.store("m/1/1", payload, len(payload), 0)
        ws = b.open_stream("m/1/1", 0)
        ws.send(4096, 0)
        ws.commit(payload, len(payload), 0)
        assert a.bytes_written == b.bytes_written

    def test_stream_fails_when_pinned_quorum_lost(self):
        _, sc, store = make_store(n=6, k=4, m=2)
        ws = store.open_stream("m/1/1", 0)
        sc.fail_server(ws.servers[0].server_id)
        with pytest.raises(StorageLostError, match="mid-stream"):
            ws.send(100, 0)

    def test_writeback_pipeline_composes(self):
        from types import SimpleNamespace

        engine, _, store = make_store()
        pipe = WritebackPipeline(store, engine, "m/1/1", depth=4)
        payload = b"p" * 4096
        for _ in range(4):
            pipe.submit(SimpleNamespace(nbytes=1024))
        pipe.commit(payload, len(payload))
        engine.run(until_ns=engine.now_ns + 10**9)
        obj, _ = store.load("m/1/1", engine.now_ns)
        assert obj == payload


# ----------------------------------------------------------------------
# Shard repair
# ----------------------------------------------------------------------
def _fresh_scans(store, sc):
    """(under_replicated, lost_keys) recomputed from scratch: the distinct
    shard indexes each key has on the cluster's up servers."""
    counts = [
        (key, len({
            server.replicas[key + "#ec"][0].index
            for server in sc.servers
            if server.up and key + "#ec" in server.replicas
            and isinstance(server.replicas[key + "#ec"][0], Shard)
        }))
        for key in sorted(store.keys())
    ]
    full = store.k + store.m
    return ([key for key, n in counts if store.k <= n < full],
            [key for key, n in counts if n < store.k])


class TestRepairScan:
    def test_scan_matches_fresh_holder_maps_after_every_event(self):
        engine, sc, store = make_store(n=8, k=4, m=2)
        rep = ErasureRepairer(store, engine)

        def check():
            assert (store.under_replicated(), store.lost_keys()) == _fresh_scans(store, sc)

        for i in range(5):
            store.store(f"m/{i}/1", bytes([i]) * 900, 900, engine.now_ns)
            check()
        # A whole-object replica sharing the cluster is not a shard.
        ReplicatedStore(sc).store("m/0/1", b"r" * 10, 10, engine.now_ns)
        check()
        first, second = store.shard_holders("m/0/1")[0], store.shard_holders("m/1/1")[3]
        sc.fail_server(first.server_id)
        check()
        assert "m/0/1" in store.under_replicated()
        second.drop_replica("m/1/1#ec")
        check()
        sc.fail_server(store.shard_holders("m/2/1")[1].server_id)
        check()
        sc.server(first.server_id).recover()
        check()
        sc.fail_server(first.server_id)
        sc.server(first.server_id).recover(data_survived=False)
        check()
        while store.shard_count("m/3/1") >= store.k:
            sc.fail_server(min(store.shard_holders("m/3/1").values(),
                               key=lambda s: s.server_id).server_id)
            check()
        assert "m/3/1" in store.lost_keys()
        engine.run(until_ns=engine.now_ns + 10**9)  # the repairer puts shards back
        assert rep.repairs_completed > 0
        check()
        store.delete("m/4/1")
        check()
        for server in sc.servers:
            sc.server(server.server_id).recover()
        check()


class TestErasureRepairer:
    def test_lost_shard_rebuilt_on_a_fresh_server(self):
        engine, sc, store = make_store(n=8, k=4, m=2)
        rep = ErasureRepairer(store, engine)
        payload = bytes(range(256)) * 4
        store.store("m/1/1", payload, len(payload), 0)
        victim = store.shard_holders("m/1/1")[2]
        sc.fail_server(victim.server_id)
        assert store.shard_count("m/1/1") == 5
        engine.run(until_ns=engine.now_ns + 10**9)
        assert rep.repairs_completed == 1
        assert store.shard_count("m/1/1") == 6
        # The repaired stripe still decodes (degraded, without victim).
        obj, _ = store.load("m/1/1", engine.now_ns)
        assert obj == payload

    def test_rebuilt_shard_bytes_are_exact(self):
        engine, sc, store = make_store(n=8, k=4, m=2)
        ErasureRepairer(store, engine)
        payload = b"exact" * 123
        store.store("m/1/1", payload, len(payload), 0)
        shards = rs_encode(payload, 4, 2)
        victim_idx = 1
        sc.fail_server(store.shard_holders("m/1/1")[victim_idx].server_id)
        engine.run(until_ns=engine.now_ns + 10**9)
        holders = store.shard_holders("m/1/1")
        rebuilt = holders[victim_idx].replicas["m/1/1#ec"][0]
        assert rebuilt.payload == shards[victim_idx]

    def test_unreadable_blob_not_repaired(self):
        engine, sc, store = make_store(n=8, k=4, m=2)
        rep = ErasureRepairer(store, engine)
        store.store("m/1/1", b"x" * 100, 100, 0)
        for idx in list(store.shard_holders("m/1/1"))[:3]:
            sc.fail_server(store.shard_holders("m/1/1")[idx].server_id)
        engine.run(until_ns=engine.now_ns + 10**9)
        assert rep.repairs_completed == 0
        assert store.lost_keys() == ["m/1/1"]

    def test_opaque_blob_repairs_with_same_accounting(self):
        engine, sc, store = make_store(n=8, k=4, m=2)
        rep = ErasureRepairer(store, engine)
        obj = object()
        store.store("m/1/1", obj, 6000, 0)
        sc.fail_server(store.shard_holders("m/1/1")[0].server_id)
        engine.run(until_ns=engine.now_ns + 10**9)
        assert rep.repairs_completed == 1
        assert rep.bytes_rereplicated == store.shard_size(6000)
        got, _ = store.load("m/1/1", engine.now_ns)
        assert got is obj
