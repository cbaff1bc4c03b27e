"""Tests for multi-level stable storage (repro.stablestore.hierarchy)."""

from __future__ import annotations

import pytest

from repro.errors import StorageError, StorageLostError
from repro.simkernel import Engine
from repro.stablestore import (
    ContentStore,
    ErasureStore,
    HierarchicalStore,
    ReplicatedStore,
    StorageCluster,
    StorageLevel,
)
from repro.storage.backends import MemoryStorage
from repro.storage.devices import memory_device

PAYLOAD = bytes(range(256)) * 10  # 2560 bytes


def make_hierarchy(
    scratch_capacity=None,
    erasure_policy="back",
    n_servers=6,
):
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=n_servers)
    scratch = MemoryStorage(device=memory_device("ram[scratch]"))
    partner = ReplicatedStore(sc, replication=2)
    erasure = ErasureStore(sc, data_shards=4, parity_shards=2)
    h = HierarchicalStore(
        engine,
        levels=[
            StorageLevel("scratch", scratch, capacity_bytes=scratch_capacity),
            StorageLevel("partner", partner),
            StorageLevel("erasure", erasure, write=erasure_policy),
        ],
    )
    return engine, sc, scratch, partner, erasure, h


class TestLevels:
    def test_needs_a_write_through_level(self):
        engine = Engine(seed=1)
        with pytest.raises(StorageError, match="write-through"):
            HierarchicalStore(
                engine,
                [StorageLevel("only", MemoryStorage(), write="back")],
            )

    def test_duplicate_level_names_rejected(self):
        engine = Engine(seed=1)
        with pytest.raises(StorageError, match="duplicate"):
            HierarchicalStore(
                engine,
                [
                    StorageLevel("a", MemoryStorage()),
                    StorageLevel("a", MemoryStorage()),
                ],
            )

    def test_bad_write_policy_rejected(self):
        with pytest.raises(StorageError, match="through"):
            StorageLevel("x", MemoryStorage(), write="sideways")

    def test_durability_defaults_to_backend(self):
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=3)
        h = HierarchicalStore(
            engine,
            [
                StorageLevel("scratch", MemoryStorage()),
                StorageLevel("remote", ReplicatedStore(sc, replication=2)),
            ],
        )
        assert not h.levels[0].durable
        assert h.levels[1].durable
        assert h.survives_node_failure


class TestWritePaths:
    def test_write_through_lands_synchronously_everywhere(self):
        _, _, scratch, partner, erasure, h = make_hierarchy(
            erasure_policy="through"
        )
        delay = h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        assert delay > 0
        assert scratch.exists("w/1")
        assert partner.exists("w/1")
        assert erasure.exists("w/1")

    def test_write_back_lands_after_the_delay(self):
        engine, _, scratch, partner, erasure, h = make_hierarchy()
        h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        assert scratch.exists("w/1") and partner.exists("w/1")
        assert not erasure.exists("w/1")
        engine.run(until_ns=engine.now_ns + 10**9)
        assert erasure.exists("w/1")
        assert engine.metrics.counter("hierarchy.writeback_bytes").value > 0

    def test_write_back_is_off_the_critical_path(self):
        _, _, _, _, _, h_back = make_hierarchy(erasure_policy="back")
        _, _, _, _, _, h_thru = make_hierarchy(erasure_policy="through")
        d_back = h_back.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        d_thru = h_thru.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        assert d_back <= d_thru

    def test_store_survives_one_degraded_level(self):
        _, sc, scratch, partner, _, h = make_hierarchy(erasure_policy="through")
        for s in sc.servers:
            s.fail()
        # Service levels are unreachable, scratch still accepts.
        delay = h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        assert delay > 0
        assert scratch.exists("w/1") and not partner.exists("w/1")

    def test_store_fails_when_no_level_accepts(self):
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=3)
        h = HierarchicalStore(
            engine, [StorageLevel("only", ReplicatedStore(sc, replication=2))]
        )
        for s in sc.servers:
            s.fail()
        with pytest.raises(StorageLostError, match="no hierarchy level"):
            h.store("w/1", PAYLOAD, len(PAYLOAD), 0)


class TestReadPaths:
    def test_reads_hit_the_fastest_level(self):
        engine, _, _, _, _, h = make_hierarchy()
        h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        h.load("w/1", 0)
        assert engine.metrics.counter("hierarchy.scratch.hits").value == 1

    def test_read_falls_past_a_missing_level(self):
        engine, _, scratch, _, _, h = make_hierarchy()
        h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        scratch.delete("w/1")
        obj, _ = h.load("w/1", 0)
        assert obj == PAYLOAD
        assert engine.metrics.counter("hierarchy.scratch.misses").value == 1
        assert engine.metrics.counter("hierarchy.partner.hits").value == 1

    def test_read_promotes_into_faster_levels(self):
        engine, _, scratch, _, _, h = make_hierarchy()
        h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        scratch.delete("w/1")
        h.load("w/1", 0)
        engine.run(until_ns=engine.now_ns + 10**9)
        assert scratch.exists("w/1")
        assert h.promotions == 1

    def test_all_levels_lost_raises(self):
        engine, sc, scratch, _, _, h = make_hierarchy()
        h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        scratch.delete("w/1")
        for s in sc.servers:
            s.fail()
        with pytest.raises(StorageLostError, match="no hierarchy level"):
            h.load("w/1", 0)
        assert engine.metrics.counter("hierarchy.lost_reads").value == 1

    def test_load_parallel_worst_of_fanouts(self):
        _, _, _, _, _, h = make_hierarchy()
        for i in range(3):
            h.store(f"w/{i}", PAYLOAD, len(PAYLOAD), 0)
        objs, worst = h.load_parallel([f"w/{i}" for i in range(3)], 0)
        assert set(objs) == {"w/0", "w/1", "w/2"}
        assert worst >= max(h.load_fanout(f"w/{i}", 0)[1] for i in range(3)) * 0


class TestDemotion:
    def test_capacity_evicts_oldest_protected_blob(self):
        engine, _, scratch, _, _, h = make_hierarchy(scratch_capacity=6000)
        for i in range(3):  # 3 * 2560 > 6000
            h.store(f"w/{i}", PAYLOAD, len(PAYLOAD), 0)
        assert not scratch.exists("w/0")  # oldest demoted
        assert scratch.exists("w/1") and scratch.exists("w/2")
        assert h.demotions == 1
        # The demoted blob still reads (from the partner level).
        obj, _ = h.load("w/0", engine.now_ns)
        assert obj == PAYLOAD

    def test_never_evicts_the_sole_copy(self):
        engine = Engine(seed=1)
        scratch = MemoryStorage(device=memory_device("ram[scratch]"))
        h = HierarchicalStore(
            engine, [StorageLevel("scratch", scratch, capacity_bytes=3000)]
        )
        for i in range(3):
            h.store(f"w/{i}", PAYLOAD, len(PAYLOAD), 0)
        # Over capacity, but no other level holds the blobs: keep all.
        assert all(scratch.exists(f"w/{i}") for i in range(3))
        assert h.demotions == 0


class TestReprotect:
    def test_level_that_lost_a_blob_is_refilled_from_survivors(self):
        engine, sc, _, partner, _, h = make_hierarchy()
        h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        engine.run(until_ns=engine.now_ns + 10**9)
        for sid in list(partner.holders("w/1")):
            sc.fail_server(sid)
        assert not partner.exists("w/1")
        engine.run(until_ns=engine.now_ns + 10**9)
        assert partner.exists("w/1")
        assert h.reprotects >= 1
        assert engine.metrics.counter("hierarchy.reprotected_bytes").value > 0


class TestDegenerate:
    """A single-level hierarchy forwards charge-for-charge."""

    def make_pair(self):
        e1 = Engine(seed=3)
        sc1 = StorageCluster(e1, n_servers=3)
        bare = ReplicatedStore(sc1, replication=2)
        e2 = Engine(seed=3)
        sc2 = StorageCluster(e2, n_servers=3)
        wrapped = HierarchicalStore(
            e2, [StorageLevel("only", ReplicatedStore(sc2, replication=2))]
        )
        return bare, wrapped

    def test_store_and_load_delays_identical(self):
        bare, wrapped = self.make_pair()
        for i in range(5):
            key, nb = f"m/{i}/1", 1000 + 137 * i
            assert bare.store(key, PAYLOAD, nb, 0) == wrapped.store(
                key, PAYLOAD, nb, 0
            )
        for i in range(5):
            key = f"m/{i}/1"
            ob, db = bare.load(key, 10**7)
            ow, dw = wrapped.load(key, 10**7)
            assert db == dw and ob is ow
            assert bare.load_fanout(key, 10**8)[1] == wrapped.load_fanout(
                key, 10**8
            )[1]

    def test_stream_delays_identical(self):
        bare, wrapped = self.make_pair()
        sb = bare.open_stream("m/1/1", 0)
        sw = wrapped.open_stream("m/1/1", 0)
        assert sb.send(4096, 0) == sw.send(4096, 0)
        assert sb.commit(PAYLOAD, len(PAYLOAD), 10**6) == sw.commit(
            PAYLOAD, len(PAYLOAD), 10**6
        )


class TestComposition:
    def test_content_store_wraps_a_hierarchy(self):
        engine, _, _, _, _, h = make_hierarchy()
        cs = ContentStore(h, metrics=engine.metrics)
        assert cs.inner is h
        delay = cs.store("m/1/1", PAYLOAD, len(PAYLOAD), 0)
        assert delay > 0
        obj, _ = cs.load("m/1/1", delay)
        assert obj == PAYLOAD

    def test_physical_bytes_per_level(self):
        engine, _, _, _, _, h = make_hierarchy(erasure_policy="through")
        h.store("w/1", PAYLOAD, len(PAYLOAD), 0)
        by_level = h.level_physical_bytes()
        assert by_level["scratch"] == len(PAYLOAD)
        assert by_level["partner"] == 2 * len(PAYLOAD)  # rf=2
        assert by_level["erasure"] == 6 * 640  # (k+m) * ceil(2560/4)
        assert h.physical_bytes() == sum(by_level.values())
