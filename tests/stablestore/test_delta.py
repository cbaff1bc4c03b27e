"""Tests for dirty-delta erasure updates (rs_update_parity, store_delta,
DeltaWriteStream, batch shard rebuild, kernel caches)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.simkernel import Engine
from repro.stablestore import (
    KERNEL_STATS,
    ErasureRepairer,
    ErasureStore,
    HierarchicalStore,
    StorageCluster,
    StorageLevel,
    WritebackPipeline,
    merge_extents,
    reset_kernel_stats,
    rs_encode,
    rs_rebuild_shards,
    rs_update_parity,
)
from repro.stablestore.erasure import _cauchy_rows, _decode_matrix
from repro.storage import MemoryStorage
from repro.storage.devices import memory_device

COMMON = dict(deadline=None, max_examples=40)


def make_store(n=8, k=4, m=2, **kw):
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=n)
    return engine, sc, ErasureStore(sc, data_shards=k, parity_shards=m, **kw)


def mutate(payload: bytes, extents, seed=0) -> bytes:
    """Flip bytes inside the given extents (and only there)."""
    rng = np.random.default_rng(seed)
    buf = bytearray(payload)
    for off, length in extents:
        for p in range(off, min(off + length, len(buf))):
            buf[p] ^= int(rng.integers(1, 256))
    return bytes(buf)


# ----------------------------------------------------------------------
# merge_extents
# ----------------------------------------------------------------------
class TestMergeExtents:
    def test_overlapping_and_adjacent_runs_merge(self):
        assert merge_extents([(10, 5), (12, 10), (22, 3)], 100) == [(10, 15)]

    def test_clipping_and_empty_runs(self):
        assert merge_extents([(-5, 10), (95, 50), (40, 0)], 100) == [
            (0, 5),
            (95, 5),
        ]

    def test_unsorted_input(self):
        assert merge_extents([(50, 2), (1, 2)], 100) == [(1, 2), (50, 2)]


# ----------------------------------------------------------------------
# rs_update_parity: the delta ≡ full property
# ----------------------------------------------------------------------
class TestUpdateParity:
    def check(self, payload, extents, k, m, seed=3):
        old = rs_encode(payload, k, m)
        new_payload = mutate(payload, extents, seed=seed)
        updated = rs_update_parity(old[k:], extents, payload, new_payload, k, m)
        assert updated == rs_encode(new_payload, k, m)[k:]

    def test_single_dirty_byte(self):
        self.check(bytes(range(256)) * 4, [(100, 1)], 4, 2)

    def test_zero_length_payload(self):
        assert rs_update_parity(
            rs_encode(b"", 3, 2)[3:], [(0, 5)], b"", b"", 3, 2
        ) == [b"", b""]

    def test_unaligned_payload(self):
        # len % k != 0: the last data shard is zero-padded.
        payload = bytes(range(251))
        self.check(payload, [(7, 11), (240, 11)], 4, 3)

    def test_run_crossing_stripe_boundary(self):
        payload = bytes(range(256)) * 4  # shard_len = 256 at k=4
        self.check(payload, [(250, 20)], 4, 2)  # spans rows 0 and 1

    def test_every_byte_dirty_degenerates_to_full_encode(self):
        payload = np.random.default_rng(5).integers(
            0, 256, 4096, dtype=np.uint8
        ).tobytes()
        self.check(payload, [(0, len(payload))], 4, 2)

    def test_no_dirty_bytes_returns_parity_unchanged(self):
        payload = bytes(range(200))
        old = rs_encode(payload, 4, 2)
        assert rs_update_parity(old[4:], [], payload, payload, 4, 2) == old[4:]

    def test_unequal_payload_lengths_rejected(self):
        with pytest.raises(StorageError, match="equal payload sizes"):
            rs_update_parity([b"ab"], [(0, 1)], b"abc", b"abcd", 2, 1)

    def test_wrong_parity_shard_length_rejected(self):
        with pytest.raises(StorageError, match="parity shard"):
            rs_update_parity([b"x"], [(0, 1)], b"abcd", b"abcd", 2, 1)

    @settings(**COMMON)
    @given(
        data=st.data(),
        plen=st.integers(min_value=1, max_value=2000),
        k=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=4),
    )
    def test_random_dirty_patterns_byte_identical_to_full(
        self, data, plen, k, m
    ):
        payload = data.draw(
            st.binary(min_size=plen, max_size=plen), label="payload"
        )
        extents = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=plen - 1),
                    st.integers(min_value=1, max_value=plen),
                ),
                max_size=6,
            ),
            label="extents",
        )
        seed = data.draw(st.integers(min_value=0, max_value=99), label="seed")
        self.check(payload, extents, k, m, seed=seed)

    def test_delta_kernel_bytes_scale_with_dirty_fraction(self):
        payload = np.random.default_rng(9).integers(
            0, 256, 1 << 18, dtype=np.uint8
        ).tobytes()
        k, m = 4, 2
        old = rs_encode(payload, k, m)
        dirty = [(i, 256) for i in range(0, len(payload) // 10, 2560)]
        new_payload = mutate(payload, dirty)
        reset_kernel_stats()
        rs_update_parity(old[k:], dirty, payload, new_payload, k, m)
        delta_bytes = KERNEL_STATS["delta_bytes"]
        reset_kernel_stats()
        rs_encode(new_payload, k, m)
        full_bytes = KERNEL_STATS["encode_bytes"]
        assert delta_bytes * 3 <= full_bytes


# ----------------------------------------------------------------------
# rs_rebuild_shards: several shards from one decode pass
# ----------------------------------------------------------------------
class TestRebuildShards:
    def test_multiple_lost_shards_one_pass(self):
        payload = bytes(range(256)) * 3
        k, m = 3, 3
        shards = rs_encode(payload, k, m)
        survivors = {i: shards[i] for i in (1, 3, 5)}
        rebuilt = rs_rebuild_shards(survivors, k, m, [0, 2, 4], len(payload))
        for idx in (0, 2, 4):
            assert rebuilt[idx] == shards[idx]

    def test_single_decode_regardless_of_shard_count(self):
        payload = bytes(range(200))
        shards = rs_encode(payload, 4, 3)
        survivors = {i: shards[i] for i in (0, 1, 5, 6)}
        reset_kernel_stats()
        rs_rebuild_shards(survivors, 4, 3, [2, 3, 4], len(payload))
        assert KERNEL_STATS["decode_calls"] == 1

    def test_bad_index_rejected(self):
        shards = rs_encode(b"abcdef", 3, 2)
        with pytest.raises(StorageError, match="outside"):
            rs_rebuild_shards(dict(enumerate(shards)), 3, 2, [5], 6)


# ----------------------------------------------------------------------
# Kernel caches
# ----------------------------------------------------------------------
class TestKernelCaches:
    def test_cauchy_rows_cached_per_km(self):
        assert _cauchy_rows(4, 2) is _cauchy_rows(4, 2)
        assert not _cauchy_rows(4, 2).flags.writeable

    def test_decode_matrix_cached_per_survivor_tuple(self):
        rs_encode(b"warm", 4, 2)
        a = _decode_matrix(4, 2, (0, 1, 2, 4))
        assert a is _decode_matrix(4, 2, (0, 1, 2, 4))
        assert not a.flags.writeable

    def test_cached_matrices_stay_correct_across_configs(self):
        # Interleave configs so a bad cache key would cross-contaminate.
        for k, m in [(4, 2), (3, 3), (4, 2), (2, 1), (3, 3)]:
            payload = bytes(range(97)) * k
            shards = rs_encode(payload, k, m)
            have = {i + 1: shards[i + 1] for i in range(k)}
            from repro.stablestore import rs_decode

            assert rs_decode(have, k, m, len(payload)) == payload


# ----------------------------------------------------------------------
# ErasureStore.store_delta / DeltaWriteStream
# ----------------------------------------------------------------------
class TestStoreDelta:
    def test_in_place_delta_reads_back_new_payload(self):
        engine, sc, store = make_store()
        payload = bytes(range(256)) * 8
        store.store("blob", payload, len(payload), 0)
        dirty = [(100, 50), (1500, 9)]
        new_payload = mutate(payload, dirty)
        store.store_delta("blob", new_payload, len(new_payload), dirty, 10)
        obj, _ = store.load("blob", 20)
        assert obj == new_payload
        assert store.delta_writes == 1
        assert store.delta_fallbacks == 0

    def test_delta_stripe_identical_to_full_store(self):
        payload = bytes(range(256)) * 8
        dirty = [(0, 3), (1000, 300)]
        new_payload = mutate(payload, dirty)

        engine1, _, via_delta = make_store()
        via_delta.store("blob", payload, len(payload), 0)
        via_delta.store_delta("blob", new_payload, len(new_payload), dirty, 10)

        engine2, _, via_full = make_store()
        via_full.store("blob", new_payload, len(new_payload), 0)

        for idx in range(6):
            a = via_delta.shard_holders("blob")[idx].replicas["blob#ec"][0]
            b = via_full.shard_holders("blob")[idx].replicas["blob#ec"][0]
            assert a.payload == b.payload, f"shard {idx} differs"

    def test_degraded_read_after_delta_update(self):
        engine, sc, store = make_store()
        payload = bytes(range(256)) * 8
        store.store("blob", payload, len(payload), 0)
        dirty = [(10, 2000)]
        new_payload = mutate(payload, dirty)
        store.store_delta("blob", new_payload, len(new_payload), dirty, 10)
        # Fail two data-shard holders: the read must decode via parity.
        holders = store.shard_holders("blob")
        holders[0].fail()
        holders[1].fail()
        obj, _ = store.load("blob", 20)
        assert obj == new_payload

    def test_rebase_moves_stripe_to_new_key(self):
        engine, sc, store = make_store()
        payload = bytes(range(256)) * 4
        store.store("gen1", payload, len(payload), 0)
        dirty = [(5, 100)]
        new_payload = mutate(payload, dirty)
        store.store_delta(
            "gen2", new_payload, len(new_payload), dirty, 10, base_key="gen1"
        )
        assert store.exists("gen2") and not store.exists("gen1")
        obj, _ = store.load("gen2", 20)
        assert obj == new_payload
        assert store.delta_fallbacks == 0

    def test_rebase_clean_shards_write_no_server_bytes(self):
        engine, sc, store = make_store()
        payload = bytes(range(256)) * 8
        store.store("gen1", payload, len(payload), 0)
        written_before = {s.server_id: s.bytes_written for s in sc.servers}
        dirty = [(0, 1)]  # one dirty byte: only row 0 + parity move
        new_payload = mutate(payload, dirty)
        store.store_delta(
            "gen2", new_payload, len(new_payload), dirty, 10, base_key="gen1"
        )
        holders = store.shard_holders("gen2")
        snb = store.shard_size(len(payload))
        for idx in (1, 2, 3):  # clean data rows: metadata rename only
            server = holders[idx]
            assert server.bytes_written == written_before[server.server_id]
        for idx in (0, 4, 5):  # dirty row + parity: real writes
            server = holders[idx]
            assert server.bytes_written == written_before[server.server_id] + snb

    def test_missing_shard_falls_back_to_full_store(self):
        engine, sc, store = make_store()
        payload = bytes(range(256)) * 4
        store.store("blob", payload, len(payload), 0)
        next(iter(store.shard_holders("blob").values())).fail()
        dirty = [(0, 10)]
        new_payload = mutate(payload, dirty)
        store.store_delta("blob", new_payload, len(new_payload), dirty, 10)
        assert store.delta_fallbacks == 1
        obj, _ = store.load("blob", 20)
        assert obj == new_payload

    def test_size_change_falls_back_for_bytes_payloads(self):
        engine, sc, store = make_store()
        payload = bytes(range(200))
        store.store("blob", payload, len(payload), 0)
        grown = payload + b"tail"
        store.store_delta("blob", grown, len(grown), [(0, 204)], 10)
        assert store.delta_fallbacks == 1
        obj, _ = store.load("blob", 20)
        assert obj == grown

    def test_opaque_objects_take_delta_accounting_path(self):
        engine, sc, store = make_store()
        obj = {"image": "not-bytes"}
        store.store("img", obj, 4096, 0)
        new_obj = {"image": "updated"}
        store.store_delta("img", new_obj, 4096, [(0, 512)], 10)
        assert store.delta_fallbacks == 0
        got, _ = store.load("img", 20)
        assert got is new_obj

    def test_delta_charges_less_traffic_than_full_store(self):
        payload = np.random.default_rng(11).integers(
            0, 256, 1 << 16, dtype=np.uint8
        ).tobytes()
        dirty = [(0, len(payload) // 10)]
        new_payload = mutate(payload, dirty)

        engine1, _, a = make_store()
        a.store("blob", payload, len(payload), 0)
        base_written = a.bytes_written
        a.store_delta("blob", new_payload, len(new_payload), dirty, 10)
        delta_traffic = a.bytes_written - base_written

        engine2, _, b = make_store()
        b.store("blob", new_payload, len(new_payload), 0)
        assert delta_traffic * 3 <= b.bytes_written

    def test_delta_stream_through_writeback_pipeline(self):
        class _DeltaOpener:
            """Backend facade routing open_stream to the delta stream."""

            def __init__(self, store, dirty):
                self.store, self.dirty = store, dirty

            def open_stream(self, key, now_ns):
                return self.store.open_delta_stream(key, self.dirty, now_ns)

        class _Chunk:
            nbytes = 64

        engine, sc, store = make_store()
        payload = bytes(range(256)) * 8
        store.store("blob", payload, len(payload), 0)
        dirty = [(512, 128)]
        new_payload = mutate(payload, dirty)
        pipe = WritebackPipeline(_DeltaOpener(store, dirty), engine, "blob", depth=2)
        pipe.submit(_Chunk())
        pipe.submit(_Chunk())
        delay = pipe.commit(new_payload, len(new_payload))
        assert delay >= 0
        obj, _ = store.load("blob", engine.now_ns + delay)
        assert obj == new_payload


# ----------------------------------------------------------------------
# Batch repair
# ----------------------------------------------------------------------
class TestBatchRepair:
    def test_two_lost_shards_rebuilt_in_one_scan(self):
        engine, sc, store = make_store(n=9, k=4, m=2)
        repairer = ErasureRepairer(store, engine)
        payload = bytes(range(256)) * 4
        store.store("blob", payload, len(payload), 0)
        holders = store.shard_holders("blob")
        for server in (holders[0], holders[3]):
            server.fail()
        engine.run(until_ns=engine.now_ns + 10**9)
        assert store.shard_count("blob") == 6
        assert repairer.repairs_completed == 2
        # Both shards came from one decode pass and the stripe still
        # reconstructs the payload bit-exactly.
        obj, _ = store.load("blob", engine.now_ns)
        assert obj == payload

    def test_batch_repair_uses_single_decode(self):
        engine, sc, store = make_store(n=9, k=4, m=2)
        repairer = ErasureRepairer(store, engine)
        payload = np.random.default_rng(3).integers(
            0, 256, 8192, dtype=np.uint8
        ).tobytes()
        store.store("blob", payload, len(payload), 0)
        holders = store.shard_holders("blob")
        holders[1].fail()
        holders[4].fail()
        reset_kernel_stats()
        engine.run(until_ns=engine.now_ns + 10**9)
        assert store.shard_count("blob") == 6
        assert KERNEL_STATS["decode_calls"] == 1


# ----------------------------------------------------------------------
# Hierarchy integration
# ----------------------------------------------------------------------
class TestHierarchyDelta:
    def make_hierarchy(self, erasure_policy="through"):
        engine = Engine(seed=2)
        sc = StorageCluster(engine, n_servers=8)
        erasure = ErasureStore(sc, data_shards=4, parity_shards=2)
        scratch = MemoryStorage(device=memory_device("ram[scratch]"))
        levels = [
            StorageLevel("scratch", scratch),
            StorageLevel("erasure", erasure, write=erasure_policy),
        ]
        hier = HierarchicalStore(engine, levels)
        return engine, erasure, hier

    def test_store_delta_routes_to_erasure_delta(self):
        engine, erasure, hier = self.make_hierarchy()
        payload = bytes(range(256)) * 8
        hier.store("blob", payload, len(payload), 0)
        dirty = [(40, 600)]
        new_payload = mutate(payload, dirty)
        hier.store_delta("blob", new_payload, len(new_payload), dirty, 10)
        assert erasure.delta_writes == 1
        obj, _ = hier.load("blob", 20)
        assert obj == new_payload
        obj2, _ = erasure.load("blob", 20)
        assert obj2 == new_payload

    def test_writeback_level_applies_delta_not_stale_skip(self):
        engine, erasure, hier = self.make_hierarchy(erasure_policy="back")
        payload = bytes(range(256)) * 8
        hier.store("blob", payload, len(payload), 0)
        engine.run(until_ns=engine.now_ns + 10**9)  # writeback copies base
        assert erasure.exists("blob")
        dirty = [(2000, 48)]
        new_payload = mutate(payload, dirty)
        hier.store_delta("blob", new_payload, len(new_payload), dirty, engine.now_ns)
        engine.run(until_ns=engine.now_ns + 10**9)
        # Without delta-aware writeback the skip-if-exists guard would
        # leave the erasure tier holding the stale base bytes.
        obj, _ = erasure.load("blob", engine.now_ns)
        assert obj == new_payload
        assert erasure.delta_writes == 1

    def test_store_delta_without_resident_base_stores_fully(self):
        engine, erasure, hier = self.make_hierarchy()
        payload = bytes(range(256)) * 4
        dirty = [(0, 8)]
        # No prior store: every level takes the plain path.
        hier.store_delta("fresh", payload, len(payload), dirty, 0)
        obj, _ = hier.load("fresh", 10)
        assert obj == payload
