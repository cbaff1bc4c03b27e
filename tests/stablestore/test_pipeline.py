"""Tests for the asynchronous writeback pipeline (streams, fan-out
reads, :class:`WritebackPipeline`) and the restore-side prefetch /
chain-compaction machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core.checkpointer import RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.core.image import CheckpointImage
from repro.errors import StorageError, StorageLostError
from repro.simkernel import Engine
from repro.simkernel.costs import NS_PER_S
from repro.stablestore import (
    ContentStore,
    ReplicatedStore,
    StorageCluster,
    WritebackPipeline,
)
from repro.storage.backends import RemoteStorage
from repro.workloads import SparseWriter


def make_store(n=3, rf=2, **kw):
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=n)
    return engine, sc, ReplicatedStore(sc, replication=rf, **kw)


def make_image(key, values, parent=None, vma="heap"):
    img = CheckpointImage(
        key=key, mechanism="m", pid=1, task_name="t", node_id=0, step=0,
        registers={"pc": 0}, parent_key=parent,
    )
    for i, val in enumerate(values):
        img.add_page(vma, i, np.full(4096, val, dtype=np.uint8))
    return img


class TestWriteStream:
    """The single-device stream (plain StorageBackend.open_stream)."""

    def test_stream_total_traffic_matches_monolithic_store(self):
        a, b = RemoteStorage(), RemoteStorage()
        mono = a.store("k", "obj", 1 << 20, 0)
        st = b.open_stream("k", 0)
        sent = 0
        for _ in range(4):
            st.send((1 << 20) // 4, 0)
            sent += (1 << 20) // 4
        st.commit("obj", 1 << 20, 0)
        assert a.bytes_written == b.bytes_written == 1 << 20
        # The remainder charged at commit is zero: all payload streamed,
        # so the devices moved identical byte counts (the stream pays
        # only per-op fixed latency on top).
        assert b.device.total_bytes == a.device.total_bytes
        extra_ops = b.device.total_ops - a.device.total_ops
        assert (
            b.device.busy_until_ns - a.device.busy_until_ns
            == extra_ops * b.device.latency_ns
        )
        assert mono > 0

    def test_blob_invisible_until_commit(self):
        backend = RemoteStorage()
        st = backend.open_stream("k", 0)
        st.send(4096, 0)
        assert not backend.exists("k")
        st.commit("obj", 8192, 0)
        assert backend.exists("k")
        assert backend.blob_size("k") == 8192

    def test_double_commit_rejected(self):
        backend = RemoteStorage()
        st = backend.open_stream("k", 0)
        st.commit("obj", 100, 0)
        with pytest.raises(StorageError):
            st.commit("obj", 100, 0)


class TestReplicaWriteStream:
    def test_stream_equals_sync_store_traffic(self):
        _, _, sync = make_store()
        _, _, streamed = make_store()
        nbytes = 1 << 20
        sync.store("m/1/1", "obj", nbytes, 0)
        st = streamed.open_stream("m/1/1", 0)
        for _ in range(4):
            st.send(nbytes // 4, 0)
        st.commit("obj", nbytes, 0)
        assert streamed.bytes_written == sync.bytes_written
        assert streamed.holders("m/1/1") == sync.holders("m/1/1")

    def test_blob_visible_only_at_commit(self):
        _, _, store = make_store()
        st = store.open_stream("m/1/1", 0)
        st.send(4096, 0)
        assert not store.exists("m/1/1")
        st.commit("obj", 4096, 0)
        assert store.exists("m/1/1")

    def test_open_retries_past_dead_candidate(self):
        _, sc, store = make_store(n=3, rf=2)
        pref = [s.server_id for s in store.candidates("m/1/1")]
        sc.fail_server(pref[0])
        st = store.open_stream("m/1/1", 0)
        assert st.open_penalty_ns > 0  # timeout+backoff before rerouting
        st.commit("obj", 100, 0)
        assert store.exists("m/1/1")
        assert pref[0] not in store.holders("m/1/1")

    def test_quorum_loss_mid_stream_raises(self):
        _, sc, store = make_store(n=3, rf=3, write_quorum=3)
        st = store.open_stream("m/1/1", 0)
        st.send(4096, 0)
        sc.fail_server(st.servers[0].server_id)
        with pytest.raises(StorageLostError):
            st.send(4096, 0)

    def test_open_fails_without_write_quorum(self):
        _, sc, store = make_store(n=3, rf=3, write_quorum=3)
        sc.fail_server(0)
        with pytest.raises(StorageLostError):
            store.open_stream("m/1/1", 0)


class TestAsyncCompletions:
    def test_store_async_resolves_at_commit_instant(self):
        engine, _, store = make_store()
        token = store.store_async("m/1/1", "obj", 1 << 20, engine.now_ns)
        assert not token.done
        engine.run(until_ns=10 * NS_PER_S)
        assert token.done
        assert token.value > 0
        assert store.exists("m/1/1")

    def test_load_async_resolves(self):
        engine, _, store = make_store()
        store.store("m/1/1", "obj", 4096, 0)
        token = store.load_async("m/1/1", engine.now_ns)
        engine.run(until_ns=10 * NS_PER_S)
        assert token.done
        assert token.value == "obj"


class TestFanoutRead:
    def test_fanout_skips_dead_holder_without_timeout(self):
        # Serial load walks candidates and charges timeout+backoff for a
        # dead first holder; the fan-out read just never hears from it.
        _, sc_a, serial = make_store(n=3, rf=2)
        _, sc_b, fanout = make_store(n=3, rf=2)
        for store in (serial, fanout):
            store.store("m/1/1", "obj", 1 << 20, 0)
        sc_a.fail_server(serial.holders("m/1/1")[0])
        sc_b.fail_server(fanout.holders("m/1/1")[0])
        at = NS_PER_S  # after the store's device traffic has drained
        _, slow = serial.load("m/1/1", at)
        _, fast = fanout.load_fanout("m/1/1", at)
        assert fast < slow
        assert slow - fast >= serial.timeout_ns

    def test_fanout_requires_read_quorum(self):
        _, sc, store = make_store(n=3, rf=2, read_quorum=2)
        store.store("m/1/1", "obj", 4096, 0)
        for sid in store.holders("m/1/1"):
            sc.fail_server(sid)
        with pytest.raises(StorageLostError):
            store.load_fanout("m/1/1", 0)

    def test_fanout_charges_only_read_quorum_winners(self):
        """Regression: the fan-out read used to charge *every* live
        holder for a full transfer and then discard all but the quorum
        responses, so per-device byte counters diverged from the serial
        read's explicit traffic model.  Only the R winners may pay."""
        nbytes = 1 << 20
        _, sc_a, serial = make_store(n=3, rf=3)
        _, sc_b, fanout = make_store(n=3, rf=3)
        for store in (serial, fanout):
            store.store("m/1/1", "obj", nbytes, 0)
        at = NS_PER_S  # after the store traffic drains: disks idle
        serial.load("m/1/1", at)
        fanout.load_fanout("m/1/1", at)
        per_server_serial = sorted(
            (s.server_id, s.bytes_read) for s in sc_a.servers
        )
        per_server_fanout = sorted(
            (s.server_id, s.bytes_read) for s in sc_b.servers
        )
        # Identical per-device charges: the same single winner (idle
        # equal disks tie-break in rendezvous preference order), one
        # full transfer, nothing billed to the losing holders.
        assert per_server_serial == per_server_fanout
        assert sum(b for _, b in per_server_fanout) == nbytes
        assert serial.bytes_read == fanout.bytes_read == nbytes
        for da, db in zip(
            (s.disk for s in sc_a.servers), (s.disk for s in sc_b.servers)
        ):
            assert da.total_bytes == db.total_bytes
        assert serial.device.total_bytes == fanout.device.total_bytes

    def test_fanout_read_quorum_bills_r_servers(self):
        nbytes = 4096
        _, sc, store = make_store(n=3, rf=3, read_quorum=2)
        store.store("m/1/1", "obj", nbytes, 0)
        at = NS_PER_S
        store.load_fanout("m/1/1", at)
        billed = [s for s in sc.servers if s.bytes_read]
        assert len(billed) == 2
        assert sum(s.bytes_read for s in sc.servers) == 2 * nbytes
        # The blob itself is counted once, not once per quorum member.
        assert store.bytes_read == nbytes

    def test_fanout_prefers_idle_disk_over_busy_preference_leader(self):
        _, sc, store = make_store(n=3, rf=2)
        nbytes = 1 << 20
        store.store("m/1/1", "obj", nbytes, 0)
        first, second = store.holders("m/1/1")
        at = NS_PER_S
        # Swamp the preferred holder's disk with a long foreign transfer.
        sc.server(first).disk.submit(at, 64 << 20)
        store.load_fanout("m/1/1", at)
        assert sc.server(second).bytes_read == nbytes
        assert sc.server(first).bytes_read == 0

    def test_load_parallel_overlaps_keys(self):
        _, _, store = make_store()
        for i in range(4):
            store.store(f"m/1/{i}", f"obj{i}", 1 << 20, 0)
        serial = 0
        for i in range(4):
            _, d = store.load_fanout(f"m/1/{i}", 0)
            serial += d
        objs, overlapped = store.load_parallel(
            [f"m/1/{i}" for i in range(4)], 0
        )
        assert sorted(objs) == [f"m/1/{i}" for i in range(4)]
        assert objs["m/1/2"] == "obj2"
        assert overlapped < serial


class TestDedupWriteStream:
    def test_duplicate_extents_stream_zero_new_bytes(self):
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=3)
        inner = ReplicatedStore(sc, replication=2)
        store = ContentStore(inner)
        img = make_image("m/1/1", [1, 2, 1, 2])
        st = store.open_stream(img.key, 0)
        delays = [st.send_chunk(c, 0) for c in img.chunks]
        # Chunks 3 and 4 repeat payloads 1 and 2: nothing new to pack.
        assert delays[0] > 0 and delays[1] > 0
        assert delays[2] == 0 and delays[3] == 0
        st.commit(img, img.size_bytes, 0)
        assert store.unique_payload_bytes == 2 * 4096
        assert store.logical_payload_bytes == 4 * 4096
        restored, _ = store.load(img.key, 0)
        assert restored.chunks[2].data.tobytes() == img.chunks[2].data.tobytes()

    def test_stream_matches_sync_store_dedup_state(self):
        engine_a = Engine(seed=1)
        sc_a = StorageCluster(engine_a, n_servers=3)
        a = ContentStore(ReplicatedStore(sc_a, replication=2))
        engine_b = Engine(seed=1)
        sc_b = StorageCluster(engine_b, n_servers=3)
        b = ContentStore(ReplicatedStore(sc_b, replication=2))
        img = make_image("m/1/1", [5, 6, 7])
        a.store(img.key, img, img.size_bytes, 0)
        st = b.open_stream(img.key, 0)
        for c in img.chunks:
            st.send_chunk(c, 0)
        st.commit(img, img.size_bytes, 0)
        assert a.unique_payload_bytes == b.unique_payload_bytes
        assert sorted(a.inner.keys()) == sorted(b.inner.keys())
        ra, _ = a.load(img.key, 0)
        rb, _ = b.load(img.key, 0)
        assert ra.size_bytes == rb.size_bytes

    def test_send_without_chunk_rejected(self):
        """Raw sends carry a non-image object: committing an image after
        them is rejected, since its pages were never fingerprinted."""
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=3)
        store = ContentStore(ReplicatedStore(sc, replication=2))
        img = make_image("m/1/1", [1, 2])
        st = store.open_stream(img.key, 0)
        st.send(4096, 0)
        with pytest.raises(StorageError):
            st.commit(img, img.size_bytes, 0)

    def test_raw_send_passes_through_to_inner_store(self):
        """A non-image object streamed as raw bytes (a snapshot
        manifest) lands under its own key in the inner store, with the
        same traffic as a synchronous store and no pack."""
        stores = []
        for streamed in (True, False):
            engine = Engine(seed=1)
            sc = StorageCluster(engine, n_servers=3)
            store = ContentStore(ReplicatedStore(sc, replication=2))
            if streamed:
                st = store.open_stream("snap/1", 0)
                st.send(3000, 0)
                st.send(1000, 0)
                st.commit({"cut": 1}, 4096, 0)
            else:
                store.store("snap/1", {"cut": 1}, 4096, 0)
            stores.append(store)
        streamed, sync = stores
        assert streamed.exists("snap/1")
        assert streamed.load("snap/1", 0)[0] == {"cut": 1}
        assert sorted(streamed.inner.keys()) == ["snap/1"]
        assert streamed.inner.bytes_written == sync.inner.bytes_written


class TestWritebackPipeline:
    def _pipe(self, depth):
        engine = Engine(seed=1)
        sc = StorageCluster(engine, n_servers=3)
        store = ReplicatedStore(sc, replication=2)
        img = make_image("m/1/1", list(range(8)))
        return engine, store, img, WritebackPipeline(
            store, engine, img.key, depth=depth
        )

    def test_window_backpressure_is_deterministic(self):
        engine, _, img, pipe = self._pipe(depth=2)
        for chunk in img.chunks[:2]:
            assert pipe.ns_until_slot() == 0
            pipe.submit(chunk)
        stall = pipe.ns_until_slot()
        assert stall > 0  # window full: must wait for the earliest ack
        engine.run(until_ns=engine.now_ns + stall)
        assert pipe.ns_until_slot() == 0
        assert pipe.stalls >= 1 and pipe.stall_ns >= stall

    def test_barrier_then_commit_publishes_image(self):
        engine, store, img, pipe = self._pipe(depth=4)
        for chunk in img.chunks:
            wait = pipe.ns_until_slot()
            if wait:
                engine.run(until_ns=engine.now_ns + wait)
            pipe.submit(chunk)
        assert not store.exists(img.key)
        barrier = pipe.barrier_ns()
        engine.run(until_ns=engine.now_ns + barrier)
        assert pipe.inflight == 0
        pipe.commit(img, img.size_bytes)
        assert store.exists(img.key)
        assert pipe.extents == len(img.chunks)
        assert pipe.bytes == sum(int(c.nbytes) for c in img.chunks)

    def test_deep_window_stalls_less(self):
        def total_stall(depth):
            engine, _, img, pipe = self._pipe(depth=depth)
            for chunk in img.chunks:
                wait = pipe.ns_until_slot()
                if wait:
                    engine.run(until_ns=engine.now_ns + wait)
                pipe.submit(chunk)
            return pipe.stall_ns

        assert total_stall(8) <= total_stall(2) <= total_stall(1)
        assert total_stall(1) > 0

    def test_abort_without_commit_publishes_nothing(self):
        engine, store, img, pipe = self._pipe(depth=4)
        pipe.submit(img.chunks[0])
        pipe.abort("node died mid-drain")
        engine.run(until_ns=10 * NS_PER_S)
        assert not store.exists(img.key)


class TestLatencyAggregates:
    """Satellite: aggregates must not divide by zero on a fresh store."""

    def test_fresh_store_reports_zero_latency(self):
        _, _, store = make_store()
        assert store.avg_write_latency_ns == 0.0
        assert store.avg_read_latency_ns == 0.0
        assert store.last_write_latency_ns == 0
        assert store.last_read_latency_ns == 0

    def test_aggregates_populate_after_traffic(self):
        _, _, store = make_store()
        store.store("m/1/1", "obj", 4096, 0)
        store.load("m/1/1", 0)
        assert store.avg_write_latency_ns > 0.0
        assert store.avg_read_latency_ns > 0.0


def _wf(rank):
    return SparseWriter(
        iterations=20000, dirty_fraction=0.03, heap_bytes=256 * 1024,
        seed=rank, compute_ns=100_000,
    )


def _chained(n_ckpts, depth=4, compact=None):
    cl = Cluster(n_nodes=1, seed=6, storage_servers=3, replication=2)
    node = cl.node(0)
    mech = AutonomicCheckpointer(node.kernel, node.remote_storage)
    mech.pipeline_depth = depth
    mech.rebase_every = 100  # keep one long delta chain
    mech.compaction_threshold = compact
    task = _wf(0).spawn(node.kernel)
    mech.prepare_target(task)
    last = None
    for i in range(n_ckpts):
        req = mech.request_checkpoint(task)
        cl.run_until(
            lambda: req.state in (RequestState.DONE, RequestState.FAILED),
            120 * NS_PER_S,
        )
        assert req.state == RequestState.DONE, (i, req.error)
        last = req
    return cl, node, mech, task, last


class TestPipelinedCapture:
    def test_delta_stall_is_fork_bound_not_drain_bound(self):
        cl_s, _, mech_s, _, _ = _chained(3, depth=1)
        cl_p, _, mech_p, _, _ = _chained(3, depth=4)
        sync = [r for r in mech_s.completed_requests() if r.image.is_incremental]
        pipe = [r for r in mech_p.completed_requests() if r.image.is_incremental]
        assert sync and pipe
        for s, p in zip(sync, pipe):
            assert p.target_stall_ns < s.target_stall_ns
        # The hidden storage wait is accounted, not vanished.
        assert all(p.storage_delay_ns > 0 for p in pipe)

    def test_pipelined_image_restartable_on_fresh_kernel(self):
        cl, node, mech, task, last = _chained(3, depth=4)
        res = mech.restart(last.key, target_kernel=node.kernel, prefetch=True)
        assert res is not None
        assert cl.engine.metrics.counters().get(
            "restart.prefetched_chains", 0
        ) >= 1


class TestChainCompaction:
    def test_chain_flattened_past_threshold(self):
        cl, node, mech, task, last = _chained(9, depth=4, compact=4)
        flats = [k for k in cl.remote_storage.keys() if k.endswith("+flat")]
        # Ancestor flats are retired as newer ones land: exactly one lives.
        assert flats == [last.key + "+flat"]
        assert mech._flat_alias == {last.key: last.key + "+flat"}
        assert mech.chain_available(last.key)

    def test_compacted_restart_reads_single_blob(self):
        cl, node, mech, task, last = _chained(9, depth=4, compact=4)
        res = mech.restart(last.key, target_kernel=node.kernel, prefetch=True)
        assert res is not None
        counters = cl.engine.metrics.counters()
        assert counters.get("restart.compacted_hits", 0) >= 1

    def test_flat_key_survives_generation_gc_parsing(self):
        from repro.stablestore.gc import GenerationGC

        cl, node, mech, task, last = _chained(9, depth=4, compact=4)
        gc = GenerationGC(cl.remote_storage, keep=2)
        gc.sweep()
        assert last.key + "+flat" in list(cl.remote_storage.keys())

    def test_materialize_memoized_per_tip(self):
        cl, node, mech, task, last = _chained(4, depth=4)
        chain, _ = mech.image_chain(last.key, prefetch=True)
        flat_a = mech._materialize(last.key, chain)
        flat_b = mech._materialize(last.key, chain)
        assert flat_a is flat_b  # memo hit
        res1 = mech.restart(last.key, target_kernel=node.kernel)
        # Restores must not alias the cached arrays into live VMAs.
        t1 = res1.task
        heap = next(v for v in t1.mm.vmas if "heap" in v.name)
        page = sorted(heap.pages)[0]
        before = bytes(heap.pages[page])
        heap.pages[page][:] = 0xEE
        cached = next(v for v in flat_a.chunks if v.vma == heap.name)
        assert bytes(cached.data[: len(before)]) != b"\xee" * len(before)
