"""One write path per store: ``store()`` is the commit of the store's own
write stream, so a synchronous store and a streamed write of the same
blob charge and publish alike."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.errors import StorageLostError
from repro.simkernel import Engine
from repro.stablestore import (
    ErasureStore,
    HierarchicalStore,
    ReplicatedStore,
    StorageCluster,
    StorageLevel,
)
from repro.storage.backends import NullStorage, StorageBackend

NBYTES = 1 << 20


def _replicated():
    sc = StorageCluster(Engine(seed=1), n_servers=3)
    return sc, ReplicatedStore(sc, replication=2)


def _erasure():
    sc = StorageCluster(Engine(seed=1), n_servers=7)
    return sc, ErasureStore(sc, data_shards=4, parity_shards=2)


def _degraded(make):
    """A store whose preferred server for ``m/1/1`` is down."""
    sc, store = make()
    sc.fail_server(store.candidates("m/1/1")[0].server_id)
    return sc, store


def _charges(sc, store):
    """(busy_until_ns, total_bytes, total_ops) of the link, then of each
    server's disk."""
    devices = [store.device] + [s.disk for s in sc.servers]
    return [(d.busy_until_ns, d.total_bytes, d.total_ops) for d in devices]


def _held(sc):
    """The keys each server holds."""
    return [sorted(s.replicas) for s in sc.servers]


@pytest.mark.parametrize("make", [_replicated, _erasure], ids=["replicated", "erasure"])
class TestStreamRetryPenalty:
    def test_commit_only_stream_equals_store(self, make):
        sc_a, a = _degraded(make)
        sc_b, b = _degraded(make)
        delay = a.store("m/1/1", b"x" * 64, NBYTES, 0)
        assert delay > a.timeout_ns  # the walk penalty is on the path
        assert b.open_stream("m/1/1", 0).commit(b"x" * 64, NBYTES, 0) == delay
        assert _charges(sc_b, b) == _charges(sc_a, a)
        assert _held(sc_b) == _held(sc_a)

    def test_streamed_write_pays_the_walk_penalty(self, make):
        # One send of the whole blob costs exactly what store() costs and
        # leaves the same device charges; the commit's zero-byte
        # remainder then adds one link op and one disk op per pinned
        # server, and publishes the same copies.
        sc_a, a = _degraded(make)
        sc_b, b = _degraded(make)
        delay = a.store("m/1/1", b"x" * 64, NBYTES, 0)
        st = b.open_stream("m/1/1", 0)
        assert sum(p for _, p in st.placed) > 0
        assert st.send(NBYTES, 0) == delay
        assert _charges(sc_b, b) == _charges(sc_a, a)
        st.commit(b"x" * 64, NBYTES, 0)
        extra = [len(st.servers)] + [int(s in st.servers) for s in sc_b.servers]
        assert [(nb, o) for _, nb, o in _charges(sc_b, b)] == [
            (nb, o + e) for (_, nb, o), e in zip(_charges(sc_a, a), extra)
        ]
        assert _held(sc_b) == _held(sc_a)
        assert b.bytes_written == a.bytes_written

    def test_later_quorum_loss_charges_nothing(self, make):
        sc, store = make()
        st = store.open_stream("m/1/1", 0)
        st.send(4096, 0)
        for server in st.servers[: len(st.servers) - st.quorum + 1]:
            sc.fail_server(server.server_id)
        before = _charges(sc, store)
        with pytest.raises(StorageLostError, match="mid-stream"):
            st.send(4096, 0)
        assert _charges(sc, store) == before


def test_null_storage_keeps_only_its_newest_blob_when_streamed():
    null = NullStorage()
    for key in ("m/1/1", "m/1/2"):
        st = null.open_stream(key, 0)
        st.send(100, 0)
        st.commit("img", 200, 0)
    assert list(null.keys()) == ["m/1/2"]
    null.store("m/1/3", "img", 200, 0)
    assert list(null.keys()) == ["m/1/3"]


def test_hierarchy_stream_drops_a_level_that_refuses_a_send():
    engine = Engine(seed=1)
    sc = StorageCluster(engine, n_servers=6)
    partner = ReplicatedStore(sc, replication=2)
    erasure = ErasureStore(sc, data_shards=4, parity_shards=2)
    h = HierarchicalStore(
        engine, [StorageLevel("partner", partner), StorageLevel("erasure", erasure)]
    )
    sc.fail_server(erasure.candidates("m/1/1")[0].server_id)  # 5 of 6 shards
    st = h.open_stream("m/1/1", 0)
    assert len(st.streams) == 2  # the open walk refuses nothing
    st.send(4096, 0)
    assert [lv.name for lv, _ in st.streams] == ["partner"]
    assert engine.metrics.counters()["hierarchy.write_errors"] == 1
    st.commit(b"x" * 64, 8192, 0)
    assert partner.exists("m/1/1") and not erasure.exists("m/1/1")
    assert h.exists("m/1/1")

    for server in sc.servers[1:]:  # one server left: no level has a quorum
        sc.fail_server(server.server_id)
    st = h.open_stream("m/1/2", 0)
    with pytest.raises(StorageLostError, match="no hierarchy level accepted"):
        st.send(4096, 0)
    assert not h.exists("m/1/2")


def _repro_backends():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    seen, todo = [], [StorageBackend]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [cls for cls in seen if cls.__module__.startswith("repro.")]


def test_every_backend_writes_through_its_stream():
    backends = _repro_backends()
    assert {"ReplicatedStore", "ErasureStore", "ContentStore",
            "HierarchicalStore", "NullStorage"} <= {c.__name__ for c in backends}
    second = [c.__qualname__ for c in backends if c.store is not StorageBackend.store]
    assert second == [], f"a second synchronous write path: {second}"
