"""Marker and stop-the-world protocols: cuts, manifests, aborts."""

from __future__ import annotations

import pytest

from repro.distsnap import (
    ChannelNetwork,
    MarkerProtocol,
    SnapRank,
    StopTheWorldProtocol,
    TrafficDriver,
    restore_snapshot,
    verify_exactly_once,
)
from repro.errors import DistSnapError
from repro.obs.export import export_obs, to_json
from repro.simkernel.engine import Engine
from repro.stablestore.replicated import ReplicatedStore
from repro.stablestore.server import StorageCluster


def build(n=4, seed=7, rate=8000.0, hetero=True):
    """All-to-all net with heterogeneous latencies + background traffic."""
    eng = Engine(seed=seed)
    net = ChannelNetwork(eng)
    for i in range(n):
        for j in range(n):
            if i != j:
                lat = 5_000 + (40_000 * ((i + 3 * j) % 5) if hetero else 0)
                net.connect(i, j, latency_ns=lat)
    drv = TrafficDriver(net, rate_per_s=rate)
    drv.start()
    ranks = [SnapRank(pid=p, endpoint=net.endpoint(p)) for p in range(n)]
    return eng, net, drv, ranks


def run_snapshot(eng, proto, limit_ns=2_000_000_000):
    token = proto.start()
    eng.run(until=lambda: token.done or token.cancelled,
            until_ns=eng.now_ns + limit_ns)
    return token


# ----------------------------------------------------------------------
# Marker protocol
# ----------------------------------------------------------------------
def test_marker_cut_manifest_shape():
    eng, net, drv, ranks = build()
    eng.run(until_ns=2_000_000)
    proto = MarkerProtocol(net, ranks, store=None, job="j")
    token = run_snapshot(eng, proto)
    assert token.done
    m = proto.manifest
    assert m.protocol == "marker"
    assert m.key.endswith("+cut") and m.key.startswith("distsnap/j/")
    assert sorted(m.endpoint_states) == [0, 1, 2, 3]
    assert len(m.topology) == 12
    assert m.downtime_ns == 0  # marker protocol never stops the job
    # Hooks released for the next snapshot.
    assert all(ep.on_marker is None for ep in net.endpoints())


def test_marker_logs_inflight_messages_under_skewed_latency():
    eng, net, drv, ranks = build(n=6, seed=13, rate=20000.0)
    eng.run(until_ns=3_000_000)
    proto = MarkerProtocol(net, ranks, store=None, job="j")
    token = run_snapshot(eng, proto)
    assert token.done
    # Slow channels race their markers against fast-channel data: the
    # cut must contain in-flight messages, and each logged record must
    # carry seqs just past the receiver's recorded counter.
    m = proto.manifest
    assert m.logged_message_count() > 0
    for chan, records in m.channel_messages.items():
        src, dst = (int(x) for x in chan.split("->"))
        recorded = m.endpoint_states[dst]["received"].get(str(src), 0)
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(recorded + 1, recorded + 1 + len(seqs)))


def test_marker_writes_manifest_through_stablestore():
    eng, net, drv, ranks = build()
    store = ReplicatedStore(StorageCluster(eng, n_servers=3), replication=2)
    eng.run(until_ns=2_000_000)
    proto = MarkerProtocol(net, ranks, store=store, job="j")
    token = run_snapshot(eng, proto)
    assert token.done
    assert store.exists(proto.manifest.key)
    assert store.peek(proto.manifest.key).is_cut_manifest


def test_marker_restart_replays_exactly_once():
    eng, net, drv, ranks = build(n=6, seed=13, rate=20000.0)
    store = ReplicatedStore(StorageCluster(eng, n_servers=3), replication=2)
    eng.run(until_ns=3_000_000)
    proto = MarkerProtocol(net, ranks, store=store, job="j")
    token = run_snapshot(eng, proto)
    assert token.done and proto.manifest.logged_message_count() > 0
    eng.run(until_ns=eng.now_ns + 2_000_000)  # job runs on, then dies
    drv.stop()
    res = restore_snapshot(store, proto.manifest.key, net, mechanisms=None)
    assert res.replayed == proto.manifest.logged_message_count()
    consumed = {ep.pid: ep.consumed for ep in net.endpoints()}
    eng.run(until_ns=eng.now_ns + 500_000_000)
    audit = verify_exactly_once(net, proto.manifest, consumed)
    assert audit["orphans"] == 0 and audit["duplicates"] == 0


def test_marker_initiator_validation_and_double_start():
    eng, net, drv, ranks = build()
    with pytest.raises(DistSnapError, match="initiator"):
        MarkerProtocol(net, ranks, initiator=99)
    proto = MarkerProtocol(net, ranks)
    proto.start()
    with pytest.raises(DistSnapError, match="already started"):
        proto.start()
    # A second protocol on the same endpoints must refuse to overlap.
    with pytest.raises(DistSnapError, match="already has a snapshot"):
        MarkerProtocol(net, ranks).start()


# ----------------------------------------------------------------------
# Stop-the-world protocol
# ----------------------------------------------------------------------
def test_stw_cut_has_empty_channels_and_downtime():
    eng, net, drv, ranks = build(n=4, rate=20000.0)
    eng.run(until_ns=2_000_000)
    inflight_at_start = net.inflight_count()
    proto = StopTheWorldProtocol(net, ranks, store=None, job="j")
    token = run_snapshot(eng, proto)
    assert token.done
    m = proto.manifest
    assert m.logged_message_count() == 0  # empty by construction
    assert m.downtime_ns > 0
    assert not net.paused  # resumed
    assert proto.drained_ns is not None and proto.quiesced_ns is not None
    assert inflight_at_start >= 0  # drain really had work or not; bound below


def test_stw_downtime_bounded_by_quiesce_plus_drain():
    eng, net, drv, ranks = build(n=8, rate=30000.0)
    eng.run(until_ns=2_000_000)
    deadline_before = net.drain_deadline_ns()
    t0 = eng.now_ns
    proto = StopTheWorldProtocol(net, ranks, store=None, job="j",
                                 control_latency_ns=10_000)
    token = run_snapshot(eng, proto)
    assert token.done
    # Sends stop at the pause instant, so nothing new enters the wire:
    # downtime <= control round-trip + the drain backlog at pause time.
    bound = 2 * 10_000 + max(0, deadline_before - t0)
    assert proto.manifest.downtime_ns <= bound


def test_stw_sends_resume_after_snapshot():
    eng, net, drv, ranks = build(rate=10000.0)
    eng.run(until_ns=1_000_000)
    proto = StopTheWorldProtocol(net, ranks, store=None)
    token = run_snapshot(eng, proto)
    assert token.done
    before = net.endpoint(0).sent.get(1, 0) + net.endpoint(0).sent.get(2, 0)
    eng.run(until_ns=eng.now_ns + 2_000_000)
    after = net.endpoint(0).sent.get(1, 0) + net.endpoint(0).sent.get(2, 0)
    assert after > before  # traffic flows again


# ----------------------------------------------------------------------
# Abort paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("proto_cls", [MarkerProtocol, StopTheWorldProtocol])
def test_abort_cancels_cleanly_no_pending_leak(proto_cls):
    eng, net, drv, ranks = build(rate=5000.0)
    eng.run(until_ns=1_000_000)
    proto = proto_cls(net, ranks, store=None, job="ab")
    token = proto.start()
    settled = []
    token.add_done_callback(lambda c: settled.append(c.cancelled))
    proto.abort("rank failure mid-snapshot")
    assert token.cancelled and settled == [True]
    assert proto.manifest is None
    assert not net.paused  # stw abort mid-quiesce must unpause
    assert eng.metrics.counters()["distsnap.snapshots_aborted"] == 1
    proto.abort("again")  # idempotent
    drv.stop()
    eng.run()
    assert eng.pending() == 0  # no leaked timers from the aborted run
    # Endpoint hooks are released: a fresh snapshot can run.
    proto2 = proto_cls(net, ranks, store=None, job="ab")
    drv2 = TrafficDriver(net, rate_per_s=5000.0)
    drv2.start()
    token2 = run_snapshot(eng, proto2)
    assert token2.done


def test_failure_watch_aborts_only_member_nodes():
    eng, net, drv, ranks = build()
    for rank, node in zip(ranks, (10, 11, 12, 13)):
        rank.node_id = node
    proto = MarkerProtocol(net, ranks, store=None)

    class FakeCluster:
        def __init__(self):
            self.watchers = []

        def on_failure(self, fn):
            self.watchers.append(fn)

    cl = FakeCluster()
    proto.attach_failure_watch(cl)
    proto.start()

    class FakeNode:
        def __init__(self, node_id):
            self.node_id = node_id

    for fn in cl.watchers:
        fn(FakeNode(99))  # bystander node: no abort
    assert not proto.aborted
    for fn in cl.watchers:
        fn(FakeNode(11))  # member node: abort
    assert proto.aborted


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["marker", "stw"])
def test_same_seed_byte_identical_obs_export(protocol):
    def run(seed):
        eng, net, drv, ranks = build(n=5, seed=seed, rate=15000.0)
        eng.run(until_ns=2_000_000)
        cls = MarkerProtocol if protocol == "marker" else StopTheWorldProtocol
        proto = cls(net, ranks, store=None, job="det")
        token = run_snapshot(eng, proto)
        assert token.done
        drv.stop()
        eng.run()
        doc = export_obs(
            eng.metrics, eng.tracer,
            meta={"protocol": protocol}, now_ns=eng.now_ns,
        )
        return to_json(doc)

    assert run(21) == run(21)
    assert run(21) != run(22)
