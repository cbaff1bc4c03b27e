"""CommunicatingJob wiring: real checkpointers, spare-node restore,
generation-GC cut pinning."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CommunicatingJob
from repro.core.direction import AutonomicCheckpointer
from repro.distsnap import TrafficDriver, verify_exactly_once
from repro.errors import DistSnapError
from repro.stablestore.gc import GenerationGC
from repro.workloads import SparseWriter


def build_job(n_ranks=4, topology="ring", seed=42, content_dedup=False):
    cl = Cluster(n_nodes=4, n_spares=1, seed=seed,
                 storage_servers=3, replication=2,
                 content_dedup=content_dedup)
    job = CommunicatingJob(
        cl, lambda r: SparseWriter(), n_ranks=n_ranks, name="cj",
        topology=topology, channel_latency_ns=30_000,
    )
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, n.remote_storage)
        for n in cl.compute_nodes()
    }
    store = cl.nodes[0].remote_storage
    return cl, job, mechs, store


def snapshot(cl, job, mechs, store, protocol="marker"):
    proto = job.snapshot(store, mechs, protocol=protocol)
    token = proto.start()
    cl.engine.run(until=lambda: token.done or token.cancelled,
                  until_ns=cl.engine.now_ns + 5_000_000_000)
    assert token.done
    return proto


def test_topologies():
    assert CommunicatingJob._edges("ring", 4) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert CommunicatingJob._edges("ring", 1) == []
    assert len(CommunicatingJob._edges("all", 5)) == 10
    assert CommunicatingJob._edges([(0, 2)], 3) == [(0, 2)]
    with pytest.raises(DistSnapError):
        CommunicatingJob._edges([(0, 9)], 3)
    with pytest.raises(DistSnapError):
        CommunicatingJob._edges("torus", 3)
    with pytest.raises(DistSnapError):
        build_job()[1].snapshot(None, {}, protocol="nope")


def test_coordinated_snapshot_names_one_image_per_rank():
    cl, job, mechs, store = build_job()
    drv = TrafficDriver(job.net, rate_per_s=10000.0)
    drv.start()
    cl.engine.run(until_ns=3_000_000)
    proto = snapshot(cl, job, mechs, store)
    m = proto.manifest
    assert sorted(m.rank_images) == [0, 1, 2, 3]
    assert store.exists(m.key)
    for key in m.pinned_keys():
        assert store.exists(key)
    drv.stop()


def test_whole_job_restore_onto_spare_after_node_failure():
    cl, job, mechs, store = build_job()
    drv = TrafficDriver(job.net, rate_per_s=10000.0)
    drv.start()
    cl.engine.run(until_ns=3_000_000)
    proto = snapshot(cl, job, mechs, store)
    cl.engine.run(until_ns=cl.engine.now_ns + 3_000_000)
    drv.stop()

    victim = job.ranks[1].node.node_id
    cl.fail_node(victim)
    res = job.restore(store, proto.manifest.key, mechs)
    assert job.ranks[1].node.node_id != victim  # placed on the spare
    assert res.replayed == proto.manifest.logged_message_count()
    consumed = {ep.pid: ep.consumed for ep in job.net.endpoints()}
    cl.engine.run(until_ns=cl.engine.now_ns + 1_000_000_000)
    audit = verify_exactly_once(job.net, proto.manifest, consumed)
    assert audit["orphans"] == 0 and audit["duplicates"] == 0
    assert job.restarts == 1
    # Restored tasks are live bindings on up nodes.
    for rank in job.ranks:
        assert rank.node.up


def test_marker_cut_and_restore_on_content_dedup_store():
    """The cut streams its manifest as raw bytes; a dedup store passes
    them through to its inner backend instead of rejecting them."""
    cl, job, mechs, store = build_job(content_dedup=True)
    drv = TrafficDriver(job.net, rate_per_s=10000.0)
    drv.start()
    cl.engine.run(until_ns=3_000_000)
    proto = snapshot(cl, job, mechs, store)
    assert store.exists(proto.manifest.key)
    cl.engine.run(until_ns=cl.engine.now_ns + 3_000_000)
    drv.stop()

    victim = job.ranks[1].node.node_id
    cl.fail_node(victim)
    res = job.restore(store, proto.manifest.key, mechs)
    assert job.ranks[1].node.node_id != victim
    assert res.replayed == proto.manifest.logged_message_count()


def test_stw_snapshot_through_cluster_path():
    cl, job, mechs, store = build_job(topology="all")
    drv = TrafficDriver(job.net, rate_per_s=15000.0)
    drv.start()
    cl.engine.run(until_ns=2_000_000)
    proto = snapshot(cl, job, mechs, store, protocol="stw")
    assert proto.manifest.logged_message_count() == 0
    assert proto.manifest.downtime_ns > 0
    assert not job.net.paused
    drv.stop()


def test_generation_gc_never_collects_cut_pinned_images():
    """Regression (satellite 2): per-rank images referenced by a cut
    manifest survive generation pruning -- and are released once the
    manifest itself is deleted."""
    cl, job, mechs, store = build_job()
    drv = TrafficDriver(job.net, rate_per_s=8000.0)
    drv.start()
    cl.engine.run(until_ns=3_000_000)
    proto = snapshot(cl, job, mechs, store)
    pinned = proto.manifest.pinned_keys()
    drv.stop()

    # Newer per-rank checkpoints supersede the cut's generation.
    for rank in job.ranks:
        mech = mechs.get(rank.node.node_id) or next(iter(mechs.values()))
        mech.request_checkpoint(rank.task)
    cl.engine.run(until_ns=cl.engine.now_ns + 2_000_000_000)

    gc = GenerationGC(store, keep=1, metrics=cl.engine.metrics)
    collected = gc.sweep()
    assert not set(collected) & set(pinned)
    for key in pinned:
        assert store.exists(key), f"GC collected pinned rank image {key}"

    # Manifest gone -> the pins are released on the next sweep.
    store.delete(proto.manifest.key)
    gc.sweep()
    assert any(not store.exists(k) for k in pinned)
