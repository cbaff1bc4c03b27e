"""Scenarios shared by the wall-clock harness and the CI check scripts.

``run_bench.py`` records what these scenarios measure in
``BENCH_PERF.json`` and guards its same-run ratios; each ``check_*.py``
script asserts its acceptance bars on the same runs.  Every scenario and
the one timing helper, :func:`best_of`, are defined here once, so a
recorded number and the bar that gates it always come from the same
code.

Import this module from a script in ``benchmarks/perf/`` (its directory
is then on ``sys.path``); it puts the repository's ``src/`` on the path
itself.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.simkernel.costs import NS_PER_S  # noqa: E402
from repro.simkernel.engine import Engine  # noqa: E402


def best_of(repeats: int, *fns: Callable[[], object]) -> List[float]:
    """Minimum wall-clock seconds of each of ``fns`` over ``repeats``
    rounds.  Each round runs every function once, in turn, so a change
    in the host's speed during the run reaches them alike and cancels
    out of their ratios."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Asynchronous C/R pipeline (run_bench ``pipeline``, check_pipeline)
# ----------------------------------------------------------------------
def pipeline_build(depth: int, count: int, compact=None):
    """Checkpoint one seeded SparseWriter ``count`` times through the
    autonomic checkpointer at ``pipeline_depth`` ``depth``.

    Returns ``(cluster, node, mechanism, last request)``; raises
    ``RuntimeError`` if a checkpoint does not complete.
    """
    from repro.cluster import Cluster
    from repro.core.checkpointer import RequestState
    from repro.core.direction import AutonomicCheckpointer
    from repro.workloads import SparseWriter

    cl = Cluster(n_nodes=1, seed=21, storage_servers=3, replication=2)
    node = cl.node(0)
    mech = AutonomicCheckpointer(node.kernel, node.remote_storage)
    mech.pipeline_depth = depth
    mech.rebase_every = 100
    mech.compaction_threshold = compact
    wl = SparseWriter(iterations=30_000, dirty_fraction=0.03,
                      heap_bytes=256 * 1024, seed=0, compute_ns=100_000)
    task = wl.spawn(node.kernel)
    mech.prepare_target(task)
    last = None
    for i in range(count):
        req = mech.request_checkpoint(task)
        cl.run_until(
            lambda: req.state in (RequestState.DONE, RequestState.FAILED),
            240 * NS_PER_S,
        )
        if req.state != RequestState.DONE:
            raise RuntimeError(f"checkpoint {i} at depth {depth} did not "
                               f"complete: {req.error}")
        last = req
    return cl, node, mech, last


def pipeline_deltas(mech) -> List:
    """The completed incremental requests of ``mech``."""
    return [r for r in mech.completed_requests() if r.image.is_incremental]


def mean_delta_stall(mech) -> float:
    """Mean application stall (virtual ns) of ``mech``'s delta checkpoints."""
    deltas = pipeline_deltas(mech)
    return sum(r.target_stall_ns for r in deltas) / len(deltas)


def pipeline_restart(chain_len: int) -> Tuple[int, int, int]:
    """Restart a ``chain_len``-image chain by the serial walk and by
    prefetch + chain compaction (threshold 4).

    Returns ``(serial_ns, prefetch_compact_ns, images read compacted)``.
    """
    _, node_s, mech_s, last_s = pipeline_build(4, chain_len)
    _, serial_ns = mech_s.image_chain(last_s.key, target_kernel=node_s.kernel)
    _, node_c, mech_c, last_c = pipeline_build(4, chain_len, compact=4)
    chain_c, compact_ns = mech_c.image_chain(
        last_c.key, target_kernel=node_c.kernel, prefetch=True
    )
    return serial_ns, compact_ns, len(chain_c)


# ----------------------------------------------------------------------
# Coordinated distributed snapshots (run_bench ``distsnap``, check_distsnap)
# ----------------------------------------------------------------------
DISTSNAP_N = 6
DISTSNAP_RATE = 15_000.0
DISTSNAP_WARMUP_NS = 3_000_000


def distsnap_build(seed: int):
    """All-to-all group with skewed latencies + background traffic.

    Returns ``(engine, network, traffic driver, ranks)``.
    """
    from repro.distsnap import ChannelNetwork, SnapRank, TrafficDriver

    eng = Engine(seed=seed)
    net = ChannelNetwork(eng)
    for i in range(DISTSNAP_N):
        for j in range(DISTSNAP_N):
            if i != j:
                net.connect(i, j,
                            latency_ns=5_000 + 40_000 * ((i + 3 * j) % 5))
    drv = TrafficDriver(net, rate_per_s=DISTSNAP_RATE)
    drv.start()
    ranks = [SnapRank(pid=p, endpoint=net.endpoint(p))
             for p in range(DISTSNAP_N)]
    return eng, net, drv, ranks


def distsnap_snapshot(eng, proto):
    """Drive the engine until the snapshot settles; returns its token."""
    token = proto.start()
    eng.run(until=lambda: token.done or token.cancelled,
            until_ns=eng.now_ns + 10_000_000_000)
    return token


def marker_cycle():
    """One Chandy-Lamport snapshot of the seed-13 group into a replicated
    store, then a restart from the cut and the channel audit.

    Returns ``(manifest, latency_ns, restore result, audit)``; raises
    ``RuntimeError`` if the snapshot does not complete.
    """
    from repro.distsnap import (
        MarkerProtocol, restore_snapshot, verify_exactly_once,
    )
    from repro.stablestore.replicated import ReplicatedStore
    from repro.stablestore.server import StorageCluster

    eng, net, drv, ranks = distsnap_build(seed=13)
    store = ReplicatedStore(StorageCluster(eng, n_servers=3), replication=2)
    eng.run(until_ns=DISTSNAP_WARMUP_NS)
    t0 = eng.now_ns
    proto = MarkerProtocol(net, ranks, store=store, job="marker")
    if not distsnap_snapshot(eng, proto).done:
        raise RuntimeError("marker snapshot did not complete")
    m = proto.manifest
    latency_ns = eng.now_ns - t0
    eng.run(until_ns=eng.now_ns + 2 * DISTSNAP_WARMUP_NS)
    drv.stop()
    res = restore_snapshot(store, m.key, net, mechanisms=None)
    consumed = {ep.pid: ep.consumed for ep in net.endpoints()}
    eng.run(until_ns=eng.now_ns + 1_000_000_000)
    audit = verify_exactly_once(net, m, consumed)
    return m, latency_ns, res, audit


# ----------------------------------------------------------------------
# Erasure tier and GF(2^8) kernels (run_bench ``erasure``,
# check_hierarchy, check_erasure)
# ----------------------------------------------------------------------
RS_K, RS_M = 4, 2
#: The 4 KiB blob the envelope and identity scenarios store.
SMALL_BLOB = bytes(range(256)) * 16


def erasure_envelope(width: int) -> Tuple[int, int]:
    """Store :data:`SMALL_BLOB` in a ``4+2`` group, fail ``width``
    servers, read back; over every ``width``-server combination.

    Returns ``(combinations tested, combinations read back exactly)``.
    """
    from repro.errors import StorageError
    from repro.stablestore import ErasureStore, StorageCluster

    tested = survived = 0
    for combo in itertools.combinations(range(RS_K + RS_M), width):
        engine = Engine(seed=23)
        store = ErasureStore(StorageCluster(engine, n_servers=RS_K + RS_M),
                             data_shards=RS_K, parity_shards=RS_M)
        store.store("e/1/1", SMALL_BLOB, len(SMALL_BLOB), 0)
        for sid in combo:
            store.storage.fail_server(sid)
        tested += 1
        try:
            survived += store.load("e/1/1", 10**9)[0] == SMALL_BLOB
        except StorageError:
            pass
    return tested, survived


def physical_bytes_vs_rf3() -> Tuple[int, int]:
    """Physical bytes of one 64 KiB blob in a ``4+2`` erasure group and
    under ``rf=3`` replication: ``(erasure, replicated)``."""
    from repro.stablestore import ErasureStore, ReplicatedStore, StorageCluster

    blob = b"x" * 65536
    rep = ReplicatedStore(StorageCluster(Engine(seed=23), n_servers=6),
                          replication=3)
    rep.store("m/1/1", blob, len(blob), 0)
    ec = ErasureStore(StorageCluster(Engine(seed=23), n_servers=6),
                      data_shards=RS_K, parity_shards=RS_M)
    ec.store("m/1/1", blob, len(blob), 0)
    return ec.physical_bytes(), rep.physical_bytes()


def hierarchy_identity() -> bool:
    """A depth<=1 hierarchy (one replicated level) exports the same
    ``repro.obs`` bytes as the bare :class:`ReplicatedStore` it wraps."""
    from repro.obs import export_obs, strip_metrics, to_json
    from repro.stablestore import (
        HierarchicalStore, ReplicatedStore, StorageCluster, StorageLevel,
    )

    def exercise(store, engine):
        for i in range(4):
            store.store(f"m/{i}/1", SMALL_BLOB, len(SMALL_BLOB), 0)
        for i in range(4):
            store.load(f"m/{i}/1", 10**8)
            store.load_fanout(f"m/{i}/1", 2 * 10**8)
        st = store.open_stream("m/9/1", 0)
        st.send(4096, 0)
        st.commit(SMALL_BLOB, len(SMALL_BLOB), 10**6)
        doc = export_obs(engine.metrics, meta={"check": "hier-identity"},
                         now_ns=engine.now_ns)
        return to_json(strip_metrics(doc, prefixes=("hierarchy.",)))

    eb = Engine(seed=7)
    bare = ReplicatedStore(StorageCluster(eb, n_servers=3), replication=2)
    ew = Engine(seed=7)
    wrapped = HierarchicalStore(ew, [
        StorageLevel("only",
                     ReplicatedStore(StorageCluster(ew, n_servers=3),
                                     replication=2)),
    ])
    return exercise(bare, eb) == exercise(wrapped, ew)


def rs_payload(kib: int, seed: int) -> bytes:
    """``kib`` KiB of seeded random bytes."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, kib * 1024, dtype=np.uint8).tobytes()


def rs_dirty(payload: bytes, dirty_fraction: float,
             seed: int) -> Tuple[List[Tuple[int, int]], bytes]:
    """A ``dirty_fraction`` of ``payload`` rewritten as evenly spread
    256-byte runs of seeded random bytes: ``(dirty extents, new payload)``."""
    rng = np.random.default_rng(seed)
    run_len = 256
    n_runs = max(1, int(len(payload) * dirty_fraction) // run_len)
    stride = len(payload) // n_runs
    dirty = [(i * stride, run_len) for i in range(n_runs)]
    new_payload = bytearray(payload)
    for off, length in dirty:
        new_payload[off : off + length] = rng.integers(
            0, 256, length, dtype=np.uint8
        ).tobytes()
    return dirty, bytes(new_payload)


def rs_encode_reference(payload: bytes, k: int, m: int) -> List[bytes]:
    """The seed codec's encode, which the packed kernel is timed
    against: one fancy-indexed product-table row gather per parity
    coefficient (about 160 MB/s at 4+2 on 256 KiB on the host that
    recorded the seed).  Same shards as ``rs_encode``."""
    from repro.stablestore.erasure import _GF_MUL, _cauchy_rows

    shard_len = -(-len(payload) // k)
    data = np.zeros((k, shard_len), dtype=np.uint8)
    data.reshape(-1)[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    coefficients = _cauchy_rows(k, m)
    parity = np.zeros((m, shard_len), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            c = int(coefficients[i, j])
            if c:
                parity[i] ^= _GF_MUL[c][data[j]]
    return [data[i].tobytes() for i in range(k)] + [
        parity[i].tobytes() for i in range(m)
    ]


def rs_delta_kernel_bytes(payload: bytes, dirty, new_payload: bytes):
    """Kernel bytes of re-protecting ``new_payload`` by a delta parity
    update and by a full re-encode, and whether the two parities agree.

    Returns ``(delta bytes, full bytes, byte identical)``.
    """
    from repro.stablestore import (
        KERNEL_STATS, reset_kernel_stats, rs_encode, rs_update_parity,
    )

    old_parity = rs_encode(payload, RS_K, RS_M)[RS_K:]
    reset_kernel_stats()
    updated = rs_update_parity(old_parity, dirty, payload, new_payload,
                               RS_K, RS_M)
    delta_bytes = KERNEL_STATS["delta_bytes"]
    reset_kernel_stats()
    full = rs_encode(new_payload, RS_K, RS_M)
    full_bytes = KERNEL_STATS["encode_bytes"]
    reset_kernel_stats()
    return delta_bytes, full_bytes, updated == full[RS_K:]


# ----------------------------------------------------------------------
# Conservative parallel engine (run_bench ``parallel_engine``,
# check_parallel)
# ----------------------------------------------------------------------
STORM_NODES = 65536
STORM_MTBF_S = 200_000.0
STORM_HORIZON_S = 1800.0
#: The storm's small twin: 1/16 of the nodes at 1/16 of the node MTBF,
#: so the fleet fails at the same rate over the same horizon.
SMALL_STORM_NODES = 4096


def bench_workers() -> int:
    """Worker processes for the multi-process storm and grid sweeps: one
    per core, at least 2 (so the process path always runs), at most 4."""
    return max(2, min(4, os.cpu_count() or 1))


def storm(shards: int, workers: int = 1, nodes: int = STORM_NODES):
    """One seeded failure-storm fleet (every transition a dispatcher
    event) through :func:`repro.runner.run_parallel`, with a barrier
    every 30 simulated seconds.  The node MTBF scales with ``nodes``,
    so a storm over fewer nodes keeps the fleet's failure rate and
    about the same event count."""
    from repro.runner import run_parallel

    return run_parallel(
        "repro.cluster.scenarios:fleet_storm",
        {"n_nodes": nodes, "mtbf_s": STORM_MTBF_S * nodes / STORM_NODES,
         "repair_s": 30.0, "model": "exp"},
        17,
        n_shards=shards,
        horizon_ns=int(STORM_HORIZON_S * NS_PER_S),
        window_ns=30 * NS_PER_S,
        workers=workers,
        meta={"experiment": "storm", "n_nodes": nodes, "seed": 17},
    )


# ----------------------------------------------------------------------
# Sharded experiment runner (run_bench ``grid_runner``, check_runner)
# ----------------------------------------------------------------------
def e12_cells(sizes, n_trials: int, node_mtbf_s: float = 50.0) -> List:
    """Fleet-vectorized E12 system-MTBF cells, one per machine size;
    each cell's result embeds a ``repro.obs`` export."""
    from repro.runner import Cell
    from repro.runner.experiments import e12_mtbf_cell

    return [
        Cell("e12", e12_mtbf_cell,
             {"n_nodes": n, "node_mtbf_s": node_mtbf_s, "n_trials": n_trials},
             seed=12)
        for n in sizes
    ]

