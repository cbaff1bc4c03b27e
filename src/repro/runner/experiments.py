"""Importable grid-cell functions for the E-series experiment sweeps.

Worker processes re-import these by name, so every cell here is a
top-level function ``fn(params, seed) -> dict`` returning only
JSON-serializable data (rendered tables and timelines as strings,
``repro.obs`` exports as documents).  Each cell builds its own engine
from its seed: running a cell twice, in any process, yields identical
bytes -- the property the runner's deterministic merge and the CI
worker-count smoke rest on.

The E12 cell is the BlueGene/L-scale one: it measures system MTBF on
the counter-based per-node streams a :class:`~repro.cluster.ShardFleet`
cohort draws from, so 65,536 nodes cost one vectorized draw per trial
instead of 65,536 scheduled callbacks.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

import numpy as np

from ..cluster import (
    CheckpointCoordinator,
    Cluster,
    ExponentialFailures,
    ParallelJob,
    ShardFleet,
    trial_first_failure_s,
)
from ..core.direction import AutonomicCheckpointer
from ..mechanisms import UCLiK
from ..obs import export_obs
from ..reporting import render_replication_table, render_timeline
from ..simkernel.costs import NS_PER_MS, NS_PER_S
from ..simkernel.engine import Engine
from ..workloads import SparseWriter
from .parallel import run_parallel

__all__ = [
    "e12_mtbf_cell",
    "e12_parallel_cell",
    "e13_survivability_cell",
    "e18_parallel_cell",
    "e19_replication_cell",
    "e22_parallel_cell",
    "e23_hierarchy_cell",
]


def _writer(rank: int) -> SparseWriter:
    """The standard 2-rank experiment workload."""
    return SparseWriter(
        iterations=4000, dirty_fraction=0.03, heap_bytes=512 * 1024,
        seed=rank, compute_ns=100_000,
    )


# ----------------------------------------------------------------------
# E12: system MTBF vs machine size, fleet-vectorized
# ----------------------------------------------------------------------
def e12_mtbf_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Measure time-to-first-failure for an ``n_nodes`` machine.

    ``n_trials`` distributional trials read the per-node streams
    directly (:func:`~repro.cluster.trial_first_failure_s`); one
    additional engine-driven run (dispatcher event through the timer
    wheel) produces the cell's ``repro.obs`` export.
    """
    n_nodes = int(params["n_nodes"])
    node_mtbf_s = float(params["node_mtbf_s"])
    n_trials = int(params.get("n_trials", 200))

    model = ExponentialFailures(node_mtbf_s, stream_seed=seed)
    ttfs = [trial_first_failure_s(model, 0, n_nodes, t)
            for t in range(n_trials)]

    # One run through the event loop for the observability export.
    eng = Engine(seed=seed)
    fleet = ShardFleet(eng, 0, n_nodes, model, repair_s=1e12)
    fleet.start()
    eng.run(until=lambda: fleet.failures > 0,
            until_ns=int(100 * node_mtbf_s * NS_PER_S))
    return {
        "n_nodes": n_nodes,
        "node_mtbf_s": node_mtbf_s,
        "n_trials": n_trials,
        "sim_system_mtbf_s": float(np.mean(ttfs)),
        "analytic_system_mtbf_s": node_mtbf_s / n_nodes,
        "first_failure_ns": fleet.first_failure_ns,
        "obs": export_obs(
            eng.metrics, tracer=eng.tracer,
            meta={"experiment": "e12", "n_nodes": n_nodes, "seed": seed},
            now_ns=eng.now_ns,
        ),
    }


# ----------------------------------------------------------------------
# E12 at fleet scale: sharded conservative-window runs
# ----------------------------------------------------------------------
def e12_parallel_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E12 rescaled past one core: MTBF of 262,144- and 1,048,576-node
    machines on the sharded engine.

    Distributional trials read the counter-based per-node streams
    directly (:func:`~repro.cluster.trial_first_failure_s` -- one
    vectorized draw per trial, shard-partition-invariant by
    construction); one engine-driven :func:`run_parallel` probe run
    with ``stop_on_first_failure`` produces the folded obs export the
    1-vs-N byte-identity gate covers.
    """
    n_nodes = int(params["n_nodes"])
    node_mtbf_s = float(params["node_mtbf_s"])
    n_trials = int(params.get("n_trials", 50))
    shards = int(params.get("shards", 4))
    system_mtbf_s = node_mtbf_s / n_nodes

    model = ExponentialFailures(node_mtbf_s, stream_seed=seed)
    ttfs = [trial_first_failure_s(model, 0, n_nodes, t)
            for t in range(n_trials)]

    probe = run_parallel(
        "repro.cluster.scenarios:fleet_storm",
        {"n_nodes": n_nodes, "mtbf_s": node_mtbf_s, "repair_s": 1e12,
         "stop_on_first_failure": True},
        seed,
        n_shards=shards,
        horizon_ns=int(100 * system_mtbf_s * NS_PER_S),
        window_ns=max(1, int(system_mtbf_s * NS_PER_S) // 4),
        meta={"experiment": "e12p", "n_nodes": n_nodes, "seed": seed},
    )
    firsts = [r["first_failure_ns"] for r in probe.shard_results
              if r["first_failure_ns"] is not None]
    return {
        "n_nodes": n_nodes,
        "node_mtbf_s": node_mtbf_s,
        "n_trials": n_trials,
        "shards": shards,
        "sim_system_mtbf_s": float(np.mean(ttfs)),
        "analytic_system_mtbf_s": system_mtbf_s,
        "first_failure_ns": min(firsts) if firsts else None,
        "windows": probe.stats.windows,
        "obs": probe.obs,
    }


# ----------------------------------------------------------------------
# E18 at fleet scale: failure churn plus storage restart traffic
# ----------------------------------------------------------------------
def e18_parallel_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E18's direction-forward fleet rescaled onto the sharded engine:
    every failure pulls a restart image from the sharded stable-storage
    tier, so availability and storage load come from one run."""
    n_nodes = int(params["n_nodes"])
    shards = int(params.get("shards", 4))
    horizon_s = float(params.get("horizon_s", 3600.0))
    propagation_ns = int(params.get("propagation_ns", NS_PER_MS))
    run_params = {
        "n_nodes": n_nodes,
        "mtbf_s": float(params.get("mtbf_s", 3.0e5)),
        "repair_s": float(params.get("repair_s", 300.0)),
        "model": params.get("model", "exp"),
        "n_servers": int(params.get("n_servers", 16)),
        "image_bytes": int(params.get("image_bytes", 1 << 26)),
        "propagation_ns": propagation_ns,
        "service_floor_ns": int(params.get("service_floor_ns", NS_PER_MS)),
        "ns_per_byte": float(params.get("ns_per_byte", 0.01)),
    }
    res = run_parallel(
        "repro.cluster.scenarios:fleet_restart_traffic",
        run_params, seed,
        n_shards=shards,
        horizon_ns=int(horizon_s * NS_PER_S),
        lookahead_ns=propagation_ns,
        meta={"experiment": "e18p", "n_nodes": n_nodes, "seed": seed},
    )
    downtime_ns = sum(r["downtime_ns"] for r in res.shard_results)
    counters = res.obs["metrics"]["counters"]
    return {
        "n_nodes": n_nodes,
        "shards": shards,
        "horizon_s": horizon_s,
        "failures": counters.get("fleet.failures", 0),
        "restart_reads": counters.get("sstore.requests", 0),
        "restart_acks": counters.get("sstore.acks", 0),
        "restart_bytes": counters.get("sstore.req_bytes", 0),
        "availability": 1.0 - downtime_ns / (n_nodes * horizon_s * NS_PER_S),
        "windows": res.stats.windows,
        "envelopes": res.stats.exchanged,
        "obs": res.obs,
    }


# ----------------------------------------------------------------------
# E22 stressor: all-cross-shard ring traffic
# ----------------------------------------------------------------------
def e22_parallel_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Ring-traffic stressor: every message hop crosses the barrier
    exchange, and the order-invariant xor digest proves exactly-once
    delivery independent of shard count."""
    n_ranks = int(params.get("n_ranks", 64))
    shards = int(params.get("shards", 4))
    hop_ns = int(params.get("hop_ns", 50_000))
    run_params = {
        "n_ranks": n_ranks,
        "hop_ns": hop_ns,
        "hops": int(params.get("hops", 8)),
        "msgs_per_rank": int(params.get("msgs_per_rank", 4)),
    }
    res = run_parallel(
        "repro.cluster.scenarios:ring_traffic",
        run_params, seed,
        n_shards=shards,
        horizon_ns=int(params.get("horizon_ns", NS_PER_S)),
        lookahead_ns=hop_ns,
        meta={"experiment": "e22p", "n_ranks": n_ranks, "seed": seed},
    )
    digest = 0
    for r in res.shard_results:
        digest ^= r["digest"]
    counters = res.obs["metrics"]["counters"]
    return {
        "n_ranks": n_ranks,
        "shards": shards,
        "sent": counters.get("ring.sent", 0),
        "recv": counters.get("ring.recv", 0),
        "exactly_once": counters.get("ring.sent", 0) ==
        counters.get("ring.recv", -1),
        "digest": f"{digest:016x}",
        "windows": res.stats.windows,
        "envelopes": res.stats.exchanged,
        "obs": res.obs,
    }


# ----------------------------------------------------------------------
# E13: local vs remote checkpoint survivability
# ----------------------------------------------------------------------
def e13_survivability_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One E13 scenario: ``local`` / ``remote`` node-failure runs or the
    ``reboot`` power-cycle case local storage does handle."""
    scenario = params["scenario"]
    if scenario == "reboot":
        cl = Cluster(n_nodes=1, seed=seed)
        node = cl.node(0)
        mech = UCLiK(node.kernel, node.local_storage)
        wl = _writer(0)
        task = wl.spawn(node.kernel)
        cl.run_for(50 * NS_PER_MS)
        req = mech.request_checkpoint(task)
        cl.run_for(2 * NS_PER_S)
        cl.fail_node(0)
        node.repair(disk_survived=True)
        mech2 = UCLiK(node.kernel, node.local_storage)
        res = mech2.restart(req.key)
        node.kernel.run_until_exit(res.task, limit_ns=10**13)
        return {
            "scenario": scenario,
            "completed": res.task.exit_code == 0,
            "checkpoint_completed": req.completed_ns is not None,
            "obs": export_obs(
                cl.engine.metrics, tracer=cl.engine.tracer,
                meta={"experiment": "e13", "scenario": scenario, "seed": seed},
                now_ns=cl.engine.now_ns,
            ),
        }

    cl = Cluster(n_nodes=2, n_spares=1, seed=seed)
    job = ParallelJob(cl, _writer, n_ranks=2, name=scenario)
    if scenario == "local":
        mechs = {n.node_id: UCLiK(n.kernel, n.local_storage) for n in cl.nodes}
    else:
        mechs = {
            n.node_id: AutonomicCheckpointer(n.kernel, cl.remote_storage)
            for n in cl.nodes
        }
    coord = CheckpointCoordinator(job, mechs, 30 * NS_PER_MS)
    coord.start()
    cl.engine.after(100 * NS_PER_MS, lambda: cl.fail_node(0))
    done = job.run_to_completion(limit_ns=120 * NS_PER_S)
    return {
        "scenario": scenario,
        "completed": done,
        "waves": len(coord.waves),
        "recoveries": coord.recoveries,
        "unrecoverable": coord.unrecoverable,
        "obs": export_obs(
            cl.engine.metrics, tracer=cl.engine.tracer,
            meta={"experiment": "e13", "scenario": scenario, "seed": seed},
            now_ns=cl.engine.now_ns,
        ),
    }


# ----------------------------------------------------------------------
# E19: replicated stable storage under storage-server failures
# ----------------------------------------------------------------------
def e19_replication_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One E19 grid cell: a 2-rank coordinated job over the replicated
    service, ``storage_failures`` injected storage-server failures
    (each targeting a holder of the latest wave, so the hit is never
    vacuous), then a compute-node failure."""
    rf = int(params["rf"])
    storage_failures = int(params["storage_failures"])
    repair = bool(params.get("repair", True))
    interval_ns = int(params.get("interval_ns", 25 * NS_PER_MS))

    cl = Cluster(
        n_nodes=2, n_spares=2, seed=seed,
        storage_servers=3, replication=rf, storage_repair=repair,
    )
    job = ParallelJob(cl, _writer, n_ranks=2, name=f"rf{rf}")
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, n.remote_storage)
        for n in cl.nodes
    }
    coord = CheckpointCoordinator(job, mechs, interval_ns)
    coord.start()
    store = cl.remote_storage

    def fail_holder():
        if not coord.waves:
            cl.engine.after(10 * NS_PER_MS, fail_holder)
            return
        key = next(iter(coord.waves[-1].values()))[0]
        holders = store.holders(key)
        if holders:
            cl.fail_storage_server(holders[0])

    if storage_failures >= 1:
        cl.engine.after(60 * NS_PER_MS, fail_holder)
    if storage_failures >= 2:
        cl.engine.after(140 * NS_PER_MS, fail_holder)
    cl.engine.after(220 * NS_PER_MS, lambda: cl.fail_node(0))
    done = job.run_to_completion(limit_ns=120 * NS_PER_S)
    label = params.get("label", f"rf={rf}, {storage_failures} failures")
    return {
        "completed": done,
        "waves": len(coord.waves),
        "recoveries": coord.recoveries,
        "unrecoverable": coord.unrecoverable,
        "fallbacks": coord.generation_fallbacks,
        "lost": len(store.lost_keys()),
        "write_retries": store.write_retries,
        "backoff_ns": store.backoff_ns_total,
        "quorum_write_failures": store.quorum_write_failures,
        "repairs": cl.storage_repairer.repairs_completed
        if cl.storage_repairer is not None else 0,
        "timeline": render_timeline(cl.engine),
        "replication_table": render_replication_table(
            store, cl.storage_repairer,
            title=f"Service state after the {label} run",
        ),
        "obs": export_obs(
            cl.engine.metrics, tracer=cl.engine.tracer,
            meta={"experiment": "e19", "rf": rf,
                  "storage_failures": storage_failures, "seed": seed},
            now_ns=cl.engine.now_ns,
        ),
    }


# ----------------------------------------------------------------------
# E23: multi-level stable storage with an erasure-coded backing tier
# ----------------------------------------------------------------------
def e23_hierarchy_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One E23 grid cell: a 2-rank coordinated job whose stable storage
    is a partner-replica level backed (write-through or write-back) by a
    Reed-Solomon ``k+m`` erasure group on its own failure domain.

    ``fail_erasure`` erasure-group servers and ``fail_partner`` partner
    servers die mid-run, then a compute node dies; the restart must be
    served by whatever levels survive -- including degraded ``k``-of-
    ``k+m`` reads when the partner tier is gone entirely.
    """
    k, m = (int(x) for x in params.get("erasure", (4, 2)))
    policy = str(params.get("policy", "back"))
    fail_erasure = int(params.get("fail_erasure", 0))
    fail_partner = int(params.get("fail_partner", 0))
    repair = bool(params.get("repair", True))
    erasure_servers = params.get("erasure_servers")
    interval_ns = int(params.get("interval_ns", 25 * NS_PER_MS))

    hier_spec = {
        "partner_rf": 2, "erasure": (k, m), "erasure_policy": policy,
    }
    if erasure_servers is not None:
        hier_spec["erasure_servers"] = int(erasure_servers)
    cl = Cluster(
        n_nodes=2, n_spares=2, seed=seed,
        storage_servers=3, storage_repair=repair,
        storage_hierarchy=hier_spec,
    )
    job = ParallelJob(cl, _writer, n_ranks=2, name=f"ec{k}+{m}")
    mechs = {
        n.node_id: AutonomicCheckpointer(n.kernel, n.remote_storage)
        for n in cl.nodes
    }
    coord = CheckpointCoordinator(job, mechs, interval_ns)
    coord.start()
    hier = cl.hierarchy_store
    ers = cl.erasure_store

    def fail_tiers():
        if not coord.waves:  # wait until a wave is actually protected
            cl.engine.after(10 * NS_PER_MS, fail_tiers)
            return
        for sid in range(fail_erasure):
            cl.fail_erasure_server(sid)
        for sid in range(fail_partner):
            cl.fail_storage_server(sid)

    if fail_erasure or fail_partner:
        cl.engine.after(140 * NS_PER_MS, fail_tiers)
    cl.engine.after(220 * NS_PER_MS, lambda: cl.fail_node(0))
    done = job.run_to_completion(limit_ns=120 * NS_PER_S)
    by_level = hier.level_physical_bytes()
    return {
        "completed": done,
        "waves": len(coord.waves),
        "recoveries": coord.recoveries,
        "unrecoverable": coord.unrecoverable,
        "fallbacks": coord.generation_fallbacks,
        "lost_erasure": len(ers.lost_keys()),
        "under_replicated": len(ers.under_replicated()),
        "degraded_reads": ers.degraded_reads,
        "ec_write_quorum_failures": ers.quorum_write_failures,
        "ec_read_quorum_failures": ers.quorum_read_failures,
        "shard_repairs": cl.erasure_repairer.repairs_completed
        if cl.erasure_repairer is not None else 0,
        "replica_repairs": cl.storage_repairer.repairs_completed
        if cl.storage_repairer is not None else 0,
        "promotions": hier.promotions,
        "reprotects": hier.reprotects,
        "bytes_by_level": dict(by_level),
        "timeline": render_timeline(cl.engine),
        "obs": export_obs(
            cl.engine.metrics, tracer=cl.engine.tracer,
            meta={"experiment": "e23", "k": k, "m": m, "policy": policy,
                  "fail_erasure": fail_erasure, "fail_partner": fail_partner,
                  "seed": seed},
            now_ns=cl.engine.now_ns,
        ),
    }
