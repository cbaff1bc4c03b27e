"""The three benchmark workloads, each driven through the public API.

Every workload is a closed loop (the simulator is a batch program: the
next step starts only when the previous one has finished) and follows
one protocol, so ``run.py`` can time them alike:

``reference()``
    Computed once per run, outside every timed region: the outputs the
    timed iterations are checked against.
``setup()``
    Builds one fresh instance of the simulated system (timed as
    ``setup_s``).
``run(state)``
    The timed part (``wall_s``).
``check(state, ref)``
    Returns ``(attempted, failed, problems)`` for the operations the
    timed part issued, plus the output self-checks.
``results(state)``
    Virtual-time (``sim_*``) results, exact counts and per-layer counts.

Inputs come only from the seed: the same seed gives the same inputs,
so every virtual-time result and exact count repeats bit for bit.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
from repro.core.checkpointer import RequestState
from repro.core.direction import AutonomicCheckpointer
from repro.runner.parallel import run_parallel
from repro.simkernel import ops
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.stablestore.erasure import KERNEL_STATS, reset_kernel_stats
from repro.workloads import SparseWriter, Workload, memory_digest

__all__ = ["WORKLOADS"]

PAGE = 4096
#: The direction-forward storage stack every data workload runs on.
HIERARCHY = {"partner_rf": 2, "erasure": (4, 2)}


def _full_stack_mechanism(node) -> AutonomicCheckpointer:
    mech = AutonomicCheckpointer(node.kernel, node.remote_storage)
    mech.pipeline_depth = 4
    mech.compaction_threshold = 4
    return mech


def _storage_counts(cl: Cluster) -> Dict[str, float]:
    """Per-layer storage counts shared by the two data workloads."""
    c = cl.engine.metrics.counters()
    cs = cl.content_store
    hits, misses = c.get("dedup.hits", 0), c.get("dedup.misses", 0)
    return {
        "capture.pages": c.get("capture.pages", 0),
        "capture.bytes": c.get("capture.bytes", 0),
        "dedup.payload_bytes": cs.logical_payload_bytes,
        "dedup.unique_bytes": cs.unique_payload_bytes,
        "dedup.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "erasure.encode_bytes": KERNEL_STATS["encode_bytes"],
        "erasure.delta_bytes": KERNEL_STATS["delta_bytes"],
        "erasure.decode_bytes": KERNEL_STATS["decode_bytes"],
        "erasure.degraded_reads": c.get("storage.degraded_reads", 0),
        "hierarchy.writeback_bytes": c.get("hierarchy.writeback_bytes", 0),
        "pipeline.stalls": c.get("pipeline.stalls", 0),
        "pipeline.stall_ns": c.get("pipeline.stall_ns", 0),
        "replicated.quorum_failures": (
            c.get("storage.quorum_write_failures", 0)
            + c.get("storage.quorum_read_failures", 0)),
        "engine.events": c.get("engine.events", 0),
    }


def _mean_stall_ms(cl: Cluster) -> float:
    return cl.engine.metrics.get("checkpoint.stall_ns").mean / NS_PER_MS


def _restored_bytes(task) -> int:
    return task.mm.total_present_pages() * PAGE


# ----------------------------------------------------------------------
# job_failover
# ----------------------------------------------------------------------
class JobFailover:
    """A 4-rank job riding through compute-node and erasure-server
    failures under coordinated automatic checkpoints.

    Failures are placed relative to completed waves (a fixed delay after
    wave N lands), so every recovery has a checkpoint to return to and
    the lost work per failure stays comparable across seeds.  The two
    node failures come as one burst (a rack losing two nodes), so both
    recoveries restore images captured before any recovery: a recovery
    from a wave taken *after* an earlier recovery restores ranks with
    missing pages today (see NOTES.md, known gaps).
    """

    name = "job_failover"
    N_RANKS = 4
    ITERATIONS = 700
    COMPUTE_NS = 4 * NS_PER_MS
    INTERVAL_NS = 200 * NS_PER_MS
    #: (waves completed, delay after that wave, kind, rank or server).
    PLAN = ((3, 60 * NS_PER_MS, "node", 0), (3, 62 * NS_PER_MS, "node", 1),
            (5, 60 * NS_PER_MS, "erasure", 1))
    LIMIT_NS = 120 * NS_PER_S

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _build(self, failures: bool) -> Dict[str, Any]:
        seed = self.seed
        cl = Cluster(n_nodes=self.N_RANKS, n_spares=4, seed=seed,
                     storage_servers=3, content_dedup=True,
                     storage_hierarchy=dict(HIERARCHY))

        def factory(rank: int) -> Workload:
            return SparseWriter(iterations=self.ITERATIONS, dirty_fraction=0.02,
                                heap_bytes=1 << 20, seed=seed * 1009 + rank,
                                compute_ns=self.COMPUTE_NS)

        job = ParallelJob(cl, factory, n_ranks=self.N_RANKS, name="failover")
        mechs = {n.node_id: _full_stack_mechanism(n) for n in cl.nodes}
        coord = CheckpointCoordinator(job, mechs, self.INTERVAL_NS,
                                      restore_prefetch=True)
        coord.start()
        state = {"cl": cl, "job": job, "coord": coord, "mechs": mechs,
                 "restart_ns": [], "restored_bytes": 0}
        if failures:
            self._arm_failures(state)
        return state

    def _arm_failures(self, state: Dict[str, Any]) -> None:
        cl, coord, job = state["cl"], state["coord"], state["job"]
        plan = list(self.PLAN)

        def act(kind: str, target: int) -> None:
            if kind == "node":
                cl.fail_node(job.ranks[target].node.node_id)
            else:
                cl.fail_erasure_server(target)

        def poll() -> None:
            while plan and len(coord.waves) >= plan[0][0]:
                _, delay_ns, kind, target = plan.pop(0)
                cl.engine.after(delay_ns, lambda k=kind, t=target: act(k, t))
            if plan and not job.finished:
                cl.engine.after(NS_PER_MS, poll)

        def after_recovery(node) -> None:
            # Registered after the coordinator: its recovery has run.
            now = cl.engine.now_ns
            ready = [s.attrs["ready_at_ns"]
                     for s in cl.engine.tracer.finished("restart")
                     if s.begin_ns == now and "ready_at_ns" in s.attrs]
            if ready:
                state["restart_ns"].append(max(ready) - now)
                state["restored_bytes"] += sum(
                    _restored_bytes(r.task) for r in job.ranks)

        cl.on_failure(after_recovery)
        cl.engine.after(NS_PER_MS, poll)

    def reference(self) -> Any:
        state = self._build(failures=False)
        state["job"].run_to_completion(limit_ns=self.LIMIT_NS)
        return [memory_digest(r.task) for r in state["job"].ranks]

    def setup(self) -> Dict[str, Any]:
        reset_kernel_stats()
        return self._build(failures=True)

    def run(self, state: Dict[str, Any]) -> None:
        state["job"].run_to_completion(limit_ns=self.LIMIT_NS)

    def check(self, state: Dict[str, Any], ref: Any) -> Tuple[int, int, List[str]]:
        job, coord, cl = state["job"], state["coord"], state["cl"]
        reqs = [r for m in state["mechs"].values() for r in m.requests]
        c = cl.engine.metrics.counters()
        restores = c.get("restart.count", 0) + c.get("restart.failed", 0)
        node_failures = c.get("node_failures", 0)
        attempted = len(reqs) + node_failures + restores
        failed = (sum(r.state == RequestState.FAILED for r in reqs)
                  + c.get("restart.failed", 0)
                  + (node_failures - coord.recoveries))
        problems = []
        if not job.finished:
            problems.append("job did not finish")
        elif [memory_digest(r.task) for r in job.ranks] != ref:
            problems.append("final rank memory differs from the uninterrupted run")
        if coord.recoveries != 2 or len(state["restart_ns"]) != 2:
            problems.append(f"expected 2 recoveries, saw {coord.recoveries}")
        return attempted, failed, problems

    def results(self, state: Dict[str, Any]) -> Dict[str, Any]:
        cl, coord, job = state["cl"], state["coord"], state["job"]
        counts = _storage_counts(cl)
        counts.update({
            "coord.waves": len(coord.waves) + coord.waves_pruned,
            "coord.recoveries": coord.recoveries,
            "coord.generation_fallbacks": coord.generation_fallbacks,
        })
        reqs = [r for m in state["mechs"].values() for r in m.requests
                if r.state == RequestState.DONE]
        return {
            "events": counts["engine.events"],
            "sim": {
                "sim_makespan_s": job.makespan_s(),
                "sim_lost_steps": coord.lost_steps,
                "sim_ckpt_stall_ms": _mean_stall_ms(cl),
                "sim_restart_ms": float(np.mean(state["restart_ns"])) / NS_PER_MS,
            },
            "ckpt_bytes": sum(r.image.size_bytes for r in reqs),
            "restart_bytes": state["restored_bytes"],
            "counts": counts,
        }


# ----------------------------------------------------------------------
# ckpt_datapath
# ----------------------------------------------------------------------
class DenseHeapWriter(Workload):
    """Fills its whole heap once, then rewrites a hot run of pages per
    (long) iteration: a dense image that changes slowly, so back-to-back
    checkpoints spend their host time in the data path, not the app."""

    setup_ops = 1
    ops_per_iteration = 2

    def __init__(self, hot_pages: int, hot_start: int, **kw) -> None:
        super().__init__(**kw)
        self.hot_pages = hot_pages
        self.hot_start = hot_start

    def setup(self, task):
        yield ops.MemWrite(vma="heap", offset=0, nbytes=self.heap_bytes,
                           seed=self.seed)

    def iteration(self, task, it):
        yield ops.Compute(ns=self.compute_ns)
        npages = self.heap_bytes // PAGE
        start = (self.hot_start + it * self.hot_pages) % (npages - self.hot_pages)
        yield ops.MemWrite(vma="heap", offset=start * PAGE,
                           nbytes=self.hot_pages * PAGE,
                           seed=self.seed * 7919 + it)


class CkptDatapath:
    """Back-to-back checkpoints of a dense 2-rank heap, then degraded
    restores of the newest images after storage servers fail."""

    name = "ckpt_datapath"
    N_RANKS = 2
    HEAP_PAGES = 1536  # 6 MiB per rank, before the seed's +-4%
    N_CHECKPOINTS = 10
    RESTORE_ROUNDS = 12
    COMPUTE_NS = 150 * NS_PER_MS
    REBASE_EVERY = 4
    LIMIT_NS = 60 * NS_PER_S

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        # The seed draws the heap size (+-4%) and each rank's hot-set size
        # (+-10%).  Hot-set placement stays fixed: moving it flips which
        # blobs the failed servers held, a two-valued restore latency.
        npages = int(rng.integers(self.HEAP_PAGES * 24 // 25,
                                  self.HEAP_PAGES * 26 // 25))
        self.heap_bytes = npages * PAGE
        self.hot = [(int(rng.integers(npages * 9 // 100, npages * 11 // 100)),
                     rank * npages // self.N_RANKS)
                    for rank in range(self.N_RANKS)]

    def setup(self) -> Dict[str, Any]:
        reset_kernel_stats()
        seed = self.seed
        cl = Cluster(n_nodes=self.N_RANKS,
                     n_spares=self.N_RANKS * (self.RESTORE_ROUNDS + 1),
                     seed=seed, storage_servers=3, content_dedup=True,
                     storage_hierarchy=dict(HIERARCHY), lazy_nodes=True)
        mechs, tasks = [], []
        for rank in range(self.N_RANKS):
            node = cl.node(rank)
            hot_pages, hot_start = self.hot[rank]
            wl = DenseHeapWriter(hot_pages, hot_start, iterations=10_000,
                                 heap_bytes=self.heap_bytes,
                                 compute_ns=self.COMPUTE_NS,
                                 seed=seed * 1009 + rank)
            task = wl.spawn(node.kernel, name=f"dense/r{rank}")
            mech = _full_stack_mechanism(node)
            mech.rebase_every = self.REBASE_EVERY
            mech.prepare_target(task)
            mechs.append(mech)
            tasks.append(task)
        # Let every rank fill its heap and finish its first iteration's
        # compute: the set-up state is a dense, fully resident image.
        cl.run_until(lambda: all(t.main_steps >= 2 for t in tasks),
                     self.LIMIT_NS)
        return {"cl": cl, "mechs": mechs, "tasks": tasks, "reqs": [],
                "restores": [], "restore_errors": [],
                "events0": cl.engine.metrics.counters()["engine.events"],
                "spares": list(range(
                    self.N_RANKS, self.N_RANKS * (self.RESTORE_ROUNDS + 2)))}

    def _restore(self, state, key: str) -> Any:
        """Restore ``key`` onto the next spare through a fresh mechanism
        (no compaction alias, no memo): prefetch, materialize, install."""
        cl = state["cl"]
        node = cl.node(state["spares"].pop(0))
        mech = AutonomicCheckpointer(node.kernel, cl.remote_storage)
        start = cl.engine.now_ns
        res = mech.restart(key, target_kernel=node.kernel, prefetch=True)
        return res, res.ready_at_ns - start

    def _checkpoint_loop(self, state: Dict[str, Any]) -> List[str]:
        """Closed loop of checkpoint rounds; returns the newest keys."""
        cl, mechs, tasks = state["cl"], state["mechs"], state["tasks"]
        for _ in range(self.N_CHECKPOINTS):
            reqs = [m.request_checkpoint(t) for m, t in zip(mechs, tasks)]
            state["reqs"].extend(reqs)
            cl.run_until(lambda: all(r.state in (RequestState.DONE,
                                                 RequestState.FAILED)
                                     for r in reqs), self.LIMIT_NS)
        # Drain write-back to the erasure tier before anything fails.
        cl.run_for(50 * NS_PER_MS)
        return [m.requests[-1].key for m in mechs]

    def reference(self) -> Any:
        """Digests of each rank's newest image restored while storage is
        whole -- the oracle for the degraded restores."""
        state = self.setup()
        keys = self._checkpoint_loop(state)
        return [memory_digest(self._restore(state, key)[0].task)
                for key in keys]

    def run(self, state: Dict[str, Any]) -> None:
        cl = state["cl"]
        t0 = time.perf_counter()
        keys = self._checkpoint_loop(state)
        t1 = time.perf_counter()
        # Two of three partner servers and m=2 erasure servers fail: the
        # newest images now come back through degraded k-of-(k+m) reads.
        cl.fail_storage_server(0)
        cl.fail_storage_server(1)
        cl.fail_erasure_server(0)
        cl.fail_erasure_server(3)
        # All rounds are issued at one virtual instant (a restore storm):
        # later rounds queue behind earlier ones on the surviving devices.
        for _ in range(self.RESTORE_ROUNDS):
            for rank, key in enumerate(keys):
                try:
                    res, ns = self._restore(state, key)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    state["restore_errors"].append(repr(exc))
                    continue
                state["restores"].append((rank, res.task, ns))
        # Timestamps (not durations): run.py scales each phase by the
        # host speed sampled while it ran.
        state["phases"] = {"ckpt": (t0, t1),
                           "restore": (t1, time.perf_counter())}

    def check(self, state, ref) -> Tuple[int, int, List[str]]:
        reqs = state["reqs"]
        problems = []
        mismatched = sum(memory_digest(task) != ref[rank]
                         for rank, task, _ in state["restores"])
        if mismatched:
            problems.append(f"{mismatched} degraded restores differ from "
                            "the pre-failure restore")
        if state["restore_errors"]:
            problems.append(f"restore failed: {state['restore_errors'][0]}")
        attempted = len(reqs) + self.RESTORE_ROUNDS * self.N_RANKS
        failed = (sum(r.state != RequestState.DONE for r in reqs)
                  + len(state["restore_errors"]) + mismatched)
        return attempted, failed, problems

    def results(self, state: Dict[str, Any]) -> Dict[str, Any]:
        cl = state["cl"]
        counts = _storage_counts(cl)
        done = [r for r in state["reqs"] if r.state == RequestState.DONE]
        lat = [ns for _, _, ns in state["restores"]]
        return {
            "events": counts["engine.events"] - state["events0"],
            "sim": {
                "sim_ckpt_stall_ms": _mean_stall_ms(cl),
                "sim_restart_ms": float(np.mean(lat)) / NS_PER_MS,
            },
            "ckpt_bytes": sum(r.image.size_bytes for r in done),
            "restart_bytes": sum(_restored_bytes(t)
                                 for _, t, _ in state["restores"]),
            "phases": state["phases"],
            "counts": counts,
        }


# ----------------------------------------------------------------------
# fleet_sharded
# ----------------------------------------------------------------------
class FleetSharded:
    """Failure churn on a 65,536-node fleet whose every failure fetches
    a restart image from the sharded stable-storage tier, run as 4
    engine shards over 2 worker processes."""

    name = "fleet_sharded"
    FACTORY = "repro.cluster.scenarios:fleet_restart_traffic"
    N_NODES = 65_536
    N_SHARDS = 4
    WORKERS = 2
    HORIZON_S = 400.0
    MAX_DRAIN_S = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params = {
            "n_nodes": self.N_NODES, "mtbf_s": 20_000.0, "repair_s": 300.0,
            "n_servers": 8, "image_bytes": 1 << 26,
            "propagation_ns": 50 * NS_PER_MS,
            "service_floor_ns": 2 * NS_PER_MS, "ns_per_byte": 0.01,
        }
        self.horizon_s = self.HORIZON_S
        self.transport = None

    def _run(self, workers: int, horizon_s: float):
        return run_parallel(
            self.FACTORY, self.params, self.seed, n_shards=self.N_SHARDS,
            horizon_ns=int(horizon_s * NS_PER_S),
            lookahead_ns=self.params["propagation_ns"], workers=workers,
            transport="auto", meta={"benchmark": self.name})

    def reference(self) -> Any:
        """The in-process (``workers=1``) export, and the horizon.

        A restart read still in flight when the horizon cuts the run off
        would fail the ``requests == acks`` check without anything being
        lost, so the horizon is the first whole second from
        :attr:`HORIZON_S` on at which the in-process run has no read in
        flight.
        """
        for extra_s in range(self.MAX_DRAIN_S + 1):
            res = self._run(1, self.HORIZON_S + extra_s)
            c = res.obs["metrics"]["counters"]
            if c.get("sstore.requests", 0) == c.get("sstore.acks", 0):
                break
        self.horizon_s = self.HORIZON_S + extra_s
        return res.obs_json

    def setup(self) -> Dict[str, Any]:
        # Bringing the sharded fleet up and down with nothing to simulate:
        # worker start, shard build (65,536 nodes), export, fold, close.
        self._run(self.WORKERS, 0.0)
        return {}

    def run(self, state: Dict[str, Any]) -> None:
        state["res"] = self._run(self.WORKERS, self.horizon_s)

    def check(self, state, ref) -> Tuple[int, int, List[str]]:
        res = state["res"]
        c = res.obs["metrics"]["counters"]
        requests, acks = c.get("sstore.requests", 0), c.get("sstore.acks", 0)
        problems = []
        if requests != acks:
            problems.append(f"sstore.requests {requests} != acks {acks}")
        if res.obs_json != ref:
            problems.append("folded export differs from the in-process run")
        return requests, (requests - acks) + (res.obs_json != ref), problems

    def results(self, state: Dict[str, Any]) -> Dict[str, Any]:
        res = state["res"]
        self.transport = res.transport
        c = res.obs["metrics"]["counters"]
        barrier = res.barrier_obs["counters"]
        rtt = res.obs["metrics"]["histograms"]["sstore.rtt_ns"]
        return {
            "events": res.stats.events,
            "sim": {"sim_restart_ms": rtt["sum"] / rtt["count"] / NS_PER_MS},
            "restart_bytes": c.get("sstore.req_bytes", 0),
            "counts": {
                "engine.events": res.stats.events,
                "parallel.windows": res.stats.windows,
                "parallel.envelopes": res.stats.exchanged,
                "parallel.idle_windows": res.stats.idle_shard_windows,
                "parallel.shm_fallback_frames": barrier.get(
                    "parallel.shm_fallback_frames", 0),
            },
        }


WORKLOADS = {w.name: w for w in (JobFailover, CkptDatapath, FleetSharded)}
