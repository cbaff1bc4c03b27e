"""Parallel jobs and fault-tolerance policies on the cluster.

A :class:`ParallelJob` is a gang of ranks (one workload instance per
rank) placed across nodes -- the capability-computing model the paper
motivates: the job only completes when *every* rank completes, and "in
the absence of some mechanism for fault tolerance a component failure is
catastrophic for the running application".

Two recovery policies bracket the design space:

* :class:`ScratchRestartPolicy` -- the paper's status quo ("it is
  all-too-common practice to run an application, or a part of it, many
  times to achieve one successful completion"): any failure restarts the
  whole job from iteration 0.
* :class:`CheckpointCoordinator` -- periodic coordinated checkpoint
  waves through a per-node mechanism; on failure, every rank restarts
  from the last complete wave, on the original node if it survived or on
  a spare otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.checkpointer import Checkpointer, CheckpointRequest, RequestState
from ..distsnap.channels import ChannelNetwork
from ..distsnap.protocols import (
    MarkerProtocol,
    SnapRank,
    SnapshotProtocol,
    StopTheWorldProtocol,
)
from ..distsnap.restart import JobRestoreResult, restore_snapshot
from ..errors import ClusterError, DistSnapError, StorageLostError
from ..simkernel import Task
from ..simkernel.costs import NS_PER_S
from ..storage.backends import StorageBackend
from ..workloads.base import Workload
from .machine import Cluster, ClusterNode

__all__ = [
    "Rank",
    "ParallelJob",
    "ScratchRestartPolicy",
    "CheckpointCoordinator",
    "CommunicatingJob",
]


def _node_mechanism(mechanisms: Dict[int, Checkpointer], node) -> Checkpointer:
    """``node``'s mechanism, else the first installed one (a spare or a
    node without its own mechanism restores through shared storage)."""
    return mechanisms.get(node.node_id) or next(iter(mechanisms.values()))


@dataclass
class Rank:
    """One rank of a parallel job."""

    index: int
    node: ClusterNode
    task: Task
    workload: Workload

    @property
    def done(self) -> bool:
        """Completed successfully."""
        return (
            self.task.exit_code == 0
            and self.task.state.value in ("zombie", "dead")
        )

    @property
    def dead(self) -> bool:
        """Died without completing (node failure)."""
        return self.task.state.value == "dead" and self.task.exit_code != 0


class ParallelJob:
    """A gang of ranks, placed round-robin over the compute nodes.

    ``node_ids`` places the gang on an explicit set of nodes instead of
    every compute node -- on a lazy BlueGene/L-scale cluster this is
    what keeps a 4-rank job from materializing 65,536 kernels.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload_factory: Callable[[int], Workload],
        n_ranks: int,
        name: str = "job",
        node_ids: Optional[List[int]] = None,
    ) -> None:
        if n_ranks < 1:
            raise ClusterError("job needs at least one rank")
        self.cluster = cluster
        self.name = name
        self.workload_factory = workload_factory
        self.ranks: List[Rank] = []
        if node_ids is not None:
            nodes = [cluster.node(i) for i in node_ids]
            nodes = [n for n in nodes if n.up]
        else:
            nodes = [n for n in cluster.compute_nodes() if n.up]
        if not nodes:
            raise ClusterError("no healthy compute nodes to place the job on")
        self.started_ns = cluster.engine.now_ns
        #: Virtual instant the last rank exited successfully.
        self.completed_ns: Optional[int] = None
        self.restarts = 0
        #: Whether :meth:`run_to_completion` is driving the engine (the
        #: last rank's exit then stops it).
        self._driving = False
        for r in range(n_ranks):
            rank = Rank(index=r, node=nodes[r % len(nodes)], task=None, workload=None)
            self.ranks.append(rank)
            self._spawn(rank, rank.node)

    # ------------------------------------------------------------------
    def bind(self, rank: Rank, node: ClusterNode, task: Task) -> None:
        """Make ``task`` on ``node`` the live process of ``rank`` and
        watch it exit (initial placement, restores and respawns).  The
        replaced task's chain tip no longer holds its image."""
        old = rank.task
        rank.node = node
        rank.task = task
        if old is not None and old is not task:
            old.chain_tip = None
        node.kernel.on_exit(task, self._rank_exited)

    def _spawn(self, rank: Rank, node: ClusterNode) -> None:
        rank.workload = self.workload_factory(rank.index)
        task = rank.workload.spawn(node.kernel, name=f"{self.name}/r{rank.index}")
        self.bind(rank, node, task)

    def retire(self, rank: Rank) -> None:
        """Kill ``rank``'s live task (exit code -1) before a replacement
        takes its place, so nothing left pending for it -- a restore's
        resume timer, say -- can run it beside the replacement."""
        if rank.task.alive():
            rank.node.kernel.stop_task(rank.task)
            rank.node.kernel._exit_task(rank.task, code=-1)

    def _rank_exited(self, task: Task) -> None:
        if self.completed_ns is None and all(r.done for r in self.ranks):
            self.completed_ns = self.cluster.engine.now_ns
            # No rank is restored again, so no chain tip holds an image.
            for rank in self.ranks:
                rank.task.chain_tip = None
            if self._driving:
                self.cluster.engine.stop()

    def respawn(self) -> bool:
        """Kill every live rank and start them all from iteration 0, on
        a claimed spare where a rank's node is down.  False when no
        healthy node is left to place a rank on (the job is stranded
        until an operator repairs hardware)."""
        try:
            for rank in self.ranks:
                # Kill survivors (gang semantics), then respawn everyone.
                self.retire(rank)
                node = rank.node if rank.node.up else self.cluster.claim_spare()
                self._spawn(rank, node)
        except ClusterError:
            return False
        return True

    @property
    def finished(self) -> bool:
        """All ranks completed successfully."""
        return self.completed_ns is not None

    @property
    def failed_ranks(self) -> List[Rank]:
        """Ranks whose task died uncompleted."""
        return [r for r in self.ranks if r.dead]

    def total_progress_steps(self) -> int:
        """Sum of current main-program steps across ranks."""
        return sum(r.task.main_steps for r in self.ranks)

    def makespan_s(self) -> Optional[float]:
        """Wall time to completion (None while running)."""
        if self.completed_ns is None:
            return None
        return (self.completed_ns - self.started_ns) / NS_PER_S

    def run_to_completion(self, limit_ns: int) -> bool:
        """Drive the cluster until the job finishes (the last rank's exit
        stops the engine) or the limit trips; a finished job returns."""
        if self.completed_ns is None:
            self._driving = True
            try:
                self.cluster.run_for(limit_ns)
            finally:
                self._driving = False
        return self.finished


class ScratchRestartPolicy:
    """No checkpointing: any failure restarts the whole job from zero."""

    def __init__(self, job: ParallelJob) -> None:
        self.job = job
        self.lost_steps = 0
        #: Set when the machine ran out of healthy nodes to place on.
        self.stuck = False
        job.cluster.on_failure(self._on_failure)

    def _on_failure(self, node: ClusterNode) -> None:
        job = self.job
        if job.finished or self.stuck:
            return
        affected = any(r.node is node for r in job.ranks)
        if not affected:
            return
        self.lost_steps += job.total_progress_steps()
        job.restarts += 1
        self.stuck = not job.respawn()


class CheckpointCoordinator:
    """Periodic coordinated checkpoint waves + restart-on-failure.

    Parameters
    ----------
    job:
        The gang to protect.
    mechanisms:
        node_id -> mechanism instance installed on that node's kernel
        (storage backends decide survivability, E13).
    interval_ns:
        Wall-clock period between wave starts.  May be changed on the
        fly (the autonomic controller does).
    """

    def __init__(
        self,
        job: ParallelJob,
        mechanisms: Dict[int, Checkpointer],
        interval_ns: int,
        keep_waves: int = 0,
        restore_prefetch: bool = False,
    ) -> None:
        """``keep_waves`` > 0 enables garbage collection: once a newer
        wave is durable, waves older than the last ``keep_waves`` are
        deleted from stable storage (checkpoints accumulate fast at
        short intervals; real systems keep one or two generations).
        ``restore_prefetch`` fetches each rank's delta chain in parallel
        at recovery instead of walking it serially."""
        self.job = job
        self.mechanisms = mechanisms
        self.interval_ns = int(interval_ns)
        self.keep_waves = int(keep_waves)
        self.restore_prefetch = bool(restore_prefetch)
        #: Complete waves: list of dicts rank_index -> (image key, step).
        self.waves: List[Dict[int, str]] = []
        self.waves_pruned = 0
        self._inflight: Optional[Dict[int, CheckpointRequest]] = None
        self.recoveries = 0
        self.unrecoverable = False
        self.lost_steps = 0
        #: Recoveries that had to reach past the newest wave because its
        #: images (or their delta ancestry) were unreadable -- storage-
        #: tier failures surfacing as lost checkpoint generations (E19).
        self.generation_fallbacks = 0
        #: Prefetch restores that lost their read quorum mid-chain and
        #: were retried through the serial walk instead of failing the
        #: whole recovery.
        self.prefetch_fallbacks = 0
        self._stopped = False
        job.cluster.on_failure(self._on_failure)

    # ------------------------------------------------------------------
    def mechanism_for(self, rank: Rank) -> Checkpointer:
        try:
            return self.mechanisms[rank.node.node_id]
        except KeyError:
            raise ClusterError(
                f"no mechanism installed on node {rank.node.node_id}"
            ) from None

    def start(self) -> None:
        """Arm the periodic wave timer."""
        self.job.cluster.engine.after(self.interval_ns, self._wave, label="ckpt-wave")

    def stop(self) -> None:
        """Stop scheduling further waves."""
        self._stopped = True

    def _wave(self) -> None:
        if self._stopped or self.job.finished or self.unrecoverable:
            return
        if self._inflight is None:  # do not overlap waves
            reqs: Dict[int, CheckpointRequest] = {}
            for rank in self.job.ranks:
                if not rank.task.alive():
                    continue
                # A parked rank (e.g. mid-restore, maintenance drain) has
                # produced no new state since its image; skip it rather
                # than waste a capture and delay its thaw.
                if rank.task.state.value == "stopped":
                    continue
                try:
                    mech = self.mechanism_for(rank)
                    mech.prepare_target(rank.task)
                    reqs[rank.index] = mech.request_checkpoint(rank.task)
                except Exception:
                    reqs = {}
                    break
            if reqs:
                self._inflight = reqs
                # Subscribe only now that the dict is whole: a request
                # can settle inside request_checkpoint.
                for req in reqs.values():
                    req.add_done_callback(lambda _, reqs=reqs: self._poll_wave(reqs))
        self.job.cluster.engine.after(self.interval_ns, self._wave, label="ckpt-wave")

    def _poll_wave(self, reqs: Dict[int, CheckpointRequest]) -> None:
        """Done-callback of every request in wave ``reqs``: the wave
        lands when the last request is DONE and is void on the first
        FAILED one.  Requests of a voided or landed wave are ignored."""
        if reqs is not self._inflight:
            return
        states = [r.state for r in reqs.values()]
        if all(s == RequestState.DONE for s in states):
            self.waves.append(
                {idx: (r.key, r.image.step) for idx, r in reqs.items()}
            )
            self._inflight = None
            self._gc_old_waves()
        elif RequestState.FAILED in states:
            self._inflight = None  # aborted wave (failure mid-capture)

    def _gc_old_waves(self) -> None:
        """Drop waves beyond ``keep_waves`` and request their blobs'
        deletes.

        The storage's hold table collects each image once nothing needs
        it: an image of a retained wave holds its whole delta ancestry,
        and so does a rank's chain tip, which its next delta extends --
        even when the rank sat out the retained waves (parked
        mid-restore, say).
        """
        if self.keep_waves <= 0 or len(self.waves) <= self.keep_waves:
            return
        doomed = self.waves[: -self.keep_waves]
        self.waves = self.waves[-self.keep_waves:]
        stores = list(dict.fromkeys(m.storage for m in self.mechanisms.values()))
        for wave in doomed:
            for key, _ in wave.values():
                for store in stores:
                    store.delete(key)
            self.waves_pruned += 1

    # ------------------------------------------------------------------
    def _on_failure(self, node: ClusterNode) -> None:
        job = self.job
        if job.finished or self.unrecoverable:
            return
        if not any(r.node is node for r in job.ranks):
            return
        self._inflight = None  # any in-flight wave is void
        if not self.waves:
            # Nothing to recover from: degenerate to scratch restart.
            self.lost_steps += job.total_progress_steps()
            job.restarts += 1
            self.unrecoverable = not job.respawn()
            return
        # Progress snapshot before any task is stopped: lost work is
        # measured against whichever wave the recovery finally lands on.
        steps_before = {r.index: r.task.main_steps for r in job.ranks}
        recovered: Optional[Dict[int, str]] = None
        for wave in self._candidate_waves():
            try:
                self._recover_from(wave)
            except StorageLostError:
                # The availability probe passed but the actual fetch
                # lost its read quorum (a fan-out prefetch hitting a
                # mid-chain loss the serial retry also cannot cover):
                # fall back to the next older readable generation
                # instead of declaring the job unrecoverable.
                continue
            except ClusterError:
                # No spare node to place a rank on: storage fallback
                # cannot help.
                self.unrecoverable = True
                return
            recovered = wave
            break
        if recovered is None:
            # Waves were taken but no generation's images are readable
            # (local disks died with their node, or the storage tier
            # lost every replica): the E13/E19 failure mode.
            self.unrecoverable = True
            return
        if recovered is not self.waves[-1]:
            self.generation_fallbacks += 1
        # Rework: progress past the recovered wave is lost per rank.
        self.lost_steps += sum(
            max(0, steps_before[r.index] - recovered[r.index][1])
            for r in job.ranks
            if r.index in recovered
        )
        job.restarts += 1
        self.recoveries += 1

    def _recover_from(self, wave: Dict[int, str]) -> None:
        """Restore every rank from ``wave`` (raises on failure).

        A prefetch restore that loses its read quorum mid-chain is
        retried through the serial walk before the error propagates --
        the serial path re-walks holders one at a time and matches what
        :meth:`Checkpointer.chain_available` probed, so a transient
        fan-out loss must not fail a recovery the serial path survives.
        """
        job = self.job
        cluster = job.cluster
        for rank in job.ranks:
            # A restore still in flight from a superseded recovery is
            # retired too, or its resume timer would run it later.
            job.retire(rank)
            target = rank.node if rank.node.up else cluster.claim_spare()
            mech = _node_mechanism(self.mechanisms, rank.node)
            if rank.index in wave:
                key, _ = wave[rank.index]
            elif rank.task.chain_tip is not None:
                # The rank sat out the wave (it was parked, e.g.
                # mid-restore): its state IS its chain tip, which holds
                # its image even once no retained wave names it.
                key = rank.task.chain_tip[1]
            else:
                raise ClusterError(f"no image covers rank {rank.index}")
            try:
                res = mech.restart(
                    key,
                    target_kernel=target.kernel,
                    prefetch=self.restore_prefetch,
                )
            except StorageLostError:
                if not self.restore_prefetch:
                    raise
                self.prefetch_fallbacks += 1
                res = mech.restart(
                    key, target_kernel=target.kernel, prefetch=False
                )
            job.bind(rank, target, res.task)

    def _candidate_waves(self):
        """Waves whose every image chain is currently readable, newest
        first (the serial generation-fallback walk)."""
        for wave in reversed(self.waves):
            usable = True
            for rank in self.job.ranks:
                if rank.index not in wave:
                    continue
                mech = _node_mechanism(self.mechanisms, rank.node)
                if not mech.chain_available(wave[rank.index][0]):
                    usable = False
                    break
            if usable:
                yield wave


class CommunicatingJob(ParallelJob):
    """A gang whose ranks exchange messages over FIFO channels.

    The messaging substrate is a :class:`~repro.distsnap.channels
    .ChannelNetwork` on the cluster's engine, with one endpoint per
    rank (addressed by **rank index** -- stable across restarts and
    spare-node migration, unlike task pids).  This is the job shape the
    ``repro.distsnap`` protocols coordinate: per-rank checkpointers
    capture process state, the protocols capture the channel state
    between them.

    Parameters
    ----------
    topology:
        ``"ring"`` (rank i <-> i+1 mod n), ``"all"`` (full bisection),
        or an explicit list of ``(i, j)`` rank-index pairs, each made
        bidirectional (strong connectivity is what marker flooding
        needs; an undirected-connected edge list qualifies).
    channel_latency_ns:
        Per-channel propagation latency (default: the network's).
    """

    def __init__(
        self,
        cluster: Cluster,
        workload_factory: Callable[[int], Workload],
        n_ranks: int,
        name: str = "job",
        node_ids: Optional[List[int]] = None,
        topology: object = "ring",
        channel_latency_ns: Optional[int] = None,
    ) -> None:
        super().__init__(cluster, workload_factory, n_ranks, name, node_ids)
        self.net = ChannelNetwork(cluster.engine)
        for i, j in self._edges(topology, n_ranks):
            self.net.connect_bidirectional(i, j, channel_latency_ns)
        for rank in self.ranks:
            self.net.add_process(rank.index)

    @staticmethod
    def _edges(topology: object, n: int) -> List[tuple]:
        if topology == "ring":
            return [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
        if topology == "all":
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        if isinstance(topology, (list, tuple)):
            edges = []
            for i, j in topology:
                if not (0 <= i < n and 0 <= j < n):
                    raise DistSnapError(
                        f"edge ({i}, {j}) references a rank outside 0..{n - 1}"
                    )
                edges.append((i, j))
            return edges
        raise DistSnapError(f"unknown topology {topology!r}")

    # ------------------------------------------------------------------
    def snap_ranks(
        self, mechanisms: Optional[Dict[int, Checkpointer]] = None
    ) -> List[SnapRank]:
        """The gang as the snapshot protocols see it.

        ``mechanisms`` is keyed by **node_id**, the
        :class:`CheckpointCoordinator` convention; omit it for
        lightweight (channel-state-only) snapshots.
        """
        out = []
        for rank in self.ranks:
            mech = None
            if mechanisms is not None:
                mech = _node_mechanism(mechanisms, rank.node)
            out.append(
                SnapRank(
                    pid=rank.index,
                    endpoint=self.net.endpoint(rank.index),
                    task=rank.task,
                    mechanism=mech,
                    node_id=rank.node.node_id,
                )
            )
        return out

    def snapshot(
        self,
        store: StorageBackend,
        mechanisms: Dict[int, Checkpointer],
        protocol: str = "marker",
        watch_failures: bool = True,
    ) -> SnapshotProtocol:
        """Build (without starting) a coordinated snapshot of this job."""
        cls = {"marker": MarkerProtocol, "stw": StopTheWorldProtocol}.get(
            protocol
        )
        if cls is None:
            raise DistSnapError(f"unknown protocol {protocol!r}")
        proto = cls(
            self.net, self.snap_ranks(mechanisms), store=store, job=self.name
        )
        if watch_failures:
            proto.attach_failure_watch(self.cluster)
        return proto

    def restore(
        self,
        store: StorageBackend,
        manifest_key: str,
        mechanisms: Dict[int, Checkpointer],
        prefetch: bool = True,
    ) -> JobRestoreResult:
        """Whole-job restart from a cut manifest.

        Each rank restores through its node's mechanism onto its
        original node, or a claimed spare if that node is down; the
        rank's task binding is updated to the restored process and the
        gang's in-flight messages are replayed onto the channels.
        """
        mech_by_rank: Dict[int, Checkpointer] = {}
        kernels: Dict[int, object] = {}
        for rank in self.ranks:
            if not rank.node.up:
                rank.node = self.cluster.claim_spare()
            mech_by_rank[rank.index] = _node_mechanism(mechanisms, rank.node)
            kernels[rank.index] = rank.node.kernel
        result = restore_snapshot(
            store,
            manifest_key,
            self.net,
            mechanisms=mech_by_rank,
            target_kernels=kernels,
            prefetch=prefetch,
        )
        for rank in self.ranks:
            res = result.rank_results.get(rank.index)
            if res is not None:
                self.bind(rank, rank.node, res.task)
        self.restarts += 1
        return result
