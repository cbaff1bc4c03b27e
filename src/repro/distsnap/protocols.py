"""Coordinated whole-job snapshot protocols.

Two protocols over the :mod:`~repro.distsnap.channels` substrate, both
driving the repository's *existing* per-process checkpointers and both
producing the same artifact -- a :class:`CutManifest` on stable storage
that names one image per rank plus the channel state of the cut:

* :class:`MarkerProtocol` -- Chandy-Lamport-style.  The initiator
  records its local state and floods a marker on every outbound
  channel; a process records on its first marker, floods its own
  markers, and *logs* data messages arriving on each inbound channel
  until that channel's marker shows up (FIFO makes the marker an exact
  pre/post-cut separator, so the logged messages are precisely the
  channel's in-flight state in the cut).  Processes never stop sending:
  zero application downtime, paid for in logged-message bytes.
* :class:`StopTheWorldProtocol` -- coordinated two-phase quiesce.
  Pause application sends everywhere (one control round-trip), sleep
  until the last in-flight delivery instant (drain -- deterministic
  because delivery times are precomputed), capture every rank on an
  empty network, resume.  Channel state in the cut is empty by
  construction; the cost is downtime.

"Record local state" is the synchronous snapshot of the endpoint's
messaging counters plus an initiated checkpoint of the rank's task via
``request_checkpoint`` (pipelined mechanisms overlap captures exactly
as they do for single-process checkpoints); the protocol completes when
every capture reports DONE via ``add_done_callback`` -- no polling.

A protocol that loses a rank mid-snapshot aborts: every timer it owns
is a *cancellable* engine completion and is cancelled, its span ends
``state="aborted"``, nothing is published (the manifest write never
starts), and the engine's pending-event count stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import DistSnapError
from ..simkernel.costs import NS_PER_US
from ..simkernel import Task
from ..simkernel.engine import Completion, Engine
from .channels import ChannelNetwork, Endpoint, Message

__all__ = [
    "SnapRank",
    "CutManifest",
    "SnapshotProtocol",
    "MarkerProtocol",
    "StopTheWorldProtocol",
]

#: One-way latency of the coordinator's out-of-band control plane
#: (quiesce commands and acks travel beside the data channels).
CONTROL_LATENCY_NS = 10 * NS_PER_US

#: Manifest encoding overhead: header + per-rank record + per-message
#: record (seq/nbytes/payload triple).  Logged payload bytes are charged
#: at full size -- channel state *is* message data.
_MANIFEST_HEADER_BYTES = 256
_RANK_RECORD_BYTES = 160
_MSG_RECORD_BYTES = 48


@dataclass
class SnapRank:
    """One communicating process as the protocols see it.

    ``task`` and ``mechanism`` are optional: with both set, recording a
    rank initiates a real checkpoint through the mechanism and the cut
    manifest names the resulting image; with either missing the rank is
    *lightweight* -- its recorded state is the endpoint counters alone,
    which is all the protocol-termination and consistency property
    tests need.  The adapter keeps ``distsnap`` import-free of
    ``repro.cluster``; the cluster layer builds SnapRanks, not the
    other way around.
    """

    pid: int
    endpoint: Endpoint
    task: Optional[Task] = None
    mechanism: Optional[Any] = None
    node_id: Optional[int] = None


@dataclass
class CutManifest:
    """The consistent cut: per-rank images + channel state, one blob.

    Stored under ``distsnap/<job>/<id>+cut``.  A stored manifest holds
    every key in :meth:`pinned_keys` in the stack's hold table, so the
    per-rank images it references can never be collected out from
    under it, whoever requests their delete.
    """

    key: str
    snapshot_id: int
    protocol: str
    job: str
    taken_ns: int
    #: pid -> checkpoint image key (absent for lightweight ranks).
    rank_images: Dict[int, str] = field(default_factory=dict)
    #: pid -> Endpoint.state() at the rank's record instant.
    endpoint_states: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: "src->dst" -> in-flight message records, delivery order.
    channel_messages: Dict[str, List[Dict[str, int]]] = field(
        default_factory=dict
    )
    #: (src, dst, latency_ns) for every channel, for topology rebuild.
    topology: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Protocol downtime (stop-the-world) or 0 (marker).
    downtime_ns: int = 0

    #: Duck-typing flags for the hold table and chain walks.
    is_cut_manifest: bool = True
    parent_key: Optional[str] = None

    def pinned_keys(self) -> List[str]:
        """Image keys this cut requires to remain restorable."""
        return sorted(self.rank_images.values())

    def logged_message_count(self) -> int:
        """Total in-flight messages recorded as channel state."""
        return sum(len(v) for v in self.channel_messages.values())

    @property
    def size_bytes(self) -> int:
        """Serialized size: header, rank records, message records plus
        the logged payload bytes themselves."""
        nbytes = _MANIFEST_HEADER_BYTES
        nbytes += _RANK_RECORD_BYTES * len(self.endpoint_states)
        for records in self.channel_messages.values():
            for rec in records:
                nbytes += _MSG_RECORD_BYTES + int(rec["nbytes"])
        return nbytes


class SnapshotProtocol:
    """Shared machinery: rank bookkeeping, capture fan-in, manifest
    write, abort.  Subclasses implement :meth:`start` phases."""

    protocol_name = "abstract"

    def __init__(
        self,
        net: ChannelNetwork,
        ranks: List[SnapRank],
        store: Optional[Any] = None,
        job: str = "job",
    ) -> None:
        if not ranks:
            raise DistSnapError("a snapshot needs at least one rank")
        self.net = net
        self.engine: Engine = net.engine
        self.ranks: Dict[int, SnapRank] = {}
        for r in ranks:
            if r.pid in self.ranks:
                raise DistSnapError(f"duplicate rank pid {r.pid}")
            self.ranks[r.pid] = r
        self.store = store
        self.job = job
        self.snapshot_id = self.engine.next_id("distsnap.snapshot")
        self.result: Completion = Completion(self.engine)
        self.manifest: Optional[CutManifest] = None
        self.started_ns: Optional[int] = None
        self.aborted = False
        self._done = False
        self._span: Optional[Any] = None
        self._captures_outstanding = 0
        self._rank_images: Dict[int, str] = {}
        self._endpoint_states: Dict[int, Dict[str, Any]] = {}
        #: Cancellable completions this protocol owns (abort cleanup).
        self._timers: List[Completion] = []

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Started and neither finished nor aborted."""
        return (
            self.started_ns is not None and not self._done and not self.aborted
        )

    def start(self) -> Completion:
        """Begin the snapshot; returns a completion that resolves with
        the :class:`CutManifest` (or is cancelled on abort)."""
        raise NotImplementedError

    def _begin(self) -> None:
        if self.started_ns is not None:
            raise DistSnapError(
                f"{self.protocol_name} snapshot {self.snapshot_id} "
                f"already started"
            )
        self.started_ns = self.engine.now_ns
        self._span = self.engine.tracer.start_span(
            f"distsnap.{self.protocol_name}",
            snapshot_id=self.snapshot_id,
            job=self.job,
            ranks=len(self.ranks),
        )
        self.engine.metrics.inc("distsnap.snapshots_started")

    def _timer(self, delay_ns: int) -> Completion:
        """A cancellable engine completion owned by this protocol."""
        token = self.engine.completion(delay_ns, cancellable=True)
        self._timers.append(token)
        return token

    # ------------------------------------------------------------------
    # Capture fan-in
    # ------------------------------------------------------------------
    def _capture_rank(self, rank: SnapRank) -> None:
        """Record ``rank``'s messaging state and initiate its checkpoint."""
        self._endpoint_states[rank.pid] = rank.endpoint.state()
        if rank.mechanism is None or rank.task is None:
            return  # lightweight rank: counters are the whole state
        self._captures_outstanding += 1
        req = rank.mechanism.request_checkpoint(rank.task)
        req.add_done_callback(
            lambda r, pid=rank.pid: self._capture_done(pid, r)
        )

    def _capture_done(self, pid: int, req: Any) -> None:
        if self.aborted or self._done:
            return
        self._captures_outstanding -= 1
        if req.state.value == "failed":
            self.abort(f"rank {pid} capture failed: {req.error}")
            return
        self._rank_images[pid] = req.key
        if self._captures_outstanding == 0:
            self._captures_complete()

    def _captures_complete(self) -> None:
        """Subclass hook: every initiated capture is DONE."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _build_manifest(
        self,
        channel_messages: Dict[str, List[Dict[str, int]]],
        downtime_ns: int = 0,
    ) -> CutManifest:
        key = f"distsnap/{self.job}/{self.snapshot_id}+cut"
        return CutManifest(
            key=key,
            snapshot_id=self.snapshot_id,
            protocol=self.protocol_name,
            job=self.job,
            taken_ns=self.engine.now_ns,
            rank_images=dict(sorted(self._rank_images.items())),
            endpoint_states=dict(sorted(self._endpoint_states.items())),
            channel_messages={
                k: list(v) for k, v in sorted(channel_messages.items())
            },
            topology=sorted(
                (ch.src, ch.dst, ch.latency_ns) for ch in self.net.channels()
            ),
            downtime_ns=downtime_ns,
        )

    def _write_manifest(self, manifest: CutManifest) -> None:
        """Stream the manifest to stable storage, then finish.

        Uses the ``WriteStream`` protocol: one chunk for the header plus
        rank records, one for the logged channel state, commit as the
        visibility point.  The engine delay accumulates through the
        stream's queued device model; completion resolves at commit
        time.
        """
        self.manifest = manifest
        metrics = self.engine.metrics
        metrics.inc("distsnap.manifest_bytes", manifest.size_bytes)
        metrics.observe("distsnap.logged_msgs", manifest.logged_message_count())
        if self.store is None:
            self._finish()
            return
        t = self.engine.now_ns
        stream = self.store.open_stream(manifest.key, t)
        rank_bytes = _MANIFEST_HEADER_BYTES + sum(
            _RANK_RECORD_BYTES + len(manifest.rank_images.get(pid, ""))
            for pid in manifest.endpoint_states
        )
        t += stream.send(rank_bytes, t)
        channel_bytes = sum(
            _MSG_RECORD_BYTES + r["nbytes"]
            for records in manifest.channel_messages.values()
            for r in records
        )
        if channel_bytes:
            t += stream.send(channel_bytes, t)
        t += stream.commit(manifest, manifest.size_bytes, t)
        done = self._timer(t - self.engine.now_ns)
        done.add_done_callback(lambda _c: self._finish())

    def _finish(self) -> None:
        if self.aborted or self._done:
            return
        self._done = True
        self._teardown()
        assert self.manifest is not None
        engine = self.engine
        elapsed = engine.now_ns - (self.started_ns or 0)
        engine.metrics.inc("distsnap.snapshots_completed")
        engine.metrics.observe("distsnap.protocol_ns", elapsed)
        if self.manifest.downtime_ns:
            engine.metrics.observe(
                "distsnap.downtime_ns", self.manifest.downtime_ns
            )
        if self._span is not None:
            self._span.end(
                state="done",
                manifest_key=self.manifest.key,
                ranks=len(self.ranks),
                logged_msgs=self.manifest.logged_message_count(),
                manifest_bytes=self.manifest.size_bytes,
                downtime_ns=self.manifest.downtime_ns,
            )
        self.result.resolve(self.manifest)

    # ------------------------------------------------------------------
    def abort(self, reason: str) -> None:
        """Abandon the snapshot: cancel every owned timer, end the span
        aborted, publish nothing.  Idempotent; a no-op once done."""
        if self.aborted or self._done:
            return
        self.aborted = True
        for token in self._timers:
            token.cancel()
        self._timers = []
        self._teardown()
        self.engine.metrics.inc("distsnap.snapshots_aborted")
        if self._span is not None:
            self._span.end(state="aborted", reason=reason)
        self.result.cancel()

    def _teardown(self) -> None:
        """Subclass hook: release network hooks / unpause."""

    def attach_failure_watch(self, cluster: Any) -> None:
        """Abort this snapshot if a node hosting one of its ranks fails
        mid-protocol (wire to ``Cluster.on_failure``)."""
        rank_nodes = {
            r.node_id for r in self.ranks.values() if r.node_id is not None
        }

        def _watch(node: Any) -> None:
            node_id = getattr(node, "node_id", node)
            if self.running and node_id in rank_nodes:
                self.abort(f"node {node_id} failed mid-snapshot")

        cluster.on_failure(_watch)


class MarkerProtocol(SnapshotProtocol):
    """Chandy-Lamport marker flooding over FIFO channels.

    Requires the channel graph restricted to the participating ranks to
    be strongly connected (markers are the only propagation mechanism);
    with bidirectional channels any connected topology qualifies.
    Terminates after every rank has recorded, every inbound channel has
    delivered its marker, and every initiated capture is DONE --
    bounded by (graph diameter x max channel latency) + capture time.
    """

    protocol_name = "marker"

    def __init__(
        self,
        net: ChannelNetwork,
        ranks: List[SnapRank],
        store: Optional[Any] = None,
        job: str = "job",
        initiator: Optional[int] = None,
    ) -> None:
        super().__init__(net, ranks, store, job)
        pids = sorted(self.ranks)
        self.initiator = pids[0] if initiator is None else initiator
        if self.initiator not in self.ranks:
            raise DistSnapError(f"initiator {self.initiator} is not a rank")
        self._recorded: Set[int] = set()
        #: pid -> inbound peers whose marker has not yet arrived.
        self._awaiting: Dict[int, Set[int]] = {}
        #: "src->dst" -> logged post-record pre-marker messages.
        self._logged: Dict[str, List[Dict[str, int]]] = {}
        self._markers_in = False

    # ------------------------------------------------------------------
    def start(self) -> Completion:
        """Record at the initiator and flood the first markers."""
        self._begin()
        for pid in self.ranks:
            ep = self.net.endpoint(pid)
            if ep.on_marker is not None or ep.on_data is not None:
                raise DistSnapError(
                    f"process {pid} already has a snapshot in progress"
                )
            ep.on_marker = self._on_marker
            ep.on_data = self._on_data
        self._record(self.initiator)
        self._check_termination()
        return self.result

    def _record(self, pid: int) -> None:
        """First-marker (or initiator) action: snapshot local state,
        initiate the rank capture, flood markers outbound."""
        self._recorded.add(pid)
        rank = self.ranks[pid]
        ep = rank.endpoint
        self._capture_rank(rank)
        self._awaiting[pid] = {
            src for src in ep.peers_in() if src in self.ranks
        }
        self.engine.tracer.instant(
            "distsnap.record", pid=pid, snapshot_id=self.snapshot_id
        )
        for dst in ep.peers_out():
            if dst in self.ranks:
                ep.send_marker(dst, self.snapshot_id)

    def _on_marker(self, ep: Endpoint, msg: Message) -> None:
        if self.aborted or self._done or msg.snapshot_id != self.snapshot_id:
            return
        pid = ep.pid
        if pid not in self._recorded:
            self._record(pid)
        # Marker closes its channel: its in-flight state is whatever was
        # logged (possibly nothing, when record was triggered by it).
        self._awaiting[pid].discard(msg.src)
        self._check_termination()

    def _on_data(self, ep: Endpoint, msg: Message) -> None:
        if self.aborted or self._done:
            return
        pid = ep.pid
        if pid in self._recorded and msg.src in self._awaiting.get(pid, ()):
            # Post-record, pre-marker: this message is part of the
            # channel's state in the cut.
            self._logged.setdefault(
                f"{msg.src}->{msg.dst}", []
            ).append(msg.to_record())
            self.engine.metrics.inc("distsnap.logged_bytes", msg.nbytes)

    def _check_termination(self) -> None:
        if len(self._recorded) < len(self.ranks):
            return
        if any(self._awaiting[p] for p in self.ranks):
            return
        if self._markers_in:
            return
        self._markers_in = True
        self.engine.tracer.instant(
            "distsnap.markers_complete", snapshot_id=self.snapshot_id
        )
        if self._captures_outstanding == 0:
            self._captures_complete()

    def _captures_complete(self) -> None:
        if not self._markers_in:
            return  # captures beat the marker flood; wait for it
        self._write_manifest(self._build_manifest(self._logged))

    def _teardown(self) -> None:
        for pid in self.ranks:
            ep = self.net.endpoint(pid)
            if ep.on_marker == self._on_marker:
                ep.on_marker = None
            if ep.on_data == self._on_data:
                ep.on_data = None


class StopTheWorldProtocol(SnapshotProtocol):
    """Two-phase coordinated quiesce -> drain -> capture -> resume.

    Phase 1 (quiesce): the coordinator broadcasts *pause* and collects
    acks -- one control round-trip; from the pause instant the network
    refuses application sends.  Phase 2 (drain): sleep until the last
    in-flight delivery instant, after which the channels are provably
    empty.  Capture: checkpoint every rank; the cut's channel state is
    empty by construction.  Resume: unpause; downtime is quiesce start
    to resume, the number E22 trades against the marker protocol's
    logged bytes.
    """

    protocol_name = "stw"

    def __init__(
        self,
        net: ChannelNetwork,
        ranks: List[SnapRank],
        store: Optional[Any] = None,
        job: str = "job",
        control_latency_ns: int = CONTROL_LATENCY_NS,
    ) -> None:
        super().__init__(net, ranks, store, job)
        self.control_latency_ns = int(control_latency_ns)
        self.quiesced_ns: Optional[int] = None
        self.drained_ns: Optional[int] = None
        self.resumed_ns: Optional[int] = None

    # ------------------------------------------------------------------
    def start(self) -> Completion:
        """Broadcast the quiesce command and begin the two phases."""
        self._begin()
        self.net.pause()
        # Pause command out + ack back from every rank: sends stop at
        # the pause instant (the coordinator model is authoritative);
        # the round-trip is when the coordinator *knows* they stopped.
        ack = self._timer(2 * self.control_latency_ns)
        ack.add_done_callback(lambda _c: self._quiesced())
        return self.result

    def _quiesced(self) -> None:
        if self.aborted or self._done:
            return
        self.quiesced_ns = self.engine.now_ns
        self.engine.tracer.instant(
            "distsnap.quiesced",
            snapshot_id=self.snapshot_id,
            inflight=self.net.inflight_count(),
        )
        drain = self._timer(
            max(0, self.net.drain_deadline_ns() - self.engine.now_ns)
        )
        drain.add_done_callback(lambda _c: self._drained())

    def _drained(self) -> None:
        if self.aborted or self._done:
            return
        inflight = self.net.inflight_count()
        if inflight:
            raise DistSnapError(
                f"stw drain incomplete: {inflight} messages still in "
                f"flight past the drain deadline"
            )
        self.drained_ns = self.engine.now_ns
        self.engine.metrics.observe(
            "distsnap.drain_ns", self.drained_ns - (self.quiesced_ns or 0)
        )
        self.engine.tracer.instant(
            "distsnap.drained", snapshot_id=self.snapshot_id
        )
        for rank in self.ranks.values():
            self._capture_rank(rank)
        if self._captures_outstanding == 0:
            self._captures_complete()

    def _captures_complete(self) -> None:
        # Empty-by-construction channel state; resume the world, then
        # write the manifest (the job is already running again while
        # the manifest streams out).
        self.net.resume()
        self.resumed_ns = self.engine.now_ns
        downtime = self.resumed_ns - (self.started_ns or 0)
        self.engine.tracer.instant(
            "distsnap.resumed",
            snapshot_id=self.snapshot_id,
            downtime_ns=downtime,
        )
        self._write_manifest(
            self._build_manifest({}, downtime_ns=downtime)
        )

    def _teardown(self) -> None:
        # Abort mid-quiesce must not leave the world stopped.
        if self.resumed_ns is None:
            self.net.resume()
