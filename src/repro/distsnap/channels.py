"""FIFO message channels between simulated processes.

Every mechanism in the repository checkpoints a *single* process; a
communicating job additionally has state **on the wire** -- messages
sent but not yet delivered -- and a set of per-rank images is only a
consistent whole-job snapshot if that channel state is accounted for.
This module supplies the substrate the snapshot protocols coordinate
over:

* :class:`Channel` -- a unidirectional FIFO pipe between two processes.
  A send pays wire time on the network's **shared link** (one
  :class:`~repro.storage.devices.Device`, so concurrent senders queue
  exactly like checkpoint traffic does) plus a per-channel propagation
  latency; delivery is an engine event at the deterministic arrival
  instant.  The channel tracks its in-flight messages, which is what
  the marker protocol logs and the stop-the-world protocol drains.
* :class:`Endpoint` -- one process's messaging state: per-peer sent
  counters, per-peer contiguous receive counters, and a rolling state
  digest folded over every consumed message.  The counters *are* the
  local messaging state a cut manifest records; the digest makes
  "the restarted job consumed exactly the same messages" testable as
  integer equality.
* :class:`ChannelNetwork` -- the topology: endpoints, channels, the
  shared link, pause/epoch control used by the protocols, and
  ``distsnap.*`` metrics on the engine's registry.
* :class:`TrafficDriver` -- deterministic background message load
  (exponential gaps from an engine-derived RNG) for experiments.

FIFO-per-channel is the Chandy-Lamport prerequisite: a marker sent
after data separates pre-cut from post-cut traffic on that channel.
The shared link serializes wire time globally and each channel adds a
constant latency, so per-channel delivery order equals send order; the
channel still *asserts* monotone delivery (and receivers assert seq
contiguity), turning any future violation into a loud
:class:`~repro.errors.DistSnapError` instead of a silent orphan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import DistSnapError
from ..simkernel.costs import NS_PER_US
from ..simkernel.engine import Engine
from ..storage.devices import Device

__all__ = [
    "Message",
    "Channel",
    "Endpoint",
    "ChannelNetwork",
    "TrafficDriver",
    "message_link",
]

#: Message kinds: application payload vs protocol control.
DATA = "data"
MARKER = "marker"

#: Seed for the rolling endpoint digest (FNV-1a offset basis).
_DIGEST_SEED = 0xCBF29CE484222325
_DIGEST_PRIME = 0x100000001B3
_DIGEST_MASK = (1 << 64) - 1


def _fold(digest: int, *values: int) -> int:
    """Fold integers into a 64-bit FNV-style rolling digest."""
    for v in values:
        digest = ((digest ^ (v & _DIGEST_MASK)) * _DIGEST_PRIME) & _DIGEST_MASK
    return digest


def message_link(name: str = "link[distsnap]") -> Device:
    """The shared message interconnect: lower setup cost than the bulk
    checkpoint NIC (small messages dominate), 10GigE-class bandwidth."""
    return Device(name=name, latency_ns=5 * NS_PER_US, bytes_per_ns=1.25)


@dataclass
class Message:
    """One message on a channel.

    ``seq`` numbers are per-channel and contiguous from 1 for **data**
    messages; receivers assert contiguity on consumption, which is how
    orphan (gap) and duplicate (repeat) deliveries surface as hard
    failures in the restart experiments.  Markers carry ``seq == 0``:
    they ride the channel's FIFO by delivery order but are invisible to
    the seq space, so a cut's sender and receiver counters agree even
    though markers are never replayed after a restart.
    """

    src: int
    dst: int
    seq: int
    nbytes: int
    kind: str = DATA
    #: Deterministic payload tag folded into the receiver's digest.
    payload: int = 0
    sent_ns: int = 0
    #: Marker messages carry the snapshot they announce.
    snapshot_id: Optional[int] = None

    def to_record(self) -> Dict[str, int]:
        """JSON-able form stored in a cut manifest's channel state."""
        return {"seq": self.seq, "nbytes": self.nbytes, "payload": self.payload}

    @staticmethod
    def from_record(src: int, dst: int, rec: Dict[str, int]) -> "Message":
        """Rebuild a replayable data message from its manifest record."""
        return Message(
            src=src, dst=dst, seq=int(rec["seq"]),
            nbytes=int(rec["nbytes"]), payload=int(rec["payload"]),
        )


class Channel:
    """A unidirectional FIFO channel ``src -> dst``.

    Delivery time of a message sent at ``t`` is ``t + wire + latency``
    where ``wire`` is the shared link's queued transfer time and
    ``latency`` the channel's constant propagation delay; a floor at the
    previous delivery instant enforces FIFO explicitly.
    """

    def __init__(
        self,
        net: "ChannelNetwork",
        src: int,
        dst: int,
        latency_ns: int,
    ) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.latency_ns = int(latency_ns)
        #: Messages sent and not yet delivered, in delivery order.
        self._inflight: List[Message] = []
        self._last_delivery_ns = 0
        self.sent = 0
        self.delivered = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    def inflight(self) -> List[Message]:
        """The messages currently on the wire, in delivery order."""
        return list(self._inflight)

    def send(self, msg: Message) -> int:
        """Put ``msg`` on the wire; returns its delivery delay.

        The delivery is an engine event bound to the network's current
        epoch: deliveries scheduled before a whole-job restart are
        dropped when they fire into a superseded epoch (the restarted
        job re-creates on-the-wire state from the cut manifest instead).
        """
        engine = self.net.engine
        now = engine.now_ns
        msg.sent_ns = now
        wire = self.net.link.submit(now, msg.nbytes)
        deliver_at = max(now + wire + self.latency_ns, self._last_delivery_ns)
        self._last_delivery_ns = deliver_at
        self._inflight.append(msg)
        self.sent += 1
        self.bytes_sent += msg.nbytes
        epoch = self.net.epoch
        engine.at_anon(deliver_at, lambda: self._deliver(msg, epoch))
        metrics = engine.metrics
        if msg.kind == DATA:
            metrics.inc("distsnap.msgs_sent")
            metrics.inc("distsnap.bytes_sent", msg.nbytes)
        else:
            metrics.inc("distsnap.markers_sent")
        return deliver_at - now

    def _deliver(self, msg: Message, epoch: int) -> None:
        if epoch != self.net.epoch:
            self.net.engine.metrics.inc("distsnap.msgs_dropped_stale")
            return
        if not self._inflight or self._inflight[0] is not msg:
            raise DistSnapError(
                f"FIFO violation on channel {self.src}->{self.dst}: "
                f"out-of-order delivery of seq {msg.seq}"
            )
        self._inflight.pop(0)
        self.delivered += 1
        self.net.engine.metrics.inc("distsnap.msgs_delivered")
        self.net.endpoint(self.dst)._receive(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Channel {self.src}->{self.dst} inflight={len(self._inflight)}>"
        )


class Endpoint:
    """One process's messaging state and delivery hooks.

    The protocol layer interposes on delivery through two hooks:

    * ``on_marker(endpoint, msg)`` -- marker messages are control
      traffic; they never touch the application-visible counters.
    * ``on_data(endpoint, msg)`` -- called *after* the message is
      consumed (counters and digest updated); the marker protocol uses
      it to log post-record pre-marker messages as channel state.
    """

    def __init__(self, net: "ChannelNetwork", pid: int) -> None:
        self.net = net
        self.pid = pid
        #: Per-destination messages sent (seq allocator).
        self.sent: Dict[int, int] = {}
        #: Per-source contiguous receive counter (highest consumed seq).
        self.received: Dict[int, int] = {}
        #: Rolling digest over every consumed (src, seq, payload).
        self.digest = _DIGEST_SEED
        self.consumed = 0
        self.on_marker: Optional[Callable[["Endpoint", Message], None]] = None
        self.on_data: Optional[Callable[["Endpoint", Message], None]] = None

    # ------------------------------------------------------------------
    def peers_out(self) -> List[int]:
        """Destination pids this endpoint has a channel to (sorted)."""
        return self.net.peers_out(self.pid)

    def peers_in(self) -> List[int]:
        """Source pids with a channel into this endpoint (sorted)."""
        return self.net.peers_in(self.pid)

    def send(self, dst: int, nbytes: int, payload: int = 0) -> Message:
        """Send one application message to ``dst`` (FIFO per channel)."""
        if self.net.paused:
            raise DistSnapError(
                f"process {self.pid} sent while the network is quiesced"
            )
        seq = self.sent.get(dst, 0) + 1
        self.sent[dst] = seq
        msg = Message(src=self.pid, dst=dst, seq=seq, nbytes=int(nbytes),
                      payload=int(payload))
        self.net.channel(self.pid, dst).send(msg)
        return msg

    def send_marker(self, dst: int, snapshot_id: int) -> Message:
        """Send a snapshot marker (control traffic; always allowed, even
        on a quiesced network, and never numbered -- see Message)."""
        msg = Message(src=self.pid, dst=dst, seq=0, nbytes=64,
                      kind=MARKER, snapshot_id=snapshot_id)
        self.net.channel(self.pid, dst).send(msg)
        return msg

    def _receive(self, msg: Message) -> None:
        if msg.kind == MARKER:
            # Markers are outside the seq space: FIFO delivery order is
            # what separates pre-cut from post-cut data around them.
            if self.on_marker is not None:
                self.on_marker(self, msg)
            return
        self._advance_seq(msg)
        self.digest = _fold(self.digest, msg.src, msg.seq, msg.payload)
        self.consumed += 1
        if self.on_data is not None:
            self.on_data(self, msg)

    def _advance_seq(self, msg: Message) -> None:
        expect = self.received.get(msg.src, 0) + 1
        if msg.seq != expect:
            kind = "duplicate" if msg.seq <= self.received.get(msg.src, 0) \
                else "orphan"
            self.net.engine.metrics.inc(f"distsnap.{kind}_msgs")
            raise DistSnapError(
                f"{kind} message on channel {msg.src}->{msg.dst}: "
                f"got seq {msg.seq}, expected {expect}"
            )
        self.received[msg.src] = msg.seq

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The messaging state a cut manifest records for this process."""
        return {
            "sent": {str(k): v for k, v in sorted(self.sent.items())},
            "received": {str(k): v for k, v in sorted(self.received.items())},
            "digest": self.digest,
            "consumed": self.consumed,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install recorded messaging state (whole-job restart)."""
        self.sent = {int(k): int(v) for k, v in state["sent"].items()}
        self.received = {int(k): int(v) for k, v in state["received"].items()}
        self.digest = int(state["digest"])
        self.consumed = int(state["consumed"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Endpoint {self.pid} consumed={self.consumed}>"


class ChannelNetwork:
    """Endpoints + channels over one shared link on one engine.

    Parameters
    ----------
    engine:
        The shared virtual clock.
    link:
        The shared interconnect; defaults to :func:`message_link`.
    default_latency_ns:
        Propagation latency for channels created without an explicit
        one (~a rack-scale RTT half).
    """

    def __init__(
        self,
        engine: Engine,
        link: Optional[Device] = None,
        default_latency_ns: int = 20 * NS_PER_US,
    ) -> None:
        self.engine = engine
        self.link = link or message_link()
        self.default_latency_ns = int(default_latency_ns)
        self._endpoints: Dict[int, Endpoint] = {}
        self._channels: Dict[Tuple[int, int], Channel] = {}
        #: Application sends refused while true (stop-the-world quiesce).
        self.paused = False
        #: Bumped on whole-job restart: deliveries scheduled under an
        #: older epoch are dropped when their events fire.
        self.epoch = 0

    # ------------------------------------------------------------------
    def add_process(self, pid: int) -> Endpoint:
        """Create (or return) the endpoint for ``pid``."""
        ep = self._endpoints.get(pid)
        if ep is None:
            ep = Endpoint(self, pid)
            self._endpoints[pid] = ep
        return ep

    def endpoint(self, pid: int) -> Endpoint:
        """The endpoint for ``pid`` (raises if unknown)."""
        try:
            return self._endpoints[pid]
        except KeyError:
            raise DistSnapError(f"no process {pid} on this network") from None

    def endpoints(self) -> List[Endpoint]:
        """All endpoints in pid order."""
        return [self._endpoints[p] for p in sorted(self._endpoints)]

    def connect(
        self, src: int, dst: int, latency_ns: Optional[int] = None
    ) -> Channel:
        """Create the FIFO channel ``src -> dst`` (idempotent)."""
        if src == dst:
            raise DistSnapError(f"no self-channels (process {src})")
        self.add_process(src)
        self.add_process(dst)
        ch = self._channels.get((src, dst))
        if ch is None:
            ch = Channel(
                self, src, dst,
                self.default_latency_ns if latency_ns is None else latency_ns,
            )
            self._channels[(src, dst)] = ch
        return ch

    def connect_bidirectional(
        self, a: int, b: int, latency_ns: Optional[int] = None
    ) -> None:
        """Create both directions of a channel pair."""
        self.connect(a, b, latency_ns)
        self.connect(b, a, latency_ns)

    def channel(self, src: int, dst: int) -> Channel:
        """The channel ``src -> dst`` (raises if unknown)."""
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise DistSnapError(f"no channel {src}->{dst}") from None

    def channels(self) -> Iterator[Channel]:
        """All channels in (src, dst) order."""
        for key in sorted(self._channels):
            yield self._channels[key]

    def peers_out(self, pid: int) -> List[int]:
        """Destinations ``pid`` has an outbound channel to (sorted)."""
        return sorted(d for (s, d) in self._channels if s == pid)

    def peers_in(self, pid: int) -> List[int]:
        """Sources with a channel into ``pid`` (sorted)."""
        return sorted(s for (s, d) in self._channels if d == pid)

    # ------------------------------------------------------------------
    def inflight_count(self) -> int:
        """Messages currently on the wire across every channel."""
        return sum(len(ch._inflight) for ch in self._channels.values())

    def drain_deadline_ns(self) -> int:
        """Latest delivery instant of any in-flight message (now if none).

        The stop-the-world drain sleeps until this instant: with sends
        paused nothing new enters the wire, so the network is provably
        empty afterwards.
        """
        deadline = self.engine.now_ns
        for ch in self._channels.values():
            if ch._inflight:
                deadline = max(deadline, ch._last_delivery_ns)
        return deadline

    def pause(self) -> None:
        """Refuse application sends (quiesce phase)."""
        self.paused = True

    def resume(self) -> None:
        """Allow application sends again."""
        self.paused = False

    def bump_epoch(self) -> int:
        """Invalidate every scheduled delivery (whole-job restart) and
        clear channel in-flight tracking; returns the new epoch."""
        self.epoch += 1
        for ch in self._channels.values():
            ch._inflight.clear()
            ch._last_delivery_ns = 0
        return self.epoch

    # ------------------------------------------------------------------
    def audit(self) -> Dict[str, int]:
        """Cross-check sender and receiver views of every channel.

        Returns aggregate counters; raises :class:`DistSnapError` if any
        receiver consumed a message its sender never sent (an orphan the
        seq-contiguity assertion somehow missed).  Zero-orphan /
        zero-duplicate is the E22 acceptance invariant.
        """
        inflight = 0
        consumed = 0
        for ch in self._channels.values():
            sent = ch.net.endpoint(ch.src).sent.get(ch.dst, 0)
            recv = ch.net.endpoint(ch.dst).received.get(ch.src, 0)
            if recv > sent:
                raise DistSnapError(
                    f"orphan messages on {ch.src}->{ch.dst}: "
                    f"received {recv} > sent {sent}"
                )
            inflight += len(ch._inflight)
            consumed += recv
        return {
            "channels": len(self._channels),
            "inflight": inflight,
            "consumed_seqs": consumed,
            "orphans": int(self.engine.metrics.counters().get(
                "distsnap.orphan_msgs", 0)),
            "duplicates": int(self.engine.metrics.counters().get(
                "distsnap.duplicate_msgs", 0)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChannelNetwork procs={len(self._endpoints)} "
            f"channels={len(self._channels)} inflight={self.inflight_count()}>"
        )


class TrafficDriver:
    """Deterministic background message load for experiments.

    Each process sends on its outbound channels with exponential
    inter-send gaps of mean ``1/rate``; gap draws and destination
    choices come from one engine-derived generator, so a same-seed run
    reproduces the identical message stream.  The driver pauses with
    the network (a quiesced process simply reschedules its next send)
    and is epoch-aware across restarts.
    """

    def __init__(
        self,
        net: ChannelNetwork,
        rate_per_s: float = 2000.0,
        nbytes: int = 4096,
        seed_stream: Optional[Any] = None,
    ) -> None:
        self.net = net
        self.rate_per_s = float(rate_per_s)
        self.nbytes = int(nbytes)
        self.rng = seed_stream or net.engine.spawn_rng()
        self._running = False
        self.sends = 0

    def start(self) -> None:
        """Arm one send timer per process."""
        self._running = True
        for ep in self.net.endpoints():
            if ep.peers_out():
                self._arm(ep)

    def stop(self) -> None:
        """Stop generating traffic (armed timers become no-ops)."""
        self._running = False

    def _gap_ns(self) -> int:
        return max(1, int(self.rng.exponential(1e9 / self.rate_per_s)))

    def _arm(self, ep: Endpoint) -> None:
        self.net.engine.after_anon(self._gap_ns(), lambda: self._fire(ep))

    def _fire(self, ep: Endpoint) -> None:
        if not self._running:
            return
        # A quiesced network delays traffic; it does not drop it.
        if not self.net.paused and self.net.endpoint(ep.pid) is ep:
            outs = ep.peers_out()
            dst = outs[int(self.rng.integers(0, len(outs)))]
            payload = int(self.rng.integers(0, 2**31 - 1))
            ep.send(dst, self.nbytes, payload=payload)
            self.sends += 1
        self._arm(ep)
