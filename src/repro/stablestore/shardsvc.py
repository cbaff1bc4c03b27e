"""Stable-storage service for the conservative parallel engine.

The storage tier is the one piece of the cluster every machine talks
to, so under sharding it is the main cross-shard channel.  Each storage
server is **pinned to a home shard** (round-robin, ``server % n_shards``
-- a pure function every shard computes identically); compute nodes
reach it with request envelopes and the server answers with ack
envelopes, both carried through the window-barrier exchange of
:mod:`repro.simkernel.parallel`.

Determinism: a server's queue state (``busy_until``) evolves only from
the requests addressed to it, and barrier batches are scheduled in the
canonical envelope order, which any subset inherits -- so the FCFS
schedule a server computes is identical whether its clients share its
shard or live fifteen shards away.  Service times are a pure function
of the request (floor + per-byte cost), and acks travel back with
``(finish - arrival) + propagation``, which is always at least the
propagation floor -- the conservative condition holds on both legs.

The propagation latency is therefore the service's contribution to the
engine lookahead: the lookahead is at most the smallest of it and the
link floors.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import StorageError
from ..simkernel.parallel import ShardContext

__all__ = ["ShardStorageService", "server_home_shard"]

#: Envelope kinds the service claims on every shard.
REQ_KIND = "sstore.req"
ACK_KIND = "sstore.ack"


def server_home_shard(server_id: int, n_shards: int) -> int:
    """Home shard of storage server ``server_id`` (round-robin pin)."""
    if server_id < 0:
        raise StorageError(f"bad server id {server_id}")
    return server_id % n_shards


class ShardStorageService:
    """One shard's slice of the storage tier plus its client half.

    Construct one instance per shard (it registers the ``sstore.req``
    and ``sstore.ack`` handlers on the shard context).  The instance
    *serves* the storage servers homed on this shard and *issues*
    requests on behalf of this shard's compute nodes.

    Parameters
    ----------
    ctx:
        The shard context (must have a lookahead; ``propagation_ns``
        must be at least that lookahead).
    n_servers:
        Fleet-wide storage server count.
    propagation_ns:
        One-way network latency between any node and any server.
    service_floor_ns:
        Fixed per-request service cost (seek + protocol).
    ns_per_byte:
        Streaming cost; total service is ``floor + bytes * ns_per_byte``.
    """

    def __init__(
        self,
        ctx: ShardContext,
        n_servers: int,
        propagation_ns: int,
        service_floor_ns: int = 0,
        ns_per_byte: float = 0.0,
    ) -> None:
        if n_servers < 1:
            raise StorageError("need at least one storage server")
        if propagation_ns <= 0:
            raise StorageError("propagation latency must be positive")
        if service_floor_ns < 0 or ns_per_byte < 0:
            raise StorageError("service costs cannot be negative")
        self.ctx = ctx
        self.n_servers = int(n_servers)
        self.propagation_ns = int(propagation_ns)
        self.service_floor_ns = int(service_floor_ns)
        self.ns_per_byte = float(ns_per_byte)
        #: FCFS frontier per locally-homed server.
        self.busy_until: Dict[int, int] = {
            s: 0
            for s in range(self.n_servers)
            if server_home_shard(s, ctx.n_shards) == ctx.shard_id
        }
        # Metric objects are resolved once here; the request/ack hot
        # path records through these references instead of a registry
        # name lookup per request.
        m = ctx.engine.metrics
        self._requests = m.counter("sstore.requests")
        self._acks = m.counter("sstore.acks")
        self._req_bytes = m.counter("sstore.req_bytes")
        self._service_hist = m.histogram("sstore.service_ns")
        self._queue_hist = m.histogram("sstore.queue_ns")
        self._rtt_hist = m.histogram("sstore.rtt_ns")
        ctx.on(REQ_KIND, self._on_request)
        ctx.on(ACK_KIND, self._on_ack)

    # ------------------------------------------------------------------
    # Client half
    # ------------------------------------------------------------------
    def request(
        self, server_id: int, nbytes: int, client: int, client_shard: int
    ) -> None:
        """Issue one storage request from ``client`` (a global node id
        homed on ``client_shard``) to ``server_id``.

        The ack will be routed back to ``client_shard`` and recorded
        there (``sstore.acks`` counter, ``sstore.rtt_ns`` histogram).
        """
        if not 0 <= server_id < self.n_servers:
            raise StorageError(f"server {server_id} out of range")
        self.ctx.send(
            REQ_KIND,
            {
                "server": int(server_id),
                "client": int(client),
                "client_shard": int(client_shard),
                "bytes": int(nbytes),
                "sent_ns": self.ctx.engine.now_ns,
            },
            delay_ns=self.propagation_ns,
            dst_shard=server_home_shard(server_id, self.ctx.n_shards),
        )

    # ------------------------------------------------------------------
    # Server half
    # ------------------------------------------------------------------
    def service_ns(self, nbytes: int) -> int:
        """Deterministic service time for an ``nbytes`` request."""
        return self.service_floor_ns + int(nbytes * self.ns_per_byte)

    def _on_request(self, payload: Dict[str, Any]) -> None:
        server = payload["server"]
        frontier = self.busy_until.get(server)
        if frontier is None:
            raise StorageError(
                f"server {server} is not homed on shard {self.ctx.shard_id}"
            )
        now = self.ctx.engine.now_ns
        service = self.service_ns(payload["bytes"])
        start = max(now, frontier)
        finish = start + service
        self.busy_until[server] = finish
        self._requests.inc()
        self._req_bytes.inc(payload["bytes"])
        self._service_hist.observe(service)
        self._queue_hist.observe(start - now)
        # (finish - now) >= service >= 0, plus the propagation floor:
        # the ack delay always satisfies the lookahead.
        self.ctx.send(
            ACK_KIND,
            {
                "server": server,
                "client": payload["client"],
                "bytes": payload["bytes"],
                "sent_ns": payload["sent_ns"],
            },
            delay_ns=(finish - now) + self.propagation_ns,
            dst_shard=payload["client_shard"],
        )

    def _on_ack(self, payload: Dict[str, Any]) -> None:
        self._acks.inc()
        self._rtt_hist.observe(self.ctx.engine.now_ns - payload["sent_ns"])

    # ------------------------------------------------------------------
    def acked(self) -> int:
        """Acks this shard's clients have received so far."""
        return self._acks.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardStorageService shard={self.ctx.shard_id} "
                f"servers={sorted(self.busy_until)}>")
