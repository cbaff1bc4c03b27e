"""Conservative time-windowed parallel simulation engine.

PR 4 pushed one core to ~875k events/s and 65,536 nodes; the next order
of magnitude needs parallelism, not more micro-optimization.  The
structural observation (PAPER.md section 5, and both petascale C/R
studies in PAPERS.md) is that machines in a cluster interact only
through the shared link and the storage servers -- channels with
*nonzero* propagation and service latencies.  That latency floor is
exactly the **lookahead** a conservative parallel discrete-event engine
needs: if every cross-machine interaction takes at least ``L``
nanoseconds to arrive, then a machine's events inside the window
``[T, T + L)`` can only depend on messages that were already exchanged
before ``T``.  Shards may therefore advance through the window without
hearing from each other at all.

The design here:

* machines (and their node-local events) are partitioned into
  **shards**; each shard owns a private :class:`~repro.simkernel.Engine`
  (its own timer wheel, clock, metrics registry);
* all shards advance in **lockstep windows**.  The window start is the
  global minimum pending event time (idle virtual time is skipped, so a
  fleet whose next failure is minutes away costs no barriers), and the
  window width is bounded by the lookahead;
* anything that crosses a machine boundary -- link deliveries, storage
  requests and acks, fleet failure-cohort notifications -- travels as
  an :class:`Envelope` through the shard's outbox and is exchanged at
  the **window barrier**.  Crucially this discipline is uniform: even a
  single-shard run routes every cross-machine send through the barrier,
  so the event schedule a shard executes is *identical* whether it runs
  alone or next to fifteen siblings;
* each shard sorts its incoming envelopes by a **canonical key**
  ``(deliver_at_ns, kind, canonical-JSON payload, src_shard)`` before
  scheduling them, so the merge is independent of arrival order, worker
  count and OS scheduling.

Determinism contract (the hard gate): a scenario built from
shard-invariant state -- per-node counter-based RNG streams (see
:meth:`repro.cluster.FailureModel.draw_ttf_indexed`), no reads of
another shard's memory, all cross-machine sends through
:meth:`ShardContext.send` with ``delay_ns >= lookahead_ns`` -- produces
byte-identical folded ``repro.obs`` exports for 1, 2, 4, ... shards.
``tests/runner/test_parallel.py`` asserts exactly that, property-based
over random seeds and topologies.

This module is backend-agnostic: :func:`run_windows` drives any
:class:`ShardGroup` (the in-process reference group lives here; the
``ProcessPoolExecutor``-style persistent-worker group lives in
:mod:`repro.runner.parallel`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..obs import MetricsRegistry, export_obs
from .engine import Engine

__all__ = [
    "Envelope",
    "ParallelError",
    "ShardContext",
    "ShardGroup",
    "LocalShardGroup",
    "WindowReply",
    "WindowStats",
    "derive_lookahead",
    "run_windows",
]


class ParallelError(SimulationError):
    """A conservative-window invariant was violated."""


def derive_lookahead(*latencies_ns: int) -> int:
    """The engine's lookahead: the minimum nonzero cross-shard latency.

    Callers pass every latency floor a cross-machine interaction can
    take -- link propagation, storage service floor -- and get back the
    largest window width that is still conservative.
    """
    floors = [int(x) for x in latencies_ns if x is not None]
    if not floors:
        raise ParallelError("lookahead needs at least one latency floor")
    lo = min(floors)
    if lo <= 0:
        raise ParallelError(f"lookahead must be positive, got {lo}")
    return lo


def _payload_key(payload: Any) -> str:
    """Canonical JSON of an envelope payload (the sort tiebreak)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Envelope:
    """One cross-shard event, exchanged at a window barrier.

    ``payload_key`` is the canonical JSON of the payload, computed once
    at send time; together with ``(deliver_at_ns, kind, src_shard)`` it
    makes the barrier merge order total and content-determined.
    """

    deliver_at_ns: int
    kind: str
    dst_shard: int
    src_shard: int
    payload: Dict[str, Any]
    payload_key: str

    @property
    def sort_key(self) -> Tuple[int, str, str, int]:
        """Canonical merge key: a pure function of envelope content."""
        return (self.deliver_at_ns, self.kind, self.payload_key,
                self.src_shard)


class ShardContext:
    """One shard's view of the parallel simulation.

    Owns the shard-local :class:`Engine`, the envelope outbox, and the
    registry of cross-shard message handlers.  Scenario code builds its
    machines against this context; everything that would touch another
    shard's machine goes through :meth:`send`.
    """

    def __init__(
        self,
        engine: Engine,
        shard_id: int,
        n_shards: int,
        lookahead_ns: Optional[int] = None,
    ) -> None:
        if n_shards < 1:
            raise ParallelError("need at least one shard")
        if not 0 <= shard_id < n_shards:
            raise ParallelError(
                f"shard_id {shard_id} out of range for {n_shards} shards"
            )
        if lookahead_ns is not None and lookahead_ns <= 0:
            raise ParallelError("lookahead must be positive when set")
        self.engine = engine
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.lookahead_ns = lookahead_ns
        self._handlers: Dict[str, Callable[[Dict[str, Any]], None]] = {}
        self._outbox: List[Envelope] = []
        self._sent = engine.metrics.counter("parallel.sent")
        self._delivered = engine.metrics.counter("parallel.delivered")

    # ------------------------------------------------------------------
    def on(self, kind: str, handler: Callable[[Dict[str, Any]], None]) -> None:
        """Register the handler for envelope ``kind`` (one per kind)."""
        if kind in self._handlers:
            raise ParallelError(f"duplicate handler for envelope kind {kind!r}")
        self._handlers[kind] = handler

    def send(
        self,
        kind: str,
        payload: Dict[str, Any],
        delay_ns: int,
        dst_shard: int,
    ) -> None:
        """Queue a cross-machine event for barrier exchange.

        ``delay_ns`` must be at least the lookahead -- that is the
        conservative condition that makes in-window parallelism safe.
        The discipline is uniform: a send whose destination happens to
        live on this same shard *still* goes through the barrier, so
        event interleaving does not depend on the partitioning.
        """
        if self.lookahead_ns is None:
            raise ParallelError(
                "this context has no cross-shard channels (lookahead unset)"
            )
        if delay_ns < self.lookahead_ns:
            raise ParallelError(
                f"send delay {delay_ns} violates lookahead {self.lookahead_ns}"
            )
        if not 0 <= dst_shard < self.n_shards:
            raise ParallelError(f"dst_shard {dst_shard} out of range")
        self._sent.inc()
        self._outbox.append(Envelope(
            deliver_at_ns=self.engine.now_ns + int(delay_ns),
            kind=kind,
            dst_shard=int(dst_shard),
            src_shard=self.shard_id,
            payload=payload,
            payload_key=_payload_key(payload),
        ))

    # ------------------------------------------------------------------
    def run_window(self, end_ns: int) -> Tuple[List[Envelope], int]:
        """Advance the shard's engine to ``end_ns``; drain the outbox.

        Returns ``(outbox, processed)``.  The engine clock is left at
        ``end_ns`` even when the schedule drained earlier, so every
        shard observes the same barrier instant.
        """
        processed = self.engine.run(until_ns=end_ns)
        outbox, self._outbox = self._outbox, []
        return outbox, processed

    def deliver(self, envelopes: Sequence[Envelope]) -> None:
        """Schedule a barrier batch in canonical order.

        Sorting by :attr:`Envelope.sort_key` makes the local schedule a
        pure function of the batch's *contents* -- workers may hand the
        batch over in any order.
        """
        now = self.engine.now_ns
        for env in sorted(envelopes, key=lambda e: e.sort_key):
            if env.dst_shard != self.shard_id:
                raise ParallelError(
                    f"envelope for shard {env.dst_shard} delivered to "
                    f"shard {self.shard_id}"
                )
            handler = self._handlers.get(env.kind)
            if handler is None:
                raise ParallelError(f"no handler for envelope kind {env.kind!r}")
            if env.deliver_at_ns < now:
                raise ParallelError(
                    f"envelope {env.kind!r} arrives in the past "
                    f"({env.deliver_at_ns} < {now}): lookahead violated"
                )
            self.engine.at_anon(
                env.deliver_at_ns,
                lambda h=handler, p=env.payload: (self._delivered.inc(), h(p)),
            )

    def next_time_ns(self) -> Optional[int]:
        """Earliest pending local event (lower bound; None when idle)."""
        return self.engine.next_time_ns()


# ----------------------------------------------------------------------
# Window driver
# ----------------------------------------------------------------------
@dataclass
class WindowReply:
    """One shard's answer to a window step."""

    outbox: List[Envelope]
    next_ns: Optional[int]
    processed: int
    stop: bool


#: Barrier batches keyed by destination shard id.
Inboxes = Dict[int, List[Envelope]]


class ShardGroup:
    """Backend interface the window driver runs against.

    Implementations hold ``size`` shards and step them with one call per
    window.  :class:`LocalShardGroup` is the only code that steps
    shards: in-process, and inside every worker of
    :mod:`repro.runner.parallel`'s ``ProcessShardGroup``, which forwards
    these same calls.  Both run the same driver loop
    (:func:`run_windows`), which is what makes their outputs
    byte-identical.
    """

    size: int

    def status_all(self) -> List[Optional[int]]:
        """Initial next-event time per shard."""
        raise NotImplementedError

    def window_all(self, end_ns: int, inboxes: Inboxes) -> List[WindowReply]:
        """Deliver the last barrier's ``inboxes``, then run every shard
        to ``end_ns``; one reply per shard, in shard-id order."""
        raise NotImplementedError

    def deliver_all(self, inboxes: Inboxes) -> None:
        """Deliver barrier batches without running (a stopped run's last)."""
        raise NotImplementedError

    def export_all(self, meta: Mapping[str, Any]) -> List[Tuple[Dict[str, Any], Any]]:
        """One ``(obs document, scenario result)`` pair per shard."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the group's resources."""
        raise NotImplementedError

    def exchange(self, replies: List[WindowReply]) -> Tuple[Inboxes, int]:
        """Route every reply's outbox to its destination shard.

        Returns ``(inboxes, envelopes moved)``.  Delivery is left to the
        next :meth:`window_all`, where the receiving shard sorts its
        batch canonically, so the routing cannot perturb the schedule.
        """
        inboxes: Inboxes = {}
        exchanged = 0
        for reply in replies:
            for env in reply.outbox:
                inboxes.setdefault(env.dst_shard, []).append(env)
            exchanged += len(reply.outbox)
        return inboxes, exchanged


class LocalShardGroup(ShardGroup):
    """Shards in this process, stepped sequentially.

    The determinism reference, and the one stepping implementation: a
    worker process runs one over its own shards (inboxes are looked up
    by ``shard_id``, so any subset of a run's shards works), and the
    1-shard instance is the gate every multi-shard run is compared
    against.
    """

    def __init__(self, shards: Sequence[Tuple[ShardContext, Any]]) -> None:
        if not shards:
            raise ParallelError("need at least one shard")
        self._shards = list(shards)
        self.size = len(self._shards)

    def status_all(self) -> List[Optional[int]]:
        return [ctx.next_time_ns() for ctx, _ in self._shards]

    def window_all(self, end_ns: int, inboxes: Inboxes) -> List[WindowReply]:
        self.deliver_all(inboxes)
        replies = []
        for ctx, scenario in self._shards:
            outbox, processed = ctx.run_window(end_ns)
            stop = bool(getattr(scenario, "stop", lambda: False)())
            replies.append(WindowReply(outbox, ctx.next_time_ns(),
                                       processed, stop))
        return replies

    def deliver_all(self, inboxes: Inboxes) -> None:
        for ctx, _ in self._shards:
            if ctx.shard_id in inboxes:
                ctx.deliver(inboxes[ctx.shard_id])

    def export_all(self, meta: Mapping[str, Any]) -> List[Tuple[Dict[str, Any], Any]]:
        return [
            (export_obs(ctx.engine.metrics, tracer=ctx.engine.tracer,
                        meta=meta, now_ns=ctx.engine.now_ns),
             getattr(scenario, "result", lambda: None)())
            for ctx, scenario in self._shards
        ]

    def close(self) -> None:
        pass


@dataclass
class WindowStats:
    """Barrier-level observability for one parallel run.

    These numbers are *topology-dependent* by nature (a single shard
    exchanges nothing) and therefore live outside the folded
    ``repro.obs`` document that the byte-identity gate covers.
    """

    windows: int = 0
    exchanged: int = 0
    events: int = 0
    idle_shard_windows: int = 0
    stopped: bool = False
    end_ns: int = 0
    #: Per-window span and exchange tallies, accumulated as plain list
    #: appends inside the driver loop and rendered into histograms once
    #: at the end (``observe_many``) -- no per-window registry lookups.
    window_spans: List[int] = field(default_factory=list)
    window_exchanges: List[int] = field(default_factory=list)

    def to_registry(self, registry: Optional[MetricsRegistry] = None
                    ) -> MetricsRegistry:
        """Render the stats as ``parallel.*`` barrier metrics."""
        reg = registry if registry is not None else MetricsRegistry()
        if self.window_spans:
            reg.observe_many("parallel.window_span_ns", self.window_spans)
        if self.window_exchanges:
            reg.observe_many("parallel.window_exchange",
                             self.window_exchanges)
        reg.counter("parallel.windows").inc(self.windows)
        reg.counter("parallel.envelopes").inc(self.exchanged)
        reg.counter("parallel.events").inc(self.events)
        reg.counter("parallel.shard_idle_windows").inc(self.idle_shard_windows)
        return reg


def run_windows(
    group: ShardGroup,
    *,
    horizon_ns: int,
    window_ns: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> WindowStats:
    """Drive a shard group to ``horizon_ns`` in conservative windows.

    Each iteration: find the global minimum pending event time ``t0``
    (skipping idle virtual time entirely), deliver the last barrier's
    inboxes and run every shard to ``min(horizon, t0 + window)`` -- one
    :meth:`ShardGroup.window_all` call -- and route the outboxes into
    the next inboxes.  A shard's next event is the earlier of its
    reply's ``next_ns`` and its inbox's first ``deliver_at_ns``: that is
    exact, because :meth:`Engine.next_time_ns` is the minimum stored
    entry time and delivery only adds entries.  ``window_ns`` must not
    exceed the scenario's lookahead; ``None`` means the shards never
    interact (no channels registered), so each runs straight to the
    horizon in a single window.

    Stops early when any shard's scenario raises its stop flag at a
    barrier (all shards are then parked at the same instant -- the
    window end -- and the last inboxes are delivered), or when the
    horizon is reached.  Returns the :class:`WindowStats` barrier tally.
    """
    horizon_ns = int(horizon_ns)
    stats = WindowStats()
    nexts = group.status_all()
    inboxes: Inboxes = {}
    while True:
        live = [t for t in nexts if t is not None]
        t0 = min(live) if live else None
        if t0 is None or t0 > horizon_ns:
            break
        end = horizon_ns if window_ns is None else min(
            horizon_ns, t0 + int(window_ns))
        replies = group.window_all(end, inboxes)
        stats.windows += 1
        stats.end_ns = end
        for reply in replies:
            stats.events += reply.processed
            if reply.processed == 0:
                stats.idle_shard_windows += 1
        inboxes, exchanged = group.exchange(replies)
        nexts = [reply.next_ns for reply in replies]
        for sid, inbox in inboxes.items():
            first = min(env.deliver_at_ns for env in inbox)
            nexts[sid] = first if nexts[sid] is None else min(nexts[sid], first)
        stats.exchanged += exchanged
        stats.window_spans.append(end - t0)
        stats.window_exchanges.append(exchanged)
        if any(reply.stop for reply in replies):
            stats.stopped = True
            break
    if not stats.stopped:
        # Deliver what is left and park every clock at the horizon (no
        # events remain at or before it, so this processes nothing).
        group.window_all(horizon_ns, inboxes)
        stats.end_ns = horizon_ns
    elif inboxes:
        group.deliver_all(inboxes)
    if registry is not None:
        stats.to_registry(registry)
    return stats
