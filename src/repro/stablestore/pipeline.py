"""The bounded asynchronous writeback pipeline.

The paper's "direction forward" kernel thread forks the target for
COW consistency so the application resumes immediately -- but the seed
drain then *synchronously* pushed the whole image at stable storage:
copy everything, then sleep through the full quorum-write latency.
:class:`WritebackPipeline` overlaps the two.  The drain copies one
extent, hands it to the pipeline (which forwards it over the replica
write stream and schedules its quorum acknowledgement as an engine
completion event), and immediately copies the next extent while the
bytes are on the wire.  A bounded in-flight window provides
backpressure: when ``depth`` extents are unacknowledged the drain
sleeps exactly until the earliest outstanding ack -- the device model
precomputes every completion instant, so backpressure is deterministic
and poll-free.

The commit barrier is the only full synchronization point: the caller
waits for every outstanding extent, then commits the manifest through
the stream, which is when the image becomes visible (a crash mid-drain
publishes nothing).

Observability (all on the engine's registry / tracer):

* ``pipeline.extents`` / ``pipeline.bytes`` -- extents and payload
  bytes submitted.
* ``pipeline.inflight`` -- histogram of window occupancy at submit
  (``DEPTH_BUCKETS``).
* ``pipeline.stalls`` / ``pipeline.stall_ns`` -- backpressure events
  and the virtual time the drain slept for a window slot.
* ``pipeline.barrier_ns`` -- time spent in the commit barrier.
* a ``pipeline.drain`` span covering open -> commit.
"""

from __future__ import annotations

import heapq
from typing import Any, List

from ..simkernel.engine import Completion, Engine
from ..storage.backends import StorageBackend

__all__ = ["WritebackPipeline"]


class WritebackPipeline:
    """Bounded-window asynchronous writeback of captured extents.

    Parameters
    ----------
    storage:
        Backend to stream into; any :class:`StorageBackend` works, the
        interesting ones are :class:`~repro.stablestore.ReplicatedStore`
        (quorum acks per extent) and :class:`~repro.stablestore.
        ContentStore` (duplicate extents ack instantly).
    engine:
        The simulation clock; acks become anonymous engine events.
    key:
        Image key the stream commits under.
    depth:
        In-flight window: extents submitted but not yet quorum-acked.
        ``depth=1`` degenerates to stop-and-wait (callers should use the
        plain synchronous path instead -- it is bit-compatible and
        cheaper to simulate).
    """

    def __init__(
        self,
        storage: StorageBackend,
        engine: Engine,
        key: str,
        depth: int = 4,
    ) -> None:
        self.engine = engine
        self.key = key
        self.depth = max(1, int(depth))
        self.stream = storage.open_stream(key, engine.now_ns)
        #: Min-heap of absolute ack instants of unacknowledged extents.
        self._acks: List[int] = []
        #: Latest ack instant ever scheduled (the commit barrier target).
        self.last_ack_ns = engine.now_ns
        self.extents = 0
        self.bytes = 0
        self.stalls = 0
        self.stall_ns = 0
        self.barrier_waits_ns = 0
        self._span = engine.tracer.start_span(
            "pipeline.drain", key=key, depth=self.depth
        )
        self._committed = False

    # ------------------------------------------------------------------
    def _reap(self, now_ns: int) -> None:
        while self._acks and self._acks[0] <= now_ns:
            heapq.heappop(self._acks)

    @property
    def inflight(self) -> int:
        """Extents submitted but not yet acknowledged at the current time."""
        self._reap(self.engine.now_ns)
        return len(self._acks)

    @property
    def full(self) -> bool:
        """Whether the bounded window has no free slot right now."""
        return self.inflight >= self.depth

    def ns_until_slot(self) -> int:
        """Virtual time until a window slot frees (0 when one is free).

        When positive, the caller must sleep exactly that long before
        :meth:`submit` -- the stall is recorded as backpressure.
        """
        now = self.engine.now_ns
        self._reap(now)
        if len(self._acks) < self.depth:
            return 0
        stall = self._acks[0] - now
        self.stalls += 1
        self.stall_ns += stall
        metrics = self.engine.metrics
        metrics.inc("pipeline.stalls")
        metrics.inc("pipeline.stall_ns", stall)
        return stall

    def submit(self, chunk: Any) -> Completion:
        """Queue one captured extent; returns its ack completion token.

        The extent's bytes are forwarded through the write stream now
        (the device model queues them behind everything already on the
        link); the returned token resolves at the extent's quorum-ack
        instant via an engine event.  The caller must have honoured
        :meth:`ns_until_slot` -- the window is a contract, not a check.
        """
        now = self.engine.now_ns
        self._reap(now)  # drop acks that landed during the caller's sleep
        delay = self.stream.send_chunk(chunk, now)
        ack_ns = now + delay
        heapq.heappush(self._acks, ack_ns)
        if ack_ns > self.last_ack_ns:
            self.last_ack_ns = ack_ns
        self.extents += 1
        self.bytes += int(chunk.nbytes)
        metrics = self.engine.metrics
        metrics.inc("pipeline.extents")
        metrics.inc("pipeline.bytes", int(chunk.nbytes))
        metrics.observe("pipeline.inflight", len(self._acks))
        return self.engine.completion(delay, value=ack_ns)

    def barrier_ns(self) -> int:
        """Virtual time until every outstanding extent is acknowledged.

        The commit barrier: the caller sleeps this long, after which
        :meth:`commit` may run with zero unacknowledged extents.
        """
        wait = max(0, self.last_ack_ns - self.engine.now_ns)
        if wait:
            self.barrier_waits_ns += wait
            self.engine.metrics.inc("pipeline.barrier_ns", wait)
        return wait

    def commit(self, obj: Any, nbytes: int) -> int:
        """Commit the finished image through the stream.

        Returns the metadata-slice delay (the payload already travelled
        extent by extent).  Closes the drain span with the overlap
        evidence: total extents, stall time, barrier time.
        """
        delay = self.stream.commit(obj, nbytes, self.engine.now_ns)
        self._committed = True
        self._span.end(
            state="committed",
            extents=self.extents,
            bytes=self.bytes,
            stalls=self.stalls,
            stall_ns=self.stall_ns,
            barrier_ns=self.barrier_waits_ns,
        )
        return delay

    def abort(self, reason: str) -> None:
        """Give the stream up and close the span (failed drain)."""
        if not self._committed:
            self._committed = True
            self.stream.abort()
            self._span.end(state="aborted", error=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WritebackPipeline {self.key!r} depth={self.depth} "
            f"extents={self.extents} inflight={len(self._acks)}>"
        )
