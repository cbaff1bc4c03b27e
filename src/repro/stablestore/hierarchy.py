"""Multi-level checkpoint storage: scratch, partner, erasure, remote.

The petascale C/R systems the paper's "direction forward" grew into
(SCR-style multi-level checkpointing, OpenCHK) do not write every
image to the slowest, most durable tier: they land it on fast
node-local scratch, protect it on a partner replica, erasure-code it
across a group, and only the images that must outlive a whole-machine
incident reach the remote tier.  :class:`HierarchicalStore` composes
any :class:`~repro.storage.backends.StorageBackend` instances into
that shape:

* each :class:`StorageLevel` has its own failure domain (the wrapped
  backend's), a **write policy** -- ``"through"`` (charged on the
  client's critical path) or ``"back"`` (copied asynchronously after
  ``writeback_delay_ns``) -- and an optional capacity bound;
* reads walk the levels fastest-first and **promote** the image into
  the faster levels it missed (charged in the background, after the
  read completes);
* a capacity-bound level **demotes** (evicts) its oldest images once
  they are protected by a deeper level;
* when a level *loses* a blob outright (every replica/shard gone --
  its own intra-level repairer can no longer help), the hierarchy
  **re-protects** it from a surviving level on the repair cadence;
* a dirty-extent update (:meth:`HierarchicalStore.store_delta`) reaches
  a level whose backend has its own ``store_delta`` (the erasure tier)
  as an O(dirty) partial-stripe update.

The hierarchy is itself a ``StorageBackend`` with the full
``WriteStream`` protocol, so ``WritebackPipeline``, dedup wrappers,
generation GC and the distsnap cut manifests compose unchanged.  A
degenerate single-level hierarchy is charge-for-charge identical to
the wrapped backend (the E23 byte-identity gate), because every
operation forwards verbatim and only ``hierarchy.*`` metrics are
added.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError, StorageLostError
from ..simkernel.costs import NS_PER_MS
from ..storage.backends import StorageBackend, StorageKind, WriteStream
from .repair import DETECT_DELAY_NS, MAX_REPAIRS_PER_SCAN, SCAN_INTERVAL_NS

__all__ = ["StorageLevel", "HierarchicalStore", "HierarchyWriteStream"]

#: Dirty ``(offset, nbytes)`` byte runs of a delta update.
Extents = Sequence[Tuple[int, int]]


class StorageLevel:
    """One level of the hierarchy: a backend plus its placement policy.

    Parameters
    ----------
    name:
        Diagnostic label; also the metric tag (``hierarchy.<name>.*``).
    backend:
        The wrapped store (any ``StorageBackend``).
    write:
        ``"through"`` -- every store lands here synchronously;
        ``"back"`` -- a copy is scheduled ``writeback_delay_ns`` after
        the store commits (asynchronous protection).
    writeback_delay_ns:
        Delay before the write-back copy starts.
    capacity_bytes:
        When set, the level evicts its oldest blobs past this bound --
        but only blobs another level still holds (demotion, never data
        loss).

    A level is ``durable`` (survives compute-node failure) when its
    backend ``survives_node_failure``.
    """

    def __init__(
        self,
        name: str,
        backend: StorageBackend,
        write: str = "through",
        writeback_delay_ns: int = 2 * NS_PER_MS,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        if write not in ("through", "back"):
            raise StorageError(
                f"level {name!r}: write policy must be 'through' or 'back', "
                f"not {write!r}"
            )
        self.name = name
        self.backend = backend
        self.write = write
        self.writeback_delay_ns = int(writeback_delay_ns)
        self.capacity_bytes = capacity_bytes
        self.durable = backend.survives_node_failure
        #: Insertion-ordered residency map (key -> nbytes) this
        #: hierarchy maintains for capacity eviction.
        self._resident: Dict[str, int] = {}

    def resident_bytes(self) -> int:
        """Bytes the hierarchy believes are resident on this level."""
        return sum(self._resident.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StorageLevel {self.name!r} {self.write} {self.backend!r}>"


class HierarchicalStore(StorageBackend):
    """A stack of storage levels behind one ``StorageBackend`` face.

    A read that hits a slower level promotes the image into the faster
    levels it missed.  :meth:`store_delta` (and a write-back copy that
    carries dirty extents) goes through a level backend's own
    ``store_delta`` when it has one.  The hierarchy watches each
    level's storage cluster (when it has one) and, on the repair
    cadence of :mod:`repro.stablestore.repair`, copies back blobs the
    level lost outright from a surviving level.

    Parameters
    ----------
    engine:
        The shared simulation clock (write-back copies, promotions and
        re-protection run as engine events).
    levels:
        Fastest-first.  At least one level must be write-through (a
        store must land *somewhere* synchronously).
    """

    kind = StorageKind.REMOTE

    def __init__(
        self,
        engine,
        levels: Sequence[StorageLevel],
    ) -> None:
        if not levels:
            raise StorageError("hierarchy needs at least one level")
        names = [lv.name for lv in levels]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate level names: {names}")
        if not any(lv.write == "through" for lv in levels):
            raise StorageError("hierarchy needs at least one write-through level")
        super().__init__(device=levels[0].backend.device)
        self.engine = engine
        self.levels: List[StorageLevel] = list(levels)
        for level in self.levels:
            level.backend.holds = self.holds  # one table for the stack
        self.survives_node_failure = any(lv.durable for lv in levels)
        #: key -> accounted nbytes of every blob the hierarchy accepted.
        self._directory: Dict[str, int] = {}
        self.promotions = 0
        self.reprotects = 0
        self.writeback_failures = 0
        for level in self.levels:
            cluster = getattr(level.backend, "storage", None)
            if cluster is not None and hasattr(cluster, "on_failure"):
                cluster.on_failure(
                    lambda _s, lv=level: self.engine.after(
                        DETECT_DELAY_NS,
                        lambda: self._reprotect_scan(lv),
                        label="hier-reprotect",
                    )
                )

    # ------------------------------------------------------------------
    def level(self, name: str) -> StorageLevel:
        """Level by name."""
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise StorageError(f"no hierarchy level named {name!r}")

    def _metrics(self):
        return self.engine.metrics

    def _mark_resident(self, level: StorageLevel, key: str, nbytes: int) -> None:
        level._resident.pop(key, None)  # refresh insertion order
        level._resident[key] = nbytes

    def _landed(self, level: StorageLevel, key: str, nbytes: int) -> None:
        """Residency and metrics of a write that landed on ``level``."""
        self._mark_resident(level, key, nbytes)
        metrics = self._metrics()
        metrics.inc(f"hierarchy.{level.name}.writes")
        metrics.inc(f"hierarchy.{level.name}.level_bytes_written", nbytes)

    # ------------------------------------------------------------------
    # StorageBackend protocol: writes
    # ------------------------------------------------------------------
    #: The one synchronous write: :class:`HierarchyWriteStream` opened
    #: and committed at once (named here so per-class tracing can wrap
    #: it).  The client-visible delay is the slowest write-through level
    #: (they run concurrently on their own devices); a level that
    #: cannot accept the blob is skipped and counted, and the store
    #: fails only when *no* level accepted it.
    store = StorageBackend.store

    def store_delta(
        self,
        key: str,
        obj: Any,
        nbytes: int,
        dirty_extents: Extents,
        now_ns: int,
        base_key: Optional[str] = None,
    ) -> int:
        """Write a partially dirty update through the hierarchy.

        Each write-through level whose backend has its own
        ``store_delta`` (the erasure tier) receives an O(dirty)
        partial-stripe update of its resident base copy; every other
        level -- and every level where the base is not resident --
        takes a plain full store, so the call never requires delta
        support anywhere.  ``base_key``
        (default ``key``) names the previous generation's blob; a
        rebasing level consumes it, and the level residency follows.
        Write-back levels get the dirty extents too, so the
        asynchronous copy is also O(dirty) where the backend allows.
        A level that refuses the write is skipped as in :meth:`store`.
        """
        metrics = self._metrics()
        delays: List[int] = []
        for level in self.levels:
            if level.write != "through":
                continue
            try:
                d = self._write_level(
                    level, key, obj, nbytes, now_ns, dirty_extents, base_key
                )
            except StorageLostError:
                metrics.inc("hierarchy.write_errors")
                continue
            delays.append(d)
        if not delays:
            raise StorageLostError(
                f"no hierarchy level accepted the delta write of {key!r}"
            )
        self._directory[key] = nbytes
        self.bytes_written += nbytes
        self._schedule_writebacks(key, obj, nbytes, dirty_extents, base_key)
        self._evict_over_capacity()
        return max(delays)

    def _delta_fn(
        self, level: StorageLevel, dirty_extents: Optional[Extents], base: str
    ):
        """The level backend's ``store_delta`` when a dirty-extent update
        of its resident ``base`` applies, else None."""
        if dirty_extents is None:
            return None
        delta_fn = getattr(level.backend, "store_delta", None)
        if delta_fn is None or not level.backend.exists(base):
            return None
        return delta_fn

    def _write_level(
        self,
        level: StorageLevel,
        key: str,
        obj: Any,
        nbytes: int,
        now_ns: int,
        dirty_extents: Optional[Extents] = None,
        base_key: Optional[str] = None,
    ) -> int:
        """Write one level (delta update where :meth:`_delta_fn` allows,
        else a full store); raises the level's StorageLostError."""
        base = base_key if base_key is not None else key
        delta_fn = self._delta_fn(level, dirty_extents, base)
        if delta_fn is None:
            delay = level.backend.store(key, obj, nbytes, now_ns)
        else:
            delay = delta_fn(key, obj, nbytes, dirty_extents, now_ns, base_key=base_key)
            self._metrics().inc(f"hierarchy.{level.name}.delta_writes")
            if base != key and not level.backend.exists(base):
                level._resident.pop(base, None)  # rebase consumed it
        self._landed(level, key, nbytes)
        return delay

    def _schedule_writebacks(
        self,
        key: str,
        obj: Any,
        nbytes: int,
        dirty_extents: Optional[Extents] = None,
        base_key: Optional[str] = None,
    ) -> None:
        rebase = base_key is not None and base_key != key
        for level in self.levels:
            if level.write != "back":
                continue
            if rebase:
                # The copy delta-updates the base's stripe into ``key``:
                # the base must outlive it.
                self.holds.hold(base_key)
            self.engine.after(
                level.writeback_delay_ns,
                lambda lv=level: self._writeback(
                    lv, key, obj, nbytes, dirty_extents, base_key
                ),
                label="hier-writeback",
            )

    def _writeback(
        self,
        level: StorageLevel,
        key: str,
        obj: Any,
        nbytes: int,
        dirty_extents: Optional[Extents] = None,
        base_key: Optional[str] = None,
    ) -> None:
        base = base_key if base_key is not None else key
        # A blob deleted before its copy started cancels the copy.  A
        # plain copy that already landed (promotion, earlier copy) is
        # done; a *delta* copy must still run even though exists(key) is
        # true -- the resident bytes are the stale base generation.
        if key in self._directory and (
            self._delta_fn(level, dirty_extents, base) is not None
            or not level.backend.exists(key)
        ):
            metrics = self._metrics()
            try:
                self._write_level(
                    level, key, obj, nbytes, self.engine.now_ns, dirty_extents, base_key
                )
            except StorageLostError:
                # The level is degraded right now; the re-protection scan
                # retries once it recovers.
                self.writeback_failures += 1
                metrics.inc("hierarchy.writeback_failures")
            else:
                metrics.inc("hierarchy.writeback_bytes", nbytes)
                self._evict_over_capacity()
        if base != key:
            self.holds.release(base)

    # ------------------------------------------------------------------
    # StorageBackend protocol: reads
    # ------------------------------------------------------------------
    def _read_from_levels(
        self, key: str, now_ns: int, fanout: bool
    ) -> Tuple[Any, int]:
        if key not in self._directory:
            raise StorageError(f"no blob stored under {key!r}")
        metrics = self._metrics()
        nbytes = self._directory[key]
        for i, level in enumerate(self.levels):
            if not level.backend.exists(key):
                metrics.inc(f"hierarchy.{level.name}.misses")
                continue
            reader = level.backend.load_fanout if fanout else level.backend.load
            obj, delay = reader(key, now_ns)
            metrics.inc(f"hierarchy.{level.name}.hits")
            if i > 0:
                self._schedule_promotion(key, obj, nbytes, self.levels[:i], delay)
            self.bytes_read += nbytes
            return obj, delay
        metrics.inc("hierarchy.lost_reads")
        raise StorageLostError(
            f"no hierarchy level can currently read {key!r}"
        )

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Serial read: fastest level holding the blob serves it."""
        return self._read_from_levels(key, now_ns, fanout=False)

    def load_fanout(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Fan-out read through the serving level's own fan-out path."""
        return self._read_from_levels(key, now_ns, fanout=True)

    #: Restore prefetch: the base fan-out loop over :meth:`load_fanout`
    #: (named here so per-class tracing can wrap it).
    load_parallel = StorageBackend.load_parallel

    def _schedule_promotion(
        self,
        key: str,
        obj: Any,
        nbytes: int,
        into: Sequence[StorageLevel],
        after_ns: int,
    ) -> None:
        self.engine.after(
            max(0, after_ns),
            lambda: self._promote(key, obj, nbytes, list(into)),
            label="hier-promote",
        )

    def _promote(
        self, key: str, obj: Any, nbytes: int, into: List[StorageLevel]
    ) -> None:
        if key not in self._directory:
            return
        metrics = self._metrics()
        for level in into:
            if level.backend.exists(key):
                continue
            try:
                level.backend.store(key, obj, nbytes, self.engine.now_ns)
            except StorageLostError:
                continue
            self._mark_resident(level, key, nbytes)
            self.promotions += 1
            metrics.inc("hierarchy.promotions")
            metrics.inc("hierarchy.promoted_bytes", nbytes)
            metrics.inc(f"hierarchy.{level.name}.level_bytes_written", nbytes)
        self._evict_over_capacity()

    # ------------------------------------------------------------------
    # Demotion (capacity eviction) and re-protection
    # ------------------------------------------------------------------
    def _held_elsewhere(self, key: str, excluding: StorageLevel) -> bool:
        return any(
            lv is not excluding and lv.backend.exists(key) for lv in self.levels
        )

    def _evict_over_capacity(self) -> None:
        metrics = self._metrics()
        for level in self.levels:
            if level.capacity_bytes is None:
                continue
            while level.resident_bytes() > level.capacity_bytes:
                victim = None
                for key in level._resident:  # oldest-first insertion order
                    if self._held_elsewhere(key, level):
                        victim = key
                        break
                if victim is None:
                    break  # nothing safely demotable; hold over capacity
                level._resident.pop(victim)
                level.backend._drop(victim)
                metrics.inc(f"hierarchy.{level.name}.evictions")

    def _reprotect_scan(self, level: StorageLevel) -> None:
        """Copy blobs ``level`` lost outright back from a survivor.

        A level's own repairer handles missing replicas/shards while
        the blob is still readable there; this scan covers the case the
        level cannot repair itself -- every copy it held is gone -- but
        another level still has the data.
        """
        backend = level.backend
        if hasattr(backend, "lost_keys"):
            lost = [k for k in backend.lost_keys() if k in self._directory]
        else:
            lost = [k for k in self._directory if not backend.exists(k)]
        metrics = self._metrics()
        repaired = 0
        now = self.engine.now_ns
        for key in lost:
            if repaired >= MAX_REPAIRS_PER_SCAN:
                # More to do: rescan after the steady-state interval.
                self.engine.after(
                    SCAN_INTERVAL_NS,
                    lambda: self._reprotect_scan(level),
                    label="hier-reprotect",
                )
                break
            nbytes = self._directory[key]
            try:
                obj, read_delay = self._read_from_levels(key, now, fanout=True)
            except (StorageError, StorageLostError):
                continue  # no surviving copy anywhere: genuinely lost
            try:
                backend._drop(key)  # clear any partial shard/replica set
                backend.store(key, obj, nbytes, now + read_delay)
            except StorageLostError:
                continue
            self._mark_resident(level, key, nbytes)
            self.reprotects += 1
            repaired += 1
            metrics.inc("hierarchy.reprotects")
            metrics.inc("hierarchy.reprotected_bytes", nbytes)

    # ------------------------------------------------------------------
    # StorageBackend protocol: metadata
    # ------------------------------------------------------------------
    def open_stream(self, key: str, now_ns: int) -> "HierarchyWriteStream":
        """Open a pipelined write through every write-through level."""
        return HierarchyWriteStream(self, key, now_ns)

    def exists(self, key: str) -> bool:
        """Whether any level can currently read ``key``."""
        return key in self._directory and any(
            lv.backend.exists(key) for lv in self.levels
        )

    def peek(self, key: str) -> Any:
        """Inspect a blob without charging I/O (availability and chain walks)."""
        if key not in self._directory:
            raise StorageError(f"no blob stored under {key!r}")
        for level in self.levels:
            try:
                return level.backend.peek(key)
            except (StorageError, StorageLostError):
                continue
        raise StorageLostError(f"no hierarchy level can reach {key!r}")

    #: Named here so per-class tracing can wrap it.
    delete = StorageBackend.delete

    def _drop(self, key: str) -> None:
        """Drop the blob from every level (idempotent)."""
        self._directory.pop(key, None)
        for level in self.levels:
            level._resident.pop(key, None)
            level.backend._drop(key)

    def keys(self) -> Iterator[str]:
        """Stored blob keys, sorted."""
        return iter(sorted(self._directory))

    def stored_bytes(self) -> int:
        """Logical bytes held (one count per blob)."""
        return sum(self._directory.values())

    def physical_bytes(self) -> int:
        """Bytes on physical media across every level (each level
        backend's own replica- or shard-weighted ``physical_bytes``)."""
        return sum(lv.backend.physical_bytes() for lv in self.levels)

    def level_physical_bytes(self) -> Dict[str, int]:
        """Per-level physical bytes (the E23 per-level table)."""
        return {lv.name: lv.backend.physical_bytes() for lv in self.levels}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "/".join(lv.name for lv in self.levels)
        return f"<HierarchicalStore {names} keys={len(self._directory)}>"


class HierarchyWriteStream(WriteStream):
    """A pipelined write fanned across the write-through levels.

    Each level contributes its own stream (quorum-aware for replicated
    and erasure levels); sends and the commit return the slowest
    level's delay.  Write-back levels receive their copy after the
    commit.  A level whose stream refuses to open, send or commit
    (:class:`~repro.errors.StorageLostError`: its quorum is
    unreachable) is dropped and counted in ``hierarchy.write_errors``;
    the stream fails only when no level is left.
    """

    def __init__(self, store: HierarchicalStore, key: str, now_ns: int) -> None:
        super().__init__(store, key)
        self.store = store
        self.streams: List[Tuple[StorageLevel, Any]] = []
        for level in store.levels:
            if level.write != "through":
                continue
            try:
                self.streams.append((level, level.backend.open_stream(key, now_ns)))
            except StorageLostError:
                store._metrics().inc("hierarchy.write_errors")
        self._check_left()

    def _each(self, call: Callable[[StorageLevel, Any], int]) -> int:
        """``call(level, stream)`` on every level stream; returns the
        slowest delay.  A level that raises StorageLostError is dropped
        and counted; none left is the stream's own StorageLostError."""
        delay = 0
        kept = []
        for level, stream in self.streams:
            try:
                delay = max(delay, call(level, stream))
            except StorageLostError:
                self.store._metrics().inc("hierarchy.write_errors")
                continue
            kept.append((level, stream))
        self.streams = kept
        self._check_left()
        return delay

    def _check_left(self) -> None:
        if not self.streams:
            raise StorageLostError(
                f"no hierarchy level accepted the write of {self.key!r}"
            )

    def send(self, nbytes: int, now_ns: int) -> int:
        """Forward one extent to every level stream; slowest wins."""
        delay = self._each(lambda _lv, stream: stream.send(nbytes, now_ns))
        self.sent_bytes += int(nbytes)
        return delay

    def send_chunk(self, chunk: Any, now_ns: int) -> int:
        """Forward one captured chunk to every level stream."""
        delay = self._each(lambda _lv, stream: stream.send_chunk(chunk, now_ns))
        self.sent_bytes += int(chunk.nbytes)
        return delay

    def commit(self, obj: Any, nbytes: int, now_ns: int) -> int:
        """Commit on every level stream and publish the blob."""
        if self.committed:
            raise StorageError(f"stream for {self.key!r} already committed")
        st = self.store

        def land(level: StorageLevel, stream: Any) -> int:
            delay = stream.commit(obj, nbytes, now_ns)
            st._landed(level, self.key, nbytes)
            return delay

        delay = self._each(land)
        self.committed = True
        st._directory[self.key] = nbytes
        st.bytes_written += nbytes
        st._schedule_writebacks(self.key, obj, nbytes)
        st._evict_over_capacity()
        return delay
