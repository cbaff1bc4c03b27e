"""The quorum-replicated stable-storage client.

:class:`ReplicatedStore` implements the :class:`~repro.storage.backends.
StorageBackend` protocol, so every mechanism and the cluster use it
exactly like the monolithic :class:`~repro.storage.RemoteStorage` it
replaces -- but behind the protocol each blob is placed on
``replication`` storage servers chosen by rendezvous hashing, writes
return once a W-of-N quorum of replicas is durable, and reads return
once R-of-N replicas respond.

A request that lands on a failed server costs a detection timeout, then
retries against the next candidate after an exponentially-backed-off
delay (the sloppy-quorum walk real replicated stores do).
:class:`~repro.errors.StorageLostError` is raised only when the quorum
itself is unreachable -- fewer than W (or R) live replicas exist.

The client's key directory (which keys exist, at what size) is modelled
as reliable metadata, the usual assumption for a replicated metadata
service; what fails here is the *data* tier, which is where checkpoint
bytes live and what the survivability experiments stress.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import StorageError, StorageLostError
from ..simkernel.costs import NS_PER_MS, NS_PER_US
from ..storage.backends import StorageBackend, StorageKind, WriteStream
from .server import StorageCluster, StorageServer

__all__ = ["QuorumStore", "QuorumWriteStream", "ReplicatedStore", "ReplicaWriteStream"]

#: A server reached by the retry walk and the delay (ns) paid before it.
Placed = Tuple[StorageServer, int]


def _score(key: str, server_id: int) -> int:
    """Deterministic rendezvous-hash score (unsalted, unlike ``hash``)."""
    return zlib.crc32(f"{key}|{server_id}".encode())


class QuorumStore(StorageBackend):
    """The core shared by the clients that spread blobs over servers.

    :class:`ReplicatedStore` (whole-blob replicas) and
    :class:`~repro.stablestore.ErasureStore` (``k+m`` shards) differ only
    in what they put on each server.  Both use this class for the
    rendezvous placement, the retry walk past failed servers, the
    quorum-failure accounting, the link-then-disk write fan-out, the
    disk-then-link read gather, the key directory and the one write
    path, :class:`QuorumWriteStream`.
    """

    kind = StorageKind.REMOTE
    survives_node_failure = True

    #: The retry walk (:meth:`_walk`): the failed-server detection
    #: timeout, and the exponential backoff between successive retries
    #: (first delay, growth factor, cap).
    timeout_ns = 2 * NS_PER_MS
    backoff_base_ns = 500 * NS_PER_US
    backoff_factor = 2.0
    backoff_cap_ns = 16 * NS_PER_MS

    def __init__(self, storage: StorageCluster) -> None:
        super().__init__(device=storage.link)
        self.storage = storage
        #: key -> accounted nbytes of every blob the service has accepted.
        self._directory: Dict[str, int] = {}
        #: key -> its rendezvous order (:meth:`candidates`); an entry is
        #: dropped with its key (:meth:`_forget`).
        self._candidates: Dict[str, Tuple[StorageServer, ...]] = {}
        # Retry / failure statistics (the E19 quorum-behaviour evidence).
        self.write_retries = 0
        self.read_retries = 0
        self.backoff_ns_total = 0
        self.quorum_write_failures = 0
        self.quorum_read_failures = 0

    @staticmethod
    def _check_range(what: str, value: int, lo: int, hi: int) -> None:
        if not lo <= value <= hi:
            raise StorageError(f"{what} {value} not in {lo}..{hi}")

    # ------------------------------------------------------------------
    # Placement, retries, quorum
    # ------------------------------------------------------------------
    def candidates(self, key: str) -> Tuple[StorageServer, ...]:
        """All servers in rendezvous-preference order for ``key``.

        The first entries are the preferred placement; the rest are the
        fallback walk order when preferred servers are down.  The order
        depends only on the key and the fixed server list, so it is
        computed once per key.
        """
        order = self._candidates.get(key)
        if order is None:
            order = self._candidates[key] = tuple(sorted(
                self.storage.servers,
                key=lambda s: (_score(key, s.server_id), s.server_id),
                reverse=True,
            ))
        return order

    def _walk(
        self, servers: Iterable[StorageServer], want: int, op: str
    ) -> List[Placed]:
        """The sloppy-quorum retry walk over ``servers``, in order.

        Collects up to ``want`` live servers.  Each failed server tried
        on the way is an RPC that times out: it costs ``timeout_ns`` plus
        the current backoff, which then grows by ``backoff_factor`` up
        to ``backoff_cap_ns``, and counts as an ``op`` ("write" or
        "read") retry.  Returns ``[(server, penalty_ns)]``, where each
        penalty is what was paid before reaching that server.
        """
        metrics = self.storage.engine.metrics
        placed: List[Placed] = []
        penalty = 0
        backoff = self.backoff_base_ns
        for server in servers:
            if len(placed) >= want:
                break
            if server.up:
                placed.append((server, penalty))
                continue
            penalty += self.timeout_ns + backoff
            if op == "write":
                self.write_retries += 1
            else:
                self.read_retries += 1
            metrics.inc(f"storage.{op}_retries")
            self.backoff_ns_total += backoff
            backoff = min(int(backoff * self.backoff_factor), self.backoff_cap_ns)
        return placed

    def _lost(self, op: str, message: str) -> StorageLostError:
        """Count one unreachable ``op`` quorum; returns the error to raise."""
        if op == "write":
            self.quorum_write_failures += 1
        else:
            self.quorum_read_failures += 1
        self.storage.engine.metrics.inc(f"storage.quorum_{op}_failures")
        return StorageLostError(message)

    def _fan_out(
        self, placed: Iterable[Placed], nbytes: int, now_ns: int, quorum: int
    ) -> int:
        """Write ``nbytes`` over the shared link, then onto each placed
        server's disk, starting each transfer its penalty after
        ``now_ns``.  Returns the delay at which the ``quorum``-th
        fastest copy is durable (0 when nothing was placed)."""
        delays: List[int] = []
        for server, penalty in placed:
            start = now_ns + penalty
            link_delay = self.device.submit(start, nbytes)
            disk_delay = server.disk.submit(start + link_delay, nbytes)
            delays.append(penalty + link_delay + disk_delay)
        if not delays:
            return 0
        delays.sort()
        return delays[min(quorum, len(delays)) - 1]

    def _gather(self, placed: Iterable[Placed], nbytes: int, now_ns: int) -> int:
        """Read ``nbytes`` from each placed server's disk, then over the
        shared link; returns the slowest completion."""
        worst = 0
        for server, penalty in placed:
            start = now_ns + penalty
            disk_delay = server.disk.submit(start, nbytes)
            link_delay = self.device.submit(start + disk_delay, nbytes)
            worst = max(worst, penalty + disk_delay + link_delay)
            server.bytes_read += nbytes
        return worst

    # ------------------------------------------------------------------
    # The key directory
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Iterate every key the service has accepted."""
        return iter(sorted(self._directory))

    def stored_bytes(self) -> int:
        """Logical bytes held (one count per blob, as the base class)."""
        return sum(self._directory.values())

    def _forget(self, key: str) -> None:
        """Drop ``key`` from the directory, with its memoized placement."""
        self._directory.pop(key, None)
        self._candidates.pop(key, None)

    def _require_key(self, key: str) -> int:
        """The accounted size of ``key``; StorageError when absent."""
        try:
            return self._directory[key]
        except KeyError:
            raise StorageError(f"no blob stored under {key!r}") from None


class ReplicatedStore(QuorumStore):
    """W-of-N quorum writes, R-of-N quorum reads over N storage servers.

    Parameters
    ----------
    storage:
        The :class:`StorageCluster` holding the server nodes and the
        shared ingress link.
    replication:
        Replicas per blob (the paper-era single file server is
        ``replication=1``).
    write_quorum:
        Acks required before a write returns; defaults to a majority of
        ``replication``.
    read_quorum:
        Replica responses required for a read; defaults to 1 (all
        replicas are identical -- checkpoint images are immutable).
    """

    def __init__(
        self,
        storage: StorageCluster,
        replication: int = 2,
        write_quorum: Optional[int] = None,
        read_quorum: int = 1,
    ) -> None:
        n = len(storage.servers)
        if not 1 <= replication <= n:
            raise StorageError(
                f"replication factor {replication} needs 1..{n} servers"
            )
        super().__init__(storage)
        self.replication = replication
        self.write_quorum = write_quorum if write_quorum is not None else replication // 2 + 1
        self.read_quorum = read_quorum
        self._check_range("write quorum", self.write_quorum, 1, replication)
        self._check_range("read quorum", self.read_quorum, 1, replication)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def holders(self, key: str) -> List[int]:
        """Ids of the reachable servers holding a replica of ``key``, in
        preference order."""
        return [s.server_id for s in self.candidates(key) if s.up and s.holds(key)]

    def replica_count(self, key: str) -> int:
        """Live (reachable) replicas of ``key``."""
        return len(self.holders(key))

    def under_replicated(self) -> List[str]:
        """Keys with at least one live replica but fewer than the target."""
        return [
            k
            for k in sorted(self._directory)
            if 0 < self.replica_count(k) < self.replication
        ]

    def lost_keys(self) -> List[str]:
        """Keys with no reachable replica at all (data currently lost)."""
        return [k for k in sorted(self._directory) if self.replica_count(k) == 0]

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    #: The one synchronous write: :class:`ReplicaWriteStream` opened and
    #: committed at once (named here so per-class tracing can wrap it).
    store = StorageBackend.store

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Fetch ``obj`` from an R-of-N quorum of replica holders.

        Holders are walked in preference order; a dead one costs the
        retry walk's ``timeout + backoff`` (a server without a replica
        answers "not found" at once).
        """
        nbytes = self._require_key(key)
        holders = [s for s in self.candidates(key) if s.holds(key)]
        responders = self._walk(holders, self.read_quorum, "read")
        delay = self._gather(responders, nbytes, now_ns)
        if len(responders) < self.read_quorum:
            raise self._lost(
                "read",
                f"read quorum unreachable for {key!r}: "
                f"{len(responders)} of {self.read_quorum} replicas responded",
            )
        self.bytes_read += nbytes
        self.storage.engine.metrics.inc("storage.quorum_reads")
        self.storage.engine.metrics.observe("storage.read_ns", delay)
        return responders[-1][0].replicas[key][0], delay

    def load_fanout(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Read from the R estimated-fastest live holders in parallel.

        The synchronous :meth:`load` walks holders in preference order
        and pays ``timeout + backoff`` for each dead candidate it tries.
        The fan-out *issues* the read to every live holder at one
        instant (dead servers simply never answer, so no timeout sits
        on the client's critical path), but only the ``read_quorum``
        holders whose disks are estimated to respond fastest actually
        stream the blob -- the losing requests are cancelled before
        their transfers start.  The explicit traffic model: exactly R
        holders pay a disk read and a link crossing of ``nbytes`` and
        bump ``bytes_read``, identical to the serial :meth:`load`'s
        charge for the same cluster state (ties break in rendezvous
        preference order, the serial walk's order).
        """
        nbytes = self._require_key(key)
        holders = [s for s in self.candidates(key) if s.up and s.holds(key)]
        if len(holders) < self.read_quorum:
            raise self._lost(
                "read",
                f"read quorum unreachable for {key!r}: "
                f"{len(holders)} live holders, {self.read_quorum} required",
            )
        order = sorted(
            range(len(holders)),
            key=lambda i: (holders[i].disk.estimate(now_ns, nbytes), i),
        )
        winners = [(holders[i], 0) for i in order[: self.read_quorum]]
        delay = self._gather(winners, nbytes, now_ns)
        self.bytes_read += nbytes
        self.storage.engine.metrics.inc("storage.fanout_reads")
        self.storage.engine.metrics.observe("storage.read_ns", delay)
        return winners[-1][0].replicas[key][0], delay

    #: Restore prefetch: the base fan-out loop over :meth:`load_fanout`
    #: (named here so per-class tracing can wrap it).
    load_parallel = StorageBackend.load_parallel

    def open_stream(self, key: str, now_ns: int) -> "ReplicaWriteStream":
        """Open a pipelined multi-extent quorum write (COW drain path)."""
        return ReplicaWriteStream(self, key)

    def exists(self, key: str) -> bool:
        """Whether a read of ``key`` would currently succeed."""
        return (
            key in self._directory and self.replica_count(key) >= self.read_quorum
        )

    def peek(self, key: str) -> Any:
        """Inspect a blob without charging I/O (availability and chain walks)."""
        self._require_key(key)
        for server in self.candidates(key):
            if server.up and server.holds(key):
                return server.replicas[key][0]
        raise StorageLostError(f"no reachable replica of {key!r}")

    #: Named here so per-class tracing can wrap it.
    delete = StorageBackend.delete

    def _drop(self, key: str) -> None:
        """Drop every replica (idempotent; failed servers apply the
        deletion on recovery, modelled as immediate tombstones)."""
        self._forget(key)
        for server in self.storage.servers:
            server.drop_replica(key)

    def physical_bytes(self) -> int:
        """Replica-weighted bytes actually on server disks.

        Counts only this store's replica entries, so the figure stays
        honest when the cluster is shared with an
        :class:`~repro.stablestore.ErasureStore` (whose shard entries
        live under namespaced server keys).
        """
        return sum(
            nb
            for s in self.storage.servers
            for rkey, (_obj, nb) in s.replicas.items()
            if rkey in self._directory
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicatedStore rf={self.replication} "
            f"W={self.write_quorum} R={self.read_quorum} "
            f"keys={len(self._directory)}>"
        )


class QuorumWriteStream(WriteStream):
    """The one write of a :class:`QuorumStore`: an open pipelined write
    of one blob across the servers it pins.

    Opening the stream performs the rendezvous retry walk once over
    ``width`` servers and pins the servers it placed, each with the
    ``timeout + backoff`` penalty paid before reaching it.  Each :meth:`send` then forwards one extent
    over the shared ingress link and onto every pinned server that is
    up, returning the delay at which the ``quorum``-th copy is durable
    -- the writeback pipeline schedules that instant as the extent's
    acknowledgement event.  :meth:`commit` charges the metadata
    remainder and publishes; the blob becomes visible only then, so a
    crash mid-stream loses time but never publishes a torn blob.  The
    first submit, send or commit, starts each server's transfer its
    walk penalty late; later ones pay none.  The store's ``store()`` is
    this stream committed at once.

    Two refusals, both :class:`~repro.errors.StorageLostError` and both
    counted quorum-write failures:

    * the walk placed fewer than ``quorum`` servers: the first submit
      charges the servers it reached, then raises (nothing is installed,
      so an earlier write of the key keeps its copies);
    * fewer than ``quorum`` pinned servers are still up: the submit
      raises before it charges anything.

    Subclasses say what differs: the bytes each server gets per blob
    byte (:meth:`_server_bytes`) and what each receives at publish
    (:meth:`_publish`).
    """

    #: What is written, and what each server holds (error messages).
    what = "write"
    unit = "replicas"

    def __init__(
        self, store: QuorumStore, key: str, width: int, quorum: int
    ) -> None:
        super().__init__(store, key)
        self.store = store
        self.quorum = quorum
        self.placed = store._walk(store.candidates(key), width, "write")
        #: The pinned servers, in placement order.
        self.servers: List[StorageServer] = [s for s, _ in self.placed]
        self.sent_server_bytes = 0
        self._first = True

    def _server_bytes(self, nbytes: int) -> int:
        """Bytes each pinned server receives for ``nbytes`` of blob."""
        return int(nbytes)

    def _submit(self, nbytes: int, now_ns: int) -> int:
        """Fan ``nbytes`` out to the pinned servers that are up; returns
        the delay at which the ``quorum``-th copy is durable."""
        st = self.store
        first, self._first = self._first, False
        if first and len(self.placed) < self.quorum:
            st._fan_out(self.placed, nbytes, now_ns, self.quorum)
            raise st._lost(
                "write",
                f"{self.what} quorum unreachable for {self.key!r}: "
                f"{len(self.placed)} of {self.quorum} required {self.unit} placed "
                f"({len(st.storage.up_servers())}/{len(st.storage.servers)} "
                f"servers up)",
            )
        live = [(s, p if first else 0) for s, p in self.placed if s.up]
        if len(live) < self.quorum:
            raise st._lost(
                "write",
                f"{self.what} quorum lost mid-stream for {self.key!r}: "
                f"{len(live)} of {self.quorum} pinned servers up",
            )
        return st._fan_out(live, nbytes, now_ns, self.quorum)

    def send(self, nbytes: int, now_ns: int) -> int:
        """Forward one extent to every live pinned server; returns the
        delay at which the ``quorum``-th copy is durable."""
        snb = self._server_bytes(nbytes)
        delay = self._submit(snb, now_ns)
        self.sent_bytes += int(nbytes)
        self.sent_server_bytes += snb
        return delay

    def commit(self, obj: Any, nbytes: int, now_ns: int) -> int:
        """Write the metadata remainder and make the blob visible.

        Charges only what :meth:`send` has not already moved, so total
        link and disk traffic is the same however the blob was split.
        """
        if self.committed:
            raise StorageError(f"stream for {self.key!r} already committed")
        remainder = max(0, self._server_bytes(nbytes) - self.sent_server_bytes)
        delay = self._submit(remainder, now_ns)
        self.committed = True
        self._publish(obj, nbytes, delay)
        self.store.holds.stored(self.key, obj)
        return delay

    def _publish(self, obj: Any, nbytes: int, delay: int) -> None:
        """Install the blob on the pinned servers that are up and in the
        key directory."""
        raise NotImplementedError


class ReplicaWriteStream(QuorumWriteStream):
    """A quorum write of whole-blob replicas: up to ``replication``
    servers, ``write_quorum`` acks, every server gets every byte."""

    def __init__(self, store: ReplicatedStore, key: str) -> None:
        super().__init__(store, key, store.replication, store.write_quorum)

    #: Named here so per-class tracing can wrap them.
    send = QuorumWriteStream.send
    commit = QuorumWriteStream.commit

    def _publish(self, obj: Any, nbytes: int, delay: int) -> None:
        st = self.store
        servers = [s for s in self.servers if s.up]
        for server in servers:
            server.put_replica(self.key, obj, nbytes)
        st._directory[self.key] = nbytes
        st.bytes_written += nbytes * len(servers)
        metrics = st.storage.engine.metrics
        metrics.inc("storage.quorum_writes")
        metrics.inc("storage.replica_bytes_written", nbytes * len(servers))
        metrics.observe("storage.write_ns", delay)
