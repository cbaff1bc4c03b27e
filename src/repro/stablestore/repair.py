"""Background re-replication of under-replicated checkpoint blobs.

After a storage-server failure, every blob that had a replica on the
dead server is one failure away from being unrecoverable.  The repairer
does what real replicated stores do: detect the failure, scan for
under-replicated blobs, and copy each one from a surviving holder to a
new server -- paying real device time on the source disk, the shared
ingress link, and the destination disk, so a repair storm competes with
ongoing checkpoint waves for the same bandwidth.
"""

from __future__ import annotations

from typing import Set

from ..simkernel.costs import NS_PER_MS
from .replicated import ReplicatedStore

__all__ = [
    "DETECT_DELAY_NS",
    "SCAN_INTERVAL_NS",
    "MAX_REPAIRS_PER_SCAN",
    "ReplicationRepairer",
]

#: The repair cadence, shared by the replica and shard repairers and the
#: hierarchy's re-protection walk: failure-detection latency before the
#: post-failure scan, the steady-state scan period, and the per-scan
#: throttle so a repair storm does not saturate the ingress link.
DETECT_DELAY_NS = 2 * NS_PER_MS
SCAN_INTERVAL_NS = 10 * NS_PER_MS
MAX_REPAIRS_PER_SCAN = 32


class ReplicationRepairer:
    """Repairs replication after storage-server failures.

    Scans every :data:`SCAN_INTERVAL_NS`, and :data:`DETECT_DELAY_NS`
    after any observed server failure; each scan starts at most
    :data:`MAX_REPAIRS_PER_SCAN` copies.

    Parameters
    ----------
    store:
        The replicated store to watch.
    engine:
        The shared simulation clock.
    """

    def __init__(self, store: ReplicatedStore, engine) -> None:
        self.store = store
        self.engine = engine
        self._inflight: Set[str] = set()
        self._stopped = False
        self.repairs_completed = 0
        self.bytes_rereplicated = 0
        store.storage.on_failure(self._on_server_failure)
        self.engine.after(SCAN_INTERVAL_NS, self._tick, label="repair-scan")

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop scanning (in-flight copies still complete)."""
        self._stopped = True

    def _on_server_failure(self, server) -> None:
        if self._stopped:
            return
        self.engine.after(DETECT_DELAY_NS, self.scan, label="repair-detect")

    def _tick(self) -> None:
        if self._stopped:
            return
        self.scan()
        self.engine.after(SCAN_INTERVAL_NS, self._tick, label="repair-scan")

    # ------------------------------------------------------------------
    def scan(self) -> int:
        """Start repair copies for under-replicated blobs; returns how
        many copies were initiated."""
        if self._stopped:
            return 0
        started = 0
        for key in self.store.under_replicated():
            if started >= MAX_REPAIRS_PER_SCAN:
                break
            if key in self._inflight:
                continue
            if self._start_repair(key):
                started += 1
        return started

    def _start_repair(self, key: str) -> bool:
        store = self.store
        source = None
        dest = None
        for server in store.candidates(key):
            if not server.up:
                continue
            if server.holds(key):
                if source is None:
                    source = server
            elif dest is None:
                dest = server
        if source is None or dest is None:
            return False  # nothing readable, or nowhere to put a copy
        obj, nbytes = source.replicas[key]
        now = self.engine.now_ns
        # source disk read -> shared link -> destination disk write.
        delay = source.disk.submit(now, nbytes)
        delay += store.device.submit(now + delay, nbytes)
        delay += dest.disk.submit(now + delay, nbytes)
        source.bytes_read += nbytes
        self._inflight.add(key)
        self.engine.after(
            delay,
            lambda: self._finish(key, dest, obj, nbytes, begun_ns=now),
            label="repair-copy",
        )
        return True

    def _finish(self, key: str, dest, obj, nbytes: int, begun_ns: int = 0) -> None:
        self._inflight.discard(key)
        if key not in self.store._directory:
            return  # deleted (GC'd) while the copy was in flight
        if not dest.up:
            return  # destination died mid-copy; a later scan retries
        dest.put_replica(key, obj, nbytes)
        self.repairs_completed += 1
        self.bytes_rereplicated += nbytes
        self.engine.metrics.inc("replica_repairs")
        self.engine.metrics.inc("storage.repair_bytes", nbytes)
        self.engine.tracer.record(
            "storage.repair",
            begun_ns,
            self.engine.now_ns,
            key=key,
            dest=dest.server_id,
            nbytes=nbytes,
        )
