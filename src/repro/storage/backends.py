"""Stable-storage backends: the Table 1 "stable storage" axis.

The paper's fault-tolerance critique (Section 4.1): "Most store the
checkpoint locally instead of remotely, thus checkpoint data cannot be
retrieved in case of a failure of the machine.  Fault tolerance is
limited to the case of restarts in the event of power outages or
reboots."  The backends encode exactly those semantics:

* :class:`LocalDiskStorage` -- survives a *reboot* of its node but is
  unreachable while the node is failed (experiment E13).
* :class:`RemoteStorage` -- survives the death of any compute node; costs
  network bandwidth.
* :class:`MemoryStorage` -- Software Suspend's standby mode: an image in
  RAM; lost on power loss.
* :class:`NullStorage` -- "none" in Table 1 (BPROC, ZAP): state is
  streamed to a peer for migration, never persisted.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from ..errors import StorageError, StorageLostError
from .devices import Device, disk_device, memory_device, network_device

__all__ = [
    "StorageKind",
    "StorageBackend",
    "WriteStream",
    "LocalDiskStorage",
    "RemoteStorage",
    "MemoryStorage",
    "NullStorage",
]


class StorageKind(str, Enum):
    """Where checkpoint data lands (Table 1 vocabulary)."""

    LOCAL = "local"
    REMOTE = "remote"
    MEMORY = "memory"
    NONE = "none"


class StorageBackend:
    """Abstract key -> blob store with virtual-time accounting.

    ``store``/``load`` return the I/O delay the caller must charge (by
    yielding a ``Compute`` op of that duration, since all surveyed
    packages write synchronously).
    """

    kind: StorageKind = StorageKind.NONE
    #: Whether data outlives a fail-stop of the node that wrote it.
    survives_node_failure: bool = False
    #: Whether a commit drops every older blob (a migration pipe).
    keeps_only_newest: bool = False

    def __init__(self, device: Device) -> None:
        # Imported here: the stablestore package imports this module.
        from ..stablestore.holds import HoldTable

        self.device = device
        self._blobs: Dict[str, Tuple[Any, int]] = {}
        #: What still needs each stored key; a layer stacked on this one
        #: shares it (see :mod:`repro.stablestore.holds`).
        self.holds = HoldTable()
        self.bytes_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------
    def store(self, key: str, obj: Any, nbytes: int, now_ns: int) -> int:
        """Persist ``obj`` (accounted as ``nbytes``); returns delay_ns.

        The one synchronous write of every backend: a stream opened and
        committed at once, so a store and a streamed write of the same
        blob charge and publish alike.
        """
        return self.open_stream(key, now_ns).commit(obj, nbytes, now_ns)

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Fetch ``obj``; returns (obj, delay_ns)."""
        self._check_available()
        try:
            obj, nbytes = self._blobs[key]
        except KeyError:
            raise StorageError(f"no blob stored under {key!r}") from None
        delay = self.device.submit(now_ns, nbytes)
        self.bytes_read += nbytes
        return obj, delay

    def exists(self, key: str) -> bool:
        """Whether ``key`` is retrievable right now."""
        try:
            self._check_available()
        except StorageLostError:
            return False
        return key in self._blobs

    def peek(self, key: str) -> Any:
        """Inspect a stored blob without charging I/O.

        A simulation-level helper (availability pre-checks, delta chain
        walks); real I/O goes through :meth:`load`.
        """
        self._check_available()
        try:
            return self._blobs[key][0]
        except KeyError:
            raise StorageError(f"no blob stored under {key!r}") from None

    def delete(self, key: str) -> None:
        """Request that ``key`` go: it is collected once nothing holds it
        (see :class:`~repro.stablestore.holds.HoldTable`)."""
        self.holds.request(key, self)

    def _drop(self, key: str) -> None:
        """Remove this layer's copy of ``key`` now (idempotent)."""
        self._blobs.pop(key, None)

    def keys(self) -> Iterator[str]:
        """Iterate stored keys."""
        return iter(sorted(self._blobs))

    def stored_bytes(self) -> int:
        """Total bytes currently held."""
        return sum(n for _, n in self._blobs.values())

    def physical_bytes(self) -> int:
        """Bytes on physical media; backends that keep several copies
        (replicas, shards) override.  A single device holds one."""
        return self.stored_bytes()

    def _check_available(self) -> None:
        """Subclasses raise :class:`StorageLostError` when unreachable."""

    # ------------------------------------------------------------------
    # Pipelined access
    # ------------------------------------------------------------------
    def load_fanout(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Fetch ``obj`` by the backend's parallel read path.

        Backends with several copies override this to issue the read to
        every copy at once and take the fastest (see
        :meth:`~repro.stablestore.ReplicatedStore.load_fanout`); a
        single device has one path, :meth:`load`.
        """
        return self.load(key, now_ns)

    def load_parallel(
        self, keys: Sequence[str], now_ns: int
    ) -> Tuple[Dict[str, Any], int]:
        """Fetch several blobs issued at the same virtual instant.

        This is the restore-prefetch fan-out: every read is submitted at
        ``now_ns`` through :meth:`load_fanout`, so the device model
        overlaps what real hardware overlaps (independent disks seek
        concurrently; a shared link serializes only its wire time).
        Returns ``({key: obj}, delay_ns)`` where the delay is the
        *slowest* fetch -- versus the serial chain walk, which pays the
        *sum*.
        """
        objs: Dict[str, Any] = {}
        worst = 0
        for key in keys:
            obj, delay = self.load_fanout(key, now_ns)
            objs[key] = obj
            if delay > worst:
                worst = delay
        return objs, worst

    def open_stream(self, key: str, now_ns: int) -> "WriteStream":
        """Open a pipelined, multi-extent write of one blob.

        Capture code sends extents as they are copied (each slice queues
        on the backend's device immediately) and commits the finished
        object once, charging only the metadata remainder -- total
        device traffic is identical to a monolithic :meth:`store`, but
        the slices overlap with whatever the caller does between sends.
        Every backend that overrides this defines its writes there:
        :meth:`store` is the same stream committed at once.
        """
        return WriteStream(self, key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.kind.value} blobs={len(self._blobs)}>"


class WriteStream:
    """An open multi-extent write of one blob to a single-device backend.

    The stream is the synchronous half of the asynchronous writeback
    pipeline: :meth:`send` reserves device time for one extent *now* and
    returns the deterministic completion delay (the caller schedules the
    acknowledgement as an engine event); :meth:`commit` installs the
    finished object, charging only the bytes not already streamed.

    It is also the base of the other backends' streams, which override
    :meth:`send` and :meth:`commit` and inherit the bookkeeping fields
    and :meth:`send_chunk`.
    """

    def __init__(self, backend: StorageBackend, key: str) -> None:
        backend._check_available()
        self.backend = backend
        self.key = key
        self.sent_bytes = 0
        self.committed = False

    def send(self, nbytes: int, now_ns: int) -> int:
        """Queue one extent on the device; returns its completion delay."""
        self.backend._check_available()
        delay = self.backend.device.submit(now_ns, nbytes)
        self.sent_bytes += nbytes
        return delay

    def send_chunk(self, chunk: Any, now_ns: int) -> int:
        """Queue one captured chunk (dedup-aware backends override)."""
        return self.send(int(chunk.nbytes), now_ns)

    def commit(self, obj: Any, nbytes: int, now_ns: int) -> int:
        """Install ``obj`` under the stream's key; returns the delay of
        the final metadata slice (payload bytes were already sent)."""
        self.backend._check_available()
        if self.committed:
            raise StorageError(f"stream for {self.key!r} already committed")
        self.committed = True
        remainder = max(0, int(nbytes) - self.sent_bytes)
        backend = self.backend
        delay = backend.device.submit(now_ns, remainder)
        if backend.keeps_only_newest:
            backend._blobs.clear()
        backend._blobs[self.key] = (obj, nbytes)
        backend.holds.stored(self.key, obj)
        backend.bytes_written += nbytes
        return delay

    def abort(self) -> None:
        """Give the write up uncommitted, releasing what it holds."""


class LocalDiskStorage(StorageBackend):
    """Node-local disk: fast-ish, but dies (temporarily) with the node."""

    kind = StorageKind.LOCAL
    survives_node_failure = False

    def __init__(self, node_id: int = 0) -> None:
        super().__init__(disk_device(f"disk[node{node_id}]"))
        self.node_id = node_id
        self._node_failed = False

    def mark_node_failed(self) -> None:
        """Fail-stop of the owning node: blobs become unreachable."""
        self._node_failed = True

    def mark_node_recovered(self, data_survived: bool = True) -> None:
        """Reboot/repair: data survives a power-cycle, not a disk loss."""
        self._node_failed = False
        if not data_survived:
            self._blobs.clear()

    def _check_available(self) -> None:
        if self._node_failed:
            raise StorageLostError(
                f"local disk of failed node {self.node_id} is unreachable"
            )


class RemoteStorage(StorageBackend):
    """Network-attached stable storage (the paper's recommended target)."""

    kind = StorageKind.REMOTE
    survives_node_failure = True

    def __init__(self, device: Optional[Device] = None) -> None:
        super().__init__(device or network_device("nic[remote-store]"))


class MemoryStorage(StorageBackend):
    """RAM staging (Software Suspend standby): gone on power loss."""

    kind = StorageKind.MEMORY
    survives_node_failure = False

    def __init__(self, device: Optional[Device] = None) -> None:
        super().__init__(device or memory_device())

    def power_loss(self) -> None:
        """Drop everything (standby images do not survive power-down)."""
        self._blobs.clear()


class NullStorage(StorageBackend):
    """Table 1 "none": nothing is persisted (pure migration pipes)."""

    kind = StorageKind.NONE
    survives_node_failure = False
    # Charges transfer time (the state is streamed to the peer) but
    # retains only the most recent image transiently, mirroring a
    # migration pipe: once consumed, it is gone.
    keeps_only_newest = True

    def __init__(self) -> None:
        super().__init__(network_device("nic[migrate]"))

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        obj, delay = super().load(key, now_ns)
        self._blobs.pop(key, None)  # consumed by the peer
        return obj, delay
