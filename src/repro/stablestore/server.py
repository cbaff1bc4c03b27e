"""Storage-server nodes: the machines behind "remote stable storage".

A :class:`StorageServer` is a fail-stop node like any compute node in
:mod:`repro.cluster.machine`: it lives on the shared engine clock, can
fail and recover, and while failed its replicas are unreachable.  Its
disk is a queued-bandwidth :class:`~repro.storage.devices.Device`; all
servers sit behind one shared ingress network link, so simultaneous
checkpoint waves from many compute nodes queue on the link exactly like
concurrent writers on a real parallel filesystem's I/O network.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, List, Tuple

from ..errors import StorageError
from ..storage.devices import disk_device, network_device

__all__ = ["StorageServerState", "StorageServer", "StorageCluster"]


class StorageServerState(str, Enum):
    """Fail-stop lifecycle of a storage server."""

    UP = "up"
    FAILED = "failed"


class StorageServer:
    """One storage node: a disk full of replicas plus fail-stop state."""

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self.disk = disk_device(f"disk[store{server_id}]")
        self.state = StorageServerState.UP
        #: key -> (obj, nbytes): the replicas this server holds.
        self.replicas: Dict[str, Tuple[Any, int]] = {}
        self.failures = 0
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def up(self) -> bool:
        """Whether the server is serving requests."""
        return self.state == StorageServerState.UP

    def holds(self, key: str) -> bool:
        """Whether a replica of ``key`` is on this server's disk."""
        return key in self.replicas

    def put_replica(self, key: str, obj: Any, nbytes: int) -> None:
        """Install one replica (accounting only; timing is the caller's)."""
        self.replicas[key] = (obj, nbytes)
        self.bytes_written += nbytes

    def drop_replica(self, key: str) -> None:
        """Remove a replica if present (idempotent)."""
        self.replicas.pop(key, None)

    def stored_bytes(self) -> int:
        """Bytes of replicas currently on disk."""
        return sum(n for _, n in self.replicas.values())

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Fail-stop: replicas become unreachable until recovery."""
        if self.state == StorageServerState.FAILED:
            return
        self.state = StorageServerState.FAILED
        self.failures += 1

    def recover(self, data_survived: bool = True) -> None:
        """Reboot the server; the disk survives a power-cycle by default."""
        self.state = StorageServerState.UP
        if not data_survived:
            self.replicas.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StorageServer {self.server_id} {self.state.value} "
            f"replicas={len(self.replicas)}>"
        )


class StorageCluster:
    """N storage servers behind one shared ingress link.

    Parameters
    ----------
    engine:
        The shared simulation clock (the compute cluster's engine, so
        storage failures and repairs interleave with everything else).
    n_servers:
        How many storage-server nodes to build.

    Every transfer crosses ``link``, one GigE-class network device: the
    contention point under simultaneous checkpoint waves.
    """

    def __init__(self, engine, n_servers: int) -> None:
        if n_servers < 1:
            raise StorageError("storage cluster needs at least one server")
        self.engine = engine
        self.link = network_device("nic[stablestore]")
        self.servers: List[StorageServer] = [
            StorageServer(i) for i in range(n_servers)
        ]
        self._failure_watchers: List[Callable[[StorageServer], None]] = []

    # ------------------------------------------------------------------
    def server(self, server_id: int) -> StorageServer:
        """Server by id."""
        if not 0 <= server_id < len(self.servers):
            raise StorageError(f"no storage server {server_id}")
        return self.servers[server_id]

    def up_servers(self) -> List[StorageServer]:
        """Every currently-serving storage server."""
        return [s for s in self.servers if s.up]

    def on_failure(self, fn: Callable[[StorageServer], None]) -> None:
        """Register a callback fired when any storage server fails."""
        self._failure_watchers.append(fn)

    def fail_server(self, server_id: int) -> None:
        """Inject a fail-stop on one storage server, now."""
        server = self.server(server_id)
        if not server.up:
            return
        server.fail()
        self.engine.metrics.inc("storage_server_failures")
        for fn in list(self._failure_watchers):
            fn(server)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StorageCluster {len(self.up_servers())}/{len(self.servers)} up>"
