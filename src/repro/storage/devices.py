"""I/O device models: disk, network interface, memory.

The paper's companion feasibility study [31] identifies "the current
bottlenecks, namely I/O bus, disk, and interconnection network" as the
hardware that determines whether checkpointing is affordable.  Devices
here are simple queued-bandwidth models: a transfer pays a fixed access
latency plus size/bandwidth, serialized FIFO per device (concurrent
writers queue), with defaults calibrated to 2004-era parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError
from ..simkernel.costs import NS_PER_MS, NS_PER_US

__all__ = ["Device", "disk_device", "network_device", "memory_device"]


@dataclass
class Device:
    """A queued, bandwidth-limited transfer engine.

    Parameters
    ----------
    name:
        Diagnostic label.
    latency_ns:
        Per-operation access latency (seek/interrupt/packet setup).
    bytes_per_ns:
        Sustained bandwidth.
    """

    name: str
    latency_ns: int
    bytes_per_ns: float
    #: Virtual time at which the device becomes free (FIFO queueing).
    busy_until_ns: int = 0
    #: Lifetime statistics.
    total_bytes: int = 0
    total_ops: int = 0

    def transfer_time_ns(self, nbytes: int) -> int:
        """Unqueued service time for ``nbytes``."""
        if nbytes < 0:
            raise StorageError(f"negative transfer size {nbytes}")
        return self.latency_ns + int(nbytes / self.bytes_per_ns)

    def submit(self, now_ns: int, nbytes: int) -> int:
        """Enqueue a transfer at ``now_ns``; returns completion delay.

        The caller charges the returned delay to whoever performs the I/O
        (synchronous write-through, as all the surveyed packages do).
        """
        start = max(now_ns, self.busy_until_ns)
        finish = start + self.transfer_time_ns(nbytes)
        self.busy_until_ns = finish
        self.total_bytes += nbytes
        self.total_ops += 1
        return finish - now_ns

    def estimate(self, now_ns: int, nbytes: int) -> int:
        """Completion delay :meth:`submit` would return, without enqueuing.

        Fan-out readers use this to pick the fastest replicas *before*
        committing traffic to their devices, so losing candidates are
        never charged for transfers whose responses would be discarded.
        """
        start = max(now_ns, self.busy_until_ns)
        return start + self.transfer_time_ns(nbytes) - now_ns


def disk_device(name: str = "disk") -> Device:
    """A 2004-class local disk: ~8 ms access, ~50 MB/s sustained."""
    return Device(name=name, latency_ns=8 * NS_PER_MS, bytes_per_ns=0.05)


def network_device(name: str = "nic") -> Device:
    """A GigE-class interconnect path to a remote file server:
    ~60 us round-trip setup, ~100 MB/s sustained."""
    return Device(name=name, latency_ns=60 * NS_PER_US, bytes_per_ns=0.1)


def memory_device(name: str = "ram") -> Device:
    """Memory-to-memory staging (Software Suspend's standby mode)."""
    return Device(name=name, latency_ns=2 * NS_PER_US, bytes_per_ns=1.5)
