"""Exception hierarchy for the ``repro`` checkpoint/restart laboratory.

Every error raised by the package derives from :class:`ReproError` so callers
can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "SchedulerError",
    "MemoryError_",
    "SyscallError",
    "SignalError",
    "CheckpointError",
    "RestartError",
    "IncompatibleStateError",
    "StorageError",
    "StorageLostError",
    "ClusterError",
    "RegistryError",
    "WorkloadError",
    "ObservabilityError",
    "DistSnapError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SchedulerError(SimulationError):
    """Invalid scheduler operation (e.g. enqueueing a dead task)."""


class MemoryError_(SimulationError):
    """Invalid simulated-memory operation (bad address, bad protection)."""


class SyscallError(SimulationError):
    """A simulated system call failed (unknown call, bad arguments)."""


class SignalError(SimulationError):
    """Invalid signal operation (unknown signal, bad handler)."""


class CheckpointError(ReproError):
    """A checkpoint operation could not be completed."""


class RestartError(ReproError):
    """A restart operation could not be completed."""


class IncompatibleStateError(RestartError):
    """Restart failed because state could not be recreated on the target.

    This is the failure mode the paper attributes to mechanisms without
    resource virtualization: kernel-persistent identifiers (PIDs, sockets,
    SysV shared-memory segments, IP addresses) clash or are missing on the
    destination machine.
    """


class StorageError(ReproError):
    """A stable-storage backend failed an operation."""


class StorageLostError(StorageError):
    """Stored data is unavailable (e.g. local disk on a failed node)."""


class ClusterError(ReproError):
    """Invalid cluster-level operation."""


class RegistryError(ReproError):
    """Mechanism registry lookup or registration failed."""


class WorkloadError(ReproError):
    """A synthetic workload was misconfigured or misused."""


class ObservabilityError(ReproError):
    """Invalid metrics/tracing usage or a malformed obs export."""


class DistSnapError(ReproError):
    """A coordinated distributed-snapshot operation failed.

    Raised for channel misuse (FIFO violations, sends on closed
    networks), malformed snapshot schedules, protocol aborts surfaced to
    the caller, and inconsistent cuts detected at restart (orphan or
    duplicate messages) -- the invariants experiment E22 asserts.
    """
