"""repro -- a checkpoint/restart laboratory.

Reproduction of *"Current Practice and a Direction Forward in
Checkpoint/Restart Implementations for Fault Tolerance"* (IPPS 2005):
a simulated Linux-like kernel substrate plus behavioural models of every
checkpoint/restart mechanism the paper surveys, the taxonomy (Figure 1)
and feature matrix (Table 1) regenerated from live code, and benchmarks
for each of the paper's quantitative claims.

Layering (import order mirrors dependency order):

* :mod:`repro.simkernel` -- the simulated OS (engine, memory, scheduler,
  signals, syscalls, kernel threads, VFS, modules).
* :mod:`repro.storage` -- stable-storage backends and device models.
* :mod:`repro.stablestore` -- the replicated remote stable-storage
  service (storage-server nodes, quorum client, repair, generation GC).
* :mod:`repro.workloads` -- synthetic applications that drive the kernel.
* :mod:`repro.core` -- checkpoint images, the Checkpointer API, taxonomy,
  feature matrix, the paper's advocated "direction forward" design, and
  autonomic policies.
* :mod:`repro.mechanisms` -- the twelve surveyed packages (and their
  user-level and hardware-level cousins) as concrete Checkpointers.
* :mod:`repro.cluster` -- multi-node machines, failures, parallel jobs,
  migration, coordinated checkpointing.
* :mod:`repro.analysis` -- optimal-interval and reliability mathematics.
* :mod:`repro.reporting` -- ASCII renderers for the tables and figures.
"""

from ._version import __version__
from .errors import (
    CheckpointError,
    ClusterError,
    IncompatibleStateError,
    ReproError,
    RestartError,
    SimulationError,
    StorageError,
    StorageLostError,
)

__all__ = [
    "__version__",
    "ReproError",
    "SimulationError",
    "CheckpointError",
    "RestartError",
    "IncompatibleStateError",
    "StorageError",
    "StorageLostError",
    "ClusterError",
]
