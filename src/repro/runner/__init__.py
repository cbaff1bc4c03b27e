"""Parallel sharded experiment runner.

Experiment grids -- (experiment, params, seed) cells -- are sharded
across worker processes, merged deterministically (sorted by cell key,
independent of completion order) and cached on disk keyed by a
params+source digest, so re-running a sweep only recomputes changed
cells.  See :mod:`repro.runner.grid` for the contract.
"""

from .cache import DiskCache
from .grid import Cell, GridRunner, cache_key
from .merge import grid_to_json, merge_results
from .parallel import (
    ParallelResult,
    ProcessShardGroup,
    WorkerDiedError,
    WorkerHungError,
    run_parallel,
)

__all__ = [
    "Cell",
    "GridRunner",
    "DiskCache",
    "cache_key",
    "merge_results",
    "grid_to_json",
    "ParallelResult",
    "ProcessShardGroup",
    "WorkerDiedError",
    "WorkerHungError",
    "run_parallel",
]
