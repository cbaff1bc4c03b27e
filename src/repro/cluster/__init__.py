"""Multi-node cluster substrate: nodes, failures, jobs, coordination."""

from .batch import BatchManager
from .gang import GangScheduler
from .failures import (
    ExponentialFailures,
    FailureModel,
    WeibullFailures,
    indexed_uniforms,
    p_survive,
    system_mtbf_s,
)
from .partition import shard_of, shard_range
from .shardfleet import ShardFleet, trial_first_failure_s
from .job import (
    CheckpointCoordinator,
    CommunicatingJob,
    ParallelJob,
    Rank,
    ScratchRestartPolicy,
)
from .machine import Cluster, ClusterNode, NodeState

__all__ = [
    "GangScheduler",
    "Cluster",
    "ClusterNode",
    "NodeState",
    "FailureModel",
    "ExponentialFailures",
    "WeibullFailures",
    "system_mtbf_s",
    "p_survive",
    "ParallelJob",
    "Rank",
    "ScratchRestartPolicy",
    "CheckpointCoordinator",
    "CommunicatingJob",
    "BatchManager",
    "indexed_uniforms",
    "shard_range",
    "shard_of",
    "ShardFleet",
    "trial_first_failure_s",
]
