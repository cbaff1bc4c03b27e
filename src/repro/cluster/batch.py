"""An LSF-like batch manager layer.

The paper observes that in current practice "the common practice to
provide flexibility is by integrating the user-initiation operations
within a batch management software such as [] LSF that initiates the
checkpoint operations automatically.  This software resides in a layer
on top of the operating system."  It then argues this centralization
limits autonomic computing: (1) only systems running the special
software benefit, and (2) the management is centralized, hurting
scalability and fault tolerance.

:class:`BatchManager` is that layer: it owns job submission, triggers
user-initiated checkpoints through whatever mechanism is installed, and
implements administrator workflows (drain a node for maintenance by
checkpoint-then-kill).  Being *centralized*, it lives on a designated
head node; if that node fails, automatic initiation stops -- the
scenario experiment E15/E18 contrasts with in-kernel initiation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.checkpointer import Checkpointer, CheckpointRequest
from ..errors import ClusterError
from .job import CheckpointCoordinator, ParallelJob
from .machine import Cluster

__all__ = ["BatchManager"]


class BatchManager:
    """Centralized cluster management (the LSF analogue)."""

    def __init__(self, cluster: Cluster, head_node_id: int = 0) -> None:
        self.cluster = cluster
        self.head_node_id = head_node_id
        self.jobs: List[ParallelJob] = []
        self.coordinators: Dict[str, CheckpointCoordinator] = {}
        self._drained: List[int] = []

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """The manager functions only while its head node is up."""
        return self.cluster.node(self.head_node_id).up

    def _require_alive(self) -> None:
        if not self.alive:
            raise ClusterError(
                "batch manager head node is down; management unavailable "
                "(the centralization weakness the paper identifies)"
            )

    # ------------------------------------------------------------------
    def submit(
        self,
        workload_factory: Callable[[int], "object"],
        n_ranks: int,
        name: str,
        mechanisms: Optional[Dict[int, Checkpointer]] = None,
        checkpoint_interval_ns: Optional[int] = None,
    ) -> ParallelJob:
        """Submit a job; optionally protect it with periodic checkpoints."""
        self._require_alive()
        job = ParallelJob(self.cluster, workload_factory, n_ranks, name=name)
        self.jobs.append(job)
        if mechanisms is not None and checkpoint_interval_ns is not None:
            coord = CheckpointCoordinator(job, mechanisms, checkpoint_interval_ns)
            coord.start()
            self.coordinators[name] = coord
        return job

    def checkpoint_now(self, name: str) -> List[CheckpointRequest]:
        """Administrator-initiated checkpoint of a whole job."""
        self._require_alive()
        coord = self.coordinators.get(name)
        if coord is None:
            raise ClusterError(f"job {name!r} has no checkpoint coordinator")
        reqs = []
        for rank in coord.job.ranks:
            if rank.task.alive():
                mech = coord.mechanism_for(rank)
                mech.prepare_target(rank.task)
                reqs.append(mech.request_checkpoint(rank.task))
        return reqs

    # ------------------------------------------------------------------
    def drain_node_for_maintenance(self, node_id: int) -> List[CheckpointRequest]:
        """Planned-outage workflow: checkpoint everything on the node.

        The paper: the self-managing entity "should interact with the
        system administrator to carry out some user-initiated tasks such
        as temporary suspension of a long-running application for
        planned system outage or maintenance."  The node's ranks are
        checkpointed and frozen; :meth:`release_node` thaws them.
        """
        self._require_alive()
        node = self.cluster.node(node_id)
        reqs: List[CheckpointRequest] = []
        for coord in self.coordinators.values():
            for rank in coord.job.ranks:
                if rank.node is node and rank.task.alive():
                    mech = coord.mechanism_for(rank)
                    mech.prepare_target(rank.task)
                    req = mech.request_checkpoint(rank.task)
                    reqs.append(req)

                    # Freeze once the request settles, DONE or FAILED
                    # (the capture path itself stops/resumes the task;
                    # we park it after).
                    def park(_, task=rank.task, kernel=node.kernel) -> None:
                        if task.alive():
                            kernel.stop_task(task)

                    req.add_done_callback(park)
        self._drained.append(node_id)
        return reqs

    def release_node(self, node_id: int) -> int:
        """End of maintenance: resume every frozen task on the node."""
        self._require_alive()
        node = self.cluster.node(node_id)
        resumed = 0
        for coord in self.coordinators.values():
            for rank in coord.job.ranks:
                if rank.node is node and rank.task.state.value == "stopped":
                    node.kernel.resume_task(rank.task)
                    resumed += 1
        if node_id in self._drained:
            self._drained.remove(node_id)
        return resumed
