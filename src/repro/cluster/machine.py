"""Multi-node cluster: nodes, shared clock, fail-stop injection.

Every node runs its own simulated kernel, all on one shared
:class:`~repro.simkernel.engine.Engine` so virtual time is global.  A
node failure halts its kernel (fail-stop), kills its processes, and
makes its local disk unreachable until repair -- exactly the storage
semantics behind Table 1's local-vs-remote distinction (E13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..errors import ClusterError, NodeFailedError
from ..simkernel import Kernel, TaskState
from ..simkernel.costs import CostModel, DEFAULT_COSTS, NS_PER_MS, NS_PER_S
from ..simkernel.engine import Engine
from ..stablestore import (
    ContentStore,
    ErasureRepairer,
    ErasureStore,
    HierarchicalStore,
    ReplicatedStore,
    ReplicationRepairer,
    StorageCluster,
    StorageLevel,
)
from ..storage import LocalDiskStorage, RemoteStorage
from ..storage.backends import MemoryStorage, StorageBackend
from ..storage.devices import memory_device
from .failures import FailureModel
from .shardfleet import ShardFleet

__all__ = ["NodeState", "ClusterNode", "Cluster"]


class NodeState(str, Enum):
    """Fail-stop lifecycle of a node."""

    UP = "up"
    FAILED = "failed"
    REBOOTING = "rebooting"


class ClusterNode:
    """One machine: a kernel plus its local disk.

    The node's *remote* storage handle is injected by the cluster --
    remote stable storage is a shared service, not per-machine hardware,
    which is precisely what lets the replicated
    :mod:`repro.stablestore` service swap in behind every node at once.
    """

    def __init__(
        self,
        node_id: int,
        engine: Engine,
        ncpus: int = 2,
        costs: CostModel = DEFAULT_COSTS,
        remote_storage: Optional[StorageBackend] = None,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.ncpus = ncpus
        self.costs = costs
        self.state = NodeState.UP
        self.kernel = Kernel(ncpus=ncpus, costs=costs, engine=engine, node_id=node_id)
        self.local_storage = LocalDiskStorage(node_id=node_id)
        self.remote_storage = remote_storage
        self.failed_at_ns: Optional[int] = None
        self.failures = 0

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Fail-stop: halt the kernel, kill processes, lose disk access."""
        if self.state == NodeState.FAILED:
            return
        self.state = NodeState.FAILED
        self.failed_at_ns = self.engine.now_ns
        self.failures += 1
        self.kernel.halt()
        killed = 0
        for task in list(self.kernel.tasks.values()):
            if task.alive():
                task.state = TaskState.DEAD
                task.exit_code = -1
                killed += 1
        self.local_storage.mark_node_failed()
        self.engine.tracer.instant("node.fail", node=self.node_id, tasks_killed=killed)

    def repair(self, disk_survived: bool = True) -> None:
        """Reboot the node with a fresh kernel (old processes are gone)."""
        self.state = NodeState.UP
        self.kernel = Kernel(
            ncpus=self.ncpus, costs=self.costs, engine=self.engine, node_id=self.node_id
        )
        self.local_storage.mark_node_recovered(data_survived=disk_survived)
        self.failed_at_ns = None
        self.engine.metrics.inc("node_repairs")
        self.engine.tracer.instant(
            "node.repair", node=self.node_id, disk_survived=disk_survived
        )

    @property
    def up(self) -> bool:
        """Whether the node is serving."""
        return self.state == NodeState.UP

    def require_up(self) -> "ClusterNode":
        """Raise unless the node is up."""
        if not self.up:
            raise NodeFailedError(f"node {self.node_id} is {self.state.value}")
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} {self.state.value}>"


class _NodeVector:
    """Lazy node storage for BlueGene/L-scale clusters.

    Behaves like the eager node list for indexing (``cluster.nodes[i]``
    materializes node ``i`` on first touch) but only ever *iterates*
    over materialized nodes -- a 65,536-node cluster where a job touches
    four nodes builds four kernels, not 65,536.  Unmaterialized nodes
    are implicitly UP; their failure churn belongs to a
    :class:`~repro.cluster.ShardFleet` cohort, not to per-node kernels.
    """

    def __init__(self, cluster: "Cluster", n_total: int) -> None:
        self._cluster = cluster
        self._n_total = n_total
        self._nodes: Dict[int, ClusterNode] = {}

    def __len__(self) -> int:
        return self._n_total

    def __getitem__(self, node_id: int) -> ClusterNode:
        if isinstance(node_id, slice):
            return [self[i] for i in range(*node_id.indices(self._n_total))]
        if node_id < 0:
            node_id += self._n_total
        if not 0 <= node_id < self._n_total:
            raise IndexError(node_id)
        node = self._nodes.get(node_id)
        if node is None:
            c = self._cluster
            node = ClusterNode(
                node_id,
                c.engine,
                ncpus=c.ncpus_per_node,
                costs=c.costs,
                remote_storage=c.remote_storage,
            )
            self._nodes[node_id] = node
            # Spares live beyond the fleet's compute cohort.
            if c.fleet is not None and node_id < c.fleet.n_nodes:
                c.fleet.detach([node_id])
        return node

    def __iter__(self):
        """Materialized nodes only, in id order."""
        return iter(sorted(self._nodes.values(), key=lambda n: n.node_id))

    def materialized(self, node_id: int) -> bool:
        return node_id in self._nodes

    def materialized_count(self) -> int:
        return len(self._nodes)


class Cluster:
    """A set of nodes sharing one virtual clock plus remote storage.

    Parameters
    ----------
    n_nodes:
        Compute nodes (allocatable to jobs).
    n_spares:
        Extra nodes kept idle for restart-after-failure placement.
    storage_servers:
        When > 0, the monolithic-infallible ``RemoteStorage`` default is
        replaced by the :mod:`repro.stablestore` service: that many
        fail-stop storage-server nodes on this cluster's clock behind a
        quorum-replicated client (experiment E19).
    replication:
        Replicas per blob on the service (ignored without
        ``storage_servers``); writes wait for a majority of them, reads
        for one.
    storage_repair:
        Run the background re-replication repairer (service mode only).
    content_dedup:
        Wrap the replicated service in a content-addressed
        :class:`~repro.stablestore.ContentStore` so byte-identical page
        payloads cost one quorum write per *content*, not per generation
        (experiment E20; service mode only).
    storage_hierarchy:
        When set (service mode only), compose the stable-storage tiers
        into a :class:`~repro.stablestore.HierarchicalStore` and hand
        *that* to every node (experiment E23).  Spec keys, all optional:

        - ``scratch_bytes`` -- add a capacity-bound node-local RAM
          scratch level (fastest, not durable);
        - ``partner_rf`` -- add the quorum-replicated service as the
          partner level, overriding ``replication`` with this factor;
        - ``erasure`` -- a ``(k, m)`` tuple: add a Reed-Solomon
          erasure-coded level on its *own* ``k+m``-server group (a
          separate failure domain from the partner tier);
        - ``erasure_servers`` -- group size (default ``k + m``);
        - ``erasure_policy`` -- ``"through"`` or ``"back"`` (default);
        - ``writeback_delay_ns`` -- delay before write-back copies.

        Reads promote into the faster levels they missed, a lost level
        is re-protected from a surviving one, and dirty-delta stores
        reach the erasure tier as its O(dirty) partial-stripe update
        (see :class:`~repro.stablestore.HierarchicalStore`).

        A degenerate ``{"partner_rf": N}`` spec is the plain replicated
        path behind a one-level hierarchy (charge-for-charge identical;
        only ``hierarchy.*`` metrics are added).
    lazy_nodes:
        Build :class:`ClusterNode` machines on first touch instead of
        up front, so a 65,536-node cluster only pays for the nodes a
        job or failure actually reaches.  Iteration over
        ``cluster.nodes`` then covers materialized nodes only;
        unmaterialized nodes are implicitly up, with their failure
        churn handled by an attached
        :class:`~repro.cluster.ShardFleet` cohort (see
        :meth:`attach_fleet`).
    """

    def __init__(
        self,
        n_nodes: int,
        n_spares: int = 0,
        ncpus_per_node: int = 2,
        seed: int = 0,
        costs: CostModel = DEFAULT_COSTS,
        storage_servers: int = 0,
        replication: int = 2,
        storage_repair: bool = True,
        content_dedup: bool = False,
        storage_hierarchy: Optional[Dict[str, Any]] = None,
        lazy_nodes: bool = False,
    ) -> None:
        if n_nodes < 1:
            raise ClusterError("cluster needs at least one node")
        self.engine = Engine(seed=seed)
        self.costs = costs
        self.ncpus_per_node = ncpus_per_node
        #: Vectorized background-churn cohort (see :meth:`attach_fleet`).
        self.fleet: Optional[ShardFleet] = None
        self.storage_cluster: Optional[StorageCluster] = None
        self.storage_repairer: Optional[ReplicationRepairer] = None
        #: The bare quorum client when the service is on (repair and
        #: replication reporting always talk to this layer).
        self.replicated_store: Optional[ReplicatedStore] = None
        self.content_store: Optional[ContentStore] = None
        self.hierarchy_store: Optional[HierarchicalStore] = None
        self.erasure_cluster: Optional[StorageCluster] = None
        self.erasure_store: Optional[ErasureStore] = None
        self.erasure_repairer: Optional[ErasureRepairer] = None
        if storage_hierarchy is not None and storage_servers <= 0:
            raise ClusterError("storage_hierarchy requires storage_servers > 0")
        if storage_servers > 0:
            hier_spec = (
                dict(storage_hierarchy) if storage_hierarchy is not None else None
            )
            if hier_spec is not None and hier_spec.get("partner_rf"):
                replication = int(hier_spec["partner_rf"])
            self.storage_cluster = StorageCluster(self.engine, n_servers=storage_servers)
            self.replicated_store = ReplicatedStore(
                self.storage_cluster, replication=replication
            )
            self.remote_storage: StorageBackend = self.replicated_store
            if hier_spec is not None:
                self._build_hierarchy(hier_spec, storage_repair)
            if content_dedup:
                self.content_store = ContentStore(
                    self.remote_storage, metrics=self.engine.metrics
                )
                self.remote_storage = self.content_store
            if storage_repair:
                self.storage_repairer = ReplicationRepairer(
                    self.replicated_store, self.engine
                )
        else:
            self.remote_storage = RemoteStorage()
        if lazy_nodes:
            self.nodes = _NodeVector(self, n_nodes + n_spares)
        else:
            self.nodes = [
                ClusterNode(
                    i,
                    self.engine,
                    ncpus=ncpus_per_node,
                    costs=costs,
                    remote_storage=self.remote_storage,
                )
                for i in range(n_nodes + n_spares)
            ]
        self.lazy_nodes = lazy_nodes
        self.n_compute = n_nodes
        self._spares: List[int] = list(range(n_nodes, n_nodes + n_spares))
        self._failure_watchers: List[Callable[[ClusterNode], None]] = []

    # ------------------------------------------------------------------
    def _build_hierarchy(self, spec: Dict[str, Any], storage_repair: bool) -> None:
        """Assemble the multi-level store from a ``storage_hierarchy`` spec."""
        scratch_bytes = spec.pop("scratch_bytes", None)
        partner_rf = spec.pop("partner_rf", None)
        erasure = spec.pop("erasure", None)
        erasure_servers = spec.pop("erasure_servers", None)
        erasure_policy = spec.pop("erasure_policy", "back")
        writeback_delay_ns = spec.pop("writeback_delay_ns", 2 * NS_PER_MS)
        if spec:
            raise ClusterError(
                f"unknown storage_hierarchy keys: {sorted(spec)}"
            )
        levels: List[StorageLevel] = []
        if scratch_bytes:
            levels.append(
                StorageLevel(
                    "scratch",
                    MemoryStorage(device=memory_device("ram[scratch]")),
                    capacity_bytes=int(scratch_bytes),
                )
            )
        if partner_rf:
            levels.append(StorageLevel("partner", self.replicated_store))
        if erasure is not None:
            k, m = (int(erasure[0]), int(erasure[1]))
            n_group = int(erasure_servers) if erasure_servers else k + m
            self.erasure_cluster = StorageCluster(self.engine, n_servers=n_group)
            self.erasure_store = ErasureStore(
                self.erasure_cluster, data_shards=k, parity_shards=m
            )
            levels.append(
                StorageLevel(
                    "erasure",
                    self.erasure_store,
                    write=erasure_policy,
                    writeback_delay_ns=writeback_delay_ns,
                )
            )
            if storage_repair:
                self.erasure_repairer = ErasureRepairer(
                    self.erasure_store, self.engine
                )
        if not levels:
            raise ClusterError(
                "storage_hierarchy spec built no levels (set scratch_bytes, "
                "partner_rf and/or erasure)"
            )
        self.hierarchy_store = HierarchicalStore(self.engine, levels)
        self.remote_storage = self.hierarchy_store

    def fail_erasure_server(self, server_id: int) -> None:
        """Inject a fail-stop on one erasure-group server, now."""
        if self.erasure_cluster is None:
            raise ClusterError("cluster was built without an erasure level")
        self.erasure_cluster.fail_server(server_id)

    def node(self, node_id: int) -> ClusterNode:
        """Node by id."""
        return self.nodes[node_id]

    def compute_nodes(self) -> List[ClusterNode]:
        """The non-spare nodes.

        On a lazy cluster this *materializes* every compute node --
        fine for small N, defeating the point at BlueGene/L scale.
        Large sweeps should place jobs with explicit ``node_ids`` and
        leave the rest of the cohort to the fleet.
        """
        return self.nodes[: self.n_compute]

    def materialized_nodes(self) -> int:
        """How many nodes have been built as full machines."""
        if isinstance(self.nodes, _NodeVector):
            return self.nodes.materialized_count()
        return len(self.nodes)

    def _node_up(self, node_id: int) -> bool:
        """Up-check that does not materialize lazy nodes (an untouched
        node is implicitly up)."""
        if isinstance(self.nodes, _NodeVector) and not self.nodes.materialized(node_id):
            return True
        return self.nodes[node_id].up

    def claim_spare(self) -> ClusterNode:
        """Take a spare for restart placement."""
        while self._spares:
            nid = self._spares.pop(0)
            if self._node_up(nid):
                return self.nodes[nid]
        raise ClusterError("no spare nodes available")

    def spares_left(self) -> int:
        """Spare nodes still unclaimed and up."""
        return sum(1 for nid in self._spares if self._node_up(nid))

    # ------------------------------------------------------------------
    def on_failure(self, fn: Callable[[ClusterNode], None]) -> None:
        """Register a callback fired when any node fails."""
        self._failure_watchers.append(fn)

    def fail_node(self, node_id: int) -> None:
        """Inject a fail-stop on one node, now."""
        node = self.nodes[node_id]
        if not node.up:
            return
        node.fail()
        self.engine.metrics.inc("node_failures")
        for fn in list(self._failure_watchers):
            fn(node)

    def fail_storage_server(self, server_id: int) -> None:
        """Inject a fail-stop on one storage-server node, now."""
        if self.storage_cluster is None:
            raise ClusterError("cluster was built without storage servers")
        self.storage_cluster.fail_server(server_id)

    def schedule_failures(
        self,
        model: FailureModel,
        node_ids: Optional[List[int]] = None,
        horizon_s: Optional[float] = None,
    ) -> int:
        """Arm each listed node with a sampled time-to-failure.

        Returns how many failures were scheduled (those within the
        horizon).  Only the *first* failure per node is armed (draw 0
        of the node's stream, the same draw a fleet arms first);
        repairs may re-arm explicitly.  Drawing touches -- and, on a
        lazy cluster, materializes -- no node.
        """
        ids = node_ids if node_ids is not None else list(range(self.n_compute))
        ttf = model.draw_ttf_indexed(ids, 0)
        scheduled = 0
        for nid, ttf_s in zip(ids, ttf.tolist()):
            if horizon_s is not None and ttf_s > horizon_s:
                continue
            delay_ns = int(ttf_s * NS_PER_S)
            self.engine.after(delay_ns, lambda n=nid: self.fail_node(n), label="node-fail")
            scheduled += 1
        return scheduled

    def attach_fleet(self, model: FailureModel, repair_s: float = 300.0) -> ShardFleet:
        """Drive compute-node failure churn on a lazy cluster through
        one vectorized :class:`~repro.cluster.ShardFleet` cohort
        instead of per-node events.

        Cohort failures are statistical: counted in the fleet's arrays,
        never building a kernel.  Nodes already materialized as full
        machines are detached from the cohort (their failures stay
        per-node and exact); nodes materialized later detach
        automatically.  An eager cluster has no statistical nodes, so
        attaching a fleet to one raises :class:`ClusterError`.
        """
        if self.fleet is not None:
            raise ClusterError("a fleet is already attached")
        if not isinstance(self.nodes, _NodeVector):
            raise ClusterError(
                "attach_fleet needs a lazy cluster (lazy_nodes=True); every "
                "node of an eager cluster is a full machine"
            )
        self.fleet = ShardFleet(
            self.engine, 0, self.n_compute, model, repair_s=repair_s
        )
        self.fleet.detach(
            [n.node_id for n in self.nodes if n.node_id < self.n_compute]
        )
        self.fleet.start()
        return self.fleet

    # ------------------------------------------------------------------
    def run_for(self, duration_ns: int) -> None:
        """Advance the shared clock (all kernels progress)."""
        for node in self.nodes:
            if node.up:
                node.kernel.start()
        self.engine.run(until_ns=self.engine.now_ns + int(duration_ns))

    def run_until(self, predicate: Callable[[], bool], limit_ns: int) -> None:
        """Run until ``predicate`` or the time limit."""
        for node in self.nodes:
            if node.up:
                node.kernel.start()
        self.engine.run(until_ns=self.engine.now_ns + int(limit_ns), until=predicate)
