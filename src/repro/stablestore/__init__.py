"""Replicated remote stable-storage service.

The paper's fault-tolerance argument (Section 4.1) hinges on *remote*
stable storage -- "checkpoint data cannot be retrieved in case of a
failure of the machine" when stored locally -- yet a single remote file
server is itself a machine that fails.  This subpackage models the
storage tier the way scalable system-level C/R work after the paper
(petascale checkpoint filesystems, CRAFT-style libraries) found
necessary: a *service* of N storage-server nodes on the cluster's
shared clock, each of which can fail-stop and recover, fronted by a
quorum-replicated client.

* :class:`StorageServer` / :class:`StorageCluster` -- fail-stop storage
  server nodes with per-server disks behind one shared ingress link
  (contention when many compute nodes checkpoint simultaneously).
* :class:`ReplicatedStore` -- a :class:`~repro.storage.StorageBackend`
  placing every blob on ``replication`` servers (rendezvous hashing),
  acknowledging writes at a W-of-N quorum and reads at R-of-N, with
  timeout + exponential-backoff retries around failed servers.
* :class:`ReplicationRepairer` -- background re-replication of
  under-replicated blobs after a storage-server failure.
* :class:`ContentStore` -- content-addressed dedup wrapper: each unique
  page payload costs one quorum write ever, not one per generation.
* :class:`ErasureStore` / :class:`ErasureRepairer` -- Reed-Solomon
  ``k+m`` erasure coding over the same storage servers: any ``k`` of
  ``k+m`` shards reconstruct the blob at a fraction of the physical
  bytes full replication costs.  :meth:`ErasureStore.store_delta` /
  :class:`DeltaWriteStream` re-protect an f-dirty checkpoint at O(f)
  cost by delta-updating parity (GF linearity).
* :class:`HierarchicalStore` -- multi-level stable storage (node-local
  scratch, partner replicas, erasure-coded group, remote replicated
  tier) with promotion/demotion and cross-level reprotection.
"""

from .contentstore import ContentStore, DedupWriteStream, ImageManifest
from .erasure import (
    KERNEL_STATS,
    DeltaWriteStream,
    ErasureRepairer,
    ErasureStore,
    ErasureWriteStream,
    Shard,
    merge_extents,
    reset_kernel_stats,
    rs_decode,
    rs_encode,
    rs_rebuild_shards,
    rs_update_parity,
)
from .hierarchy import HierarchicalStore, HierarchyWriteStream, StorageLevel
from .pipeline import WritebackPipeline
from .repair import ReplicationRepairer
from .replicated import ReplicatedStore, ReplicaWriteStream
from .server import StorageCluster, StorageServer, StorageServerState
from .shardsvc import ShardStorageService, server_home_shard

__all__ = [
    "StorageServer",
    "StorageServerState",
    "StorageCluster",
    "ReplicatedStore",
    "ReplicaWriteStream",
    "ReplicationRepairer",
    "ContentStore",
    "ImageManifest",
    "DedupWriteStream",
    "WritebackPipeline",
    "ShardStorageService",
    "server_home_shard",
    "ErasureStore",
    "ErasureWriteStream",
    "DeltaWriteStream",
    "ErasureRepairer",
    "Shard",
    "rs_encode",
    "rs_decode",
    "rs_update_parity",
    "rs_rebuild_shards",
    "merge_extents",
    "KERNEL_STATS",
    "reset_kernel_stats",
    "StorageLevel",
    "HierarchicalStore",
    "HierarchyWriteStream",
]
