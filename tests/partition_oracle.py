"""The whole contiguous partition as a list, kept as a test oracle.

``src/`` only ever asks for one shard's range
(:func:`repro.cluster.shard_range`) or one machine's shard
(:func:`repro.cluster.shard_of`).  Tests enumerate every range to check
that the O(1) accessors cover ``range(n_items)`` disjointly and evenly,
and to split a fleet into shards by hand.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ClusterError


def shard_ranges(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges, one per shard, covering
    ``range(n_items)``."""
    if n_shards < 1:
        raise ClusterError("need at least one shard")
    if n_items < n_shards:
        raise ClusterError(
            f"cannot spread {n_items} machines over {n_shards} shards"
        )
    base, extra = divmod(n_items, n_shards)
    ranges = []
    lo = 0
    for k in range(n_shards):
        hi = lo + base + (1 if k < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges
