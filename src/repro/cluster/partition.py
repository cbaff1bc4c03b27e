"""Machine-to-shard partitioning for the conservative parallel engine.

The partition is contiguous and balanced: ``n_items`` machines split
into ``n_shards`` ranges whose sizes differ by at most one, with the
first ``n_items % n_shards`` shards taking the extra machine.  Two
properties matter:

* it is a pure function of ``(n_items, n_shards)`` -- every worker
  (and the single-shard reference run) computes the same mapping
  without coordination;
* ownership is O(1) to invert (:func:`shard_of`), so routing a
  failure-cohort notification or a storage ack to a machine's home
  shard never walks a table.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import ClusterError

__all__ = ["shard_range", "shard_of"]


def shard_range(shard_id: int, n_items: int, n_shards: int) -> Tuple[int, int]:
    """The ``[lo, hi)`` range shard ``shard_id`` owns."""
    if not 0 <= shard_id < n_shards:
        raise ClusterError(f"shard {shard_id} out of range")
    base, extra = divmod(n_items, n_shards)
    if n_items < n_shards:
        raise ClusterError(
            f"cannot spread {n_items} machines over {n_shards} shards"
        )
    if shard_id < extra:
        lo = shard_id * (base + 1)
        return (lo, lo + base + 1)
    lo = extra * (base + 1) + (shard_id - extra) * base
    return (lo, lo + base)


def shard_of(item_id: int, n_items: int, n_shards: int) -> int:
    """Home shard of machine ``item_id`` under the contiguous split."""
    if not 0 <= item_id < n_items:
        raise ClusterError(f"machine {item_id} out of range")
    base, extra = divmod(n_items, n_shards)
    if n_items < n_shards:
        raise ClusterError(
            f"cannot spread {n_items} machines over {n_shards} shards"
        )
    pivot = extra * (base + 1)
    if item_id < pivot:
        return item_id // (base + 1)
    return extra + (item_id - pivot) // base
