"""Vectorized failure cohorts, from one engine to many shards.

Simulating 65,536 nodes as individually scheduled failure callbacks
costs one Python closure plus one engine event per node up front.  A
:class:`ShardFleet` keeps a cohort's failure/repair process in NumPy
arrays instead and drives it with one dispatcher event at the earliest
pending transition.  It owns the contiguous global-id range ``[lo, hi)``
of a fleet partitioned by :func:`~repro.cluster.partition.shard_range`;
a single-engine cohort is just ``ShardFleet(engine, 0, n, model)``.

Every draw comes from the **counter-based per-node streams** of
:meth:`~repro.cluster.FailureModel.draw_ttf_indexed` -- draw ``i`` of
node ``j`` is a pure function of ``(stream_seed, j, i)``.  Any
partitioning of the cohort therefore reproduces the exact same
transition times, which is what the 1-vs-N-shard byte-identity gate
measures.

Accounting is exact: failure and repair times are taken from the
arrays, downtime accrues per repair, and the ``fleet.failures`` /
``fleet.repairs`` counters fold across shards by plain summation.
Nodes a lazy :class:`~repro.cluster.Cluster` materializes as full
machines are detached (:meth:`ShardFleet.detach`): the cohort stops
driving them and they fail only through the per-node path.

**Transition index.**  The nodes are cut into blocks of
:data:`_BLOCK`, and the cohort keeps each block's earliest pending
transition (failure or repair).  A dispatch reads the block minima,
visits only the blocks due now, and refreshes those; the next
transition is the least block minimum.  So a dispatch costs the same
at 4,096 nodes as at a million, where a scan of every node grew with
the range.  The index is exact, not a filter with misses:

* every write to the failure or repair columns (a dispatch, a detach)
  refreshes the minimum of each block it wrote, so a block minimum is
  always its nodes' earliest transition;
* a node with a transition at or before ``now`` therefore lies in a
  block whose minimum is at or before ``now``, and the masks a full
  scan would apply select the same nodes from the due blocks, in
  ascending id order (ascending blocks of ascending lanes);
* a node repaired in a dispatch draws its next failure into a block
  already visited, so it fails again in the same dispatch exactly as
  under the scan;
* draws are elementwise in ``(stream_seed, node, index)``, so drawing
  for a subset gives each node the value the full batch would.

The columns are padded to whole blocks with ``_NEVER``, so a padded
lane is never due; ``fail_at_ns`` and ``repair_at_ns`` are views of
the node range.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import ClusterError
from ..simkernel.costs import NS_PER_S
from ..simkernel.engine import Engine
from .failures import FailureModel

__all__ = ["ShardFleet", "trial_first_failure_s"]

#: Sentinel for "no transition pending" (int64 max).
_NEVER = np.iinfo(np.int64).max

#: Saturation point for drawn/derived times (~146 simulated years).
#: Anything beyond it cannot fire inside a realistic sweep, and capping
#: here keeps every int64 add below the sentinel without overflow.
_HORIZON_NS = _NEVER // 2

#: Indexed-draw offset for distributional trials, so probe trials and
#: the engine-driven run (draw indices 0, 1, 2, ...) never overlap.
_TRIAL_DRAW_BASE = 1 << 32

#: Nodes per block of the transition index.  A dispatch compares one
#: minimum per block and then gathers whole due blocks; NumPy's per-call
#: overhead dominates both at any size between 64 and 1,024.
_BLOCK = 256
_LANES = np.arange(_BLOCK, dtype=np.int64)


def trial_first_failure_s(
    model: FailureModel, lo: int, hi: int, trial: int
) -> float:
    """Earliest time-to-failure over global nodes ``[lo, hi)`` for one
    distributional trial, straight from the per-node streams.

    Min-folding the per-shard values over a full partition equals the
    single-range value -- float ``min`` is exact -- so E12-style MTBF
    trials shard without any events at all.
    """
    if hi <= lo:
        raise ClusterError("empty node range")
    ids = np.arange(lo, hi, dtype=np.int64)
    ttf = model.draw_ttf_indexed(
        ids, np.full(hi - lo, _TRIAL_DRAW_BASE + trial, dtype=np.int64)
    )
    return float(ttf.min())


class ShardFleet:
    """One shard's slice of a partitioned failure cohort.

    Parameters
    ----------
    engine:
        The shard-local simulation engine.
    lo, hi:
        Global node-id range ``[lo, hi)`` this shard owns.
    model:
        Failure model; its per-node streams drive every draw.
    repair_s:
        Fixed repair time; after it elapses the node re-arms with the
        next draw of its private stream.
    on_fail:
        Optional ``fn(global_ids, fail_times_ns)`` callback invoked
        from the dispatcher with the *global* node ids that just failed
        and their exact failure times (the restart-traffic hook).
    """

    def __init__(
        self,
        engine: Engine,
        lo: int,
        hi: int,
        model: FailureModel,
        repair_s: float = 300.0,
        on_fail: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
    ) -> None:
        if hi <= lo:
            raise ClusterError("shard fleet needs a non-empty node range")
        if repair_s < 0:
            raise ClusterError("repair time cannot be negative")
        self.engine = engine
        self.lo = int(lo)
        self.hi = int(hi)
        self.n_nodes = self.hi - self.lo
        self.model = model
        self.repair_ns = min(int(repair_s * NS_PER_S), _HORIZON_NS)
        self.on_fail = on_fail

        now = engine.now_ns
        self.global_ids = np.arange(self.lo, self.hi, dtype=np.int64)
        #: Next draw index per node (0 consumed by the initial arming).
        self.draw_count = np.ones(self.n_nodes, dtype=np.int64)
        ttf = model.draw_ttf_indexed(
            self.global_ids, np.zeros(self.n_nodes, dtype=np.int64)
        )
        delta = np.minimum(ttf * NS_PER_S, _HORIZON_NS).astype(np.int64)
        n_blocks = -(-self.n_nodes // _BLOCK)
        self._fail = np.full(n_blocks * _BLOCK, _NEVER, dtype=np.int64)
        self._repair = np.full(n_blocks * _BLOCK, _NEVER, dtype=np.int64)
        #: Next failure time per node; _NEVER while down or detached.
        self.fail_at_ns = self._fail[:self.n_nodes]
        self.fail_at_ns[:] = now + delta
        #: Repair-complete time per node; _NEVER while up.
        self.repair_at_ns = self._repair[:self.n_nodes]
        #: Earliest pending transition per block of _BLOCK nodes (no
        #: repair pends yet, so one reshape of the failure column).
        self._block_min = self._fail.reshape(n_blocks, _BLOCK).min(axis=1)
        self.down = np.zeros(self.n_nodes, dtype=bool)
        #: Nodes no longer driven by the cohort (materialized machines).
        self.detached = np.zeros(self.n_nodes, dtype=bool)

        self.failures = 0
        self.repairs = 0
        self.downtime_ns = 0
        self.first_failure_ns: Optional[int] = None
        self._armed_for = _NEVER
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the dispatcher (idempotent)."""
        self._running = True
        self._arm()

    def stop(self) -> None:
        """Stop driving transitions (arrays keep their state)."""
        self._running = False

    def detach(self, global_ids) -> None:
        """Stop driving the given nodes (a lazy cluster materialized
        them as full machines, whose failures are per-node)."""
        local = np.asarray(global_ids, dtype=np.int64) - self.lo
        self.detached[local] = True
        self.fail_at_ns[local] = _NEVER
        self.repair_at_ns[local] = _NEVER
        self._refresh(np.unique(local // _BLOCK))

    def up_count(self) -> int:
        """Nodes currently up in this shard's range (detached excluded)."""
        return int((~self.down & ~self.detached).sum())

    def next_transition_ns(self) -> int:
        """Earliest pending failure or repair (``_NEVER`` if none)."""
        return int(self._block_min.min())

    # ------------------------------------------------------------------
    def _arm(self) -> None:
        if not self._running:
            return
        t = self.next_transition_ns()
        if t == _NEVER:
            self._armed_for = _NEVER
            return
        # A fleet (re)started after its engine advanced has transitions
        # in the past; process them now rather than scheduling backwards.
        now = self.engine.now_ns
        if t < now:
            t = now
        if t == self._armed_for:
            return
        self._armed_for = t
        self.engine.at_anon(t, self._dispatch)

    def _refresh(self, blocks: np.ndarray) -> None:
        """Recompute the earliest transition of each of ``blocks``."""
        fail = self._fail.reshape(-1, _BLOCK)[blocks]
        repair = self._repair.reshape(-1, _BLOCK)[blocks]
        self._block_min[blocks] = np.minimum(fail, repair).min(axis=1)

    def _dispatch(self) -> None:
        now = self.engine.now_ns
        if not self._running or now < self._armed_for:
            return
        self._armed_for = _NEVER

        # A detach may have emptied every due block since arming; then
        # nothing is selected below and the dispatch only re-arms.
        blocks = np.flatnonzero(self._block_min <= now)
        lanes = (blocks[:, None] * _BLOCK + _LANES).ravel()

        rep = lanes[self._repair[lanes] <= now]
        n_rep = rep.size
        if n_rep:
            self.repairs += n_rep
            self.downtime_ns += n_rep * self.repair_ns
            self.down[rep] = False
            rtimes = self._repair[rep]
            self._repair[rep] = _NEVER
            ttf = self.model.draw_ttf_indexed(
                self.global_ids[rep], self.draw_count[rep]
            )
            self.draw_count[rep] += 1
            delta = np.minimum(ttf * NS_PER_S, _HORIZON_NS).astype(np.int64)
            self._fail[rep] = rtimes + delta
            self.engine.metrics.inc("fleet.repairs", n_rep)

        due = lanes[self._fail[lanes] <= now]
        n_due = due.size
        if n_due:
            times = self._fail[due]
            if self.first_failure_ns is None:
                self.first_failure_ns = int(times.min())
            self.failures += n_due
            self.down[due] = True
            self._fail[due] = _NEVER
            self._repair[due] = (
                np.minimum(times, _NEVER - self.repair_ns) + self.repair_ns
            )
            self.engine.metrics.inc("fleet.failures", n_due)
            if self.on_fail is not None:
                self.on_fail(self.global_ids[due], times)

        self._refresh(blocks)
        self._arm()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardFleet [{self.lo},{self.hi}) up={self.up_count()} "
                f"failures={self.failures}>")
