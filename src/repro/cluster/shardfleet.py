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
        #: Next failure time per node; _NEVER while down or detached.
        self.fail_at_ns = now + delta
        #: Repair-complete time per node; _NEVER while up.
        self.repair_at_ns = np.full(self.n_nodes, _NEVER, dtype=np.int64)
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

    def up_count(self) -> int:
        """Nodes currently up in this shard's range (detached excluded)."""
        return int((~self.down & ~self.detached).sum())

    def next_transition_ns(self) -> int:
        """Earliest pending failure or repair (``_NEVER`` if none)."""
        return int(min(self.fail_at_ns.min(), self.repair_at_ns.min()))

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

    def _dispatch(self) -> None:
        now = self.engine.now_ns
        if not self._running or now < self._armed_for:
            return
        self._armed_for = _NEVER

        rep = self.repair_at_ns <= now
        n_rep = int(rep.sum())
        if n_rep:
            self.repairs += n_rep
            self.downtime_ns += n_rep * self.repair_ns
            self.down[rep] = False
            rtimes = self.repair_at_ns[rep]
            self.repair_at_ns[rep] = _NEVER
            ttf = self.model.draw_ttf_indexed(
                self.global_ids[rep], self.draw_count[rep]
            )
            self.draw_count[rep] += 1
            delta = np.minimum(ttf * NS_PER_S, _HORIZON_NS).astype(np.int64)
            self.fail_at_ns[rep] = rtimes + delta
            self.engine.metrics.inc("fleet.repairs", n_rep)

        due = self.fail_at_ns <= now
        n_due = int(due.sum())
        if n_due:
            times = self.fail_at_ns[due]
            if self.first_failure_ns is None:
                self.first_failure_ns = int(times.min())
            self.failures += n_due
            self.down[due] = True
            self.fail_at_ns[due] = _NEVER
            self.repair_at_ns[due] = (
                np.minimum(times, _NEVER - self.repair_ns) + self.repair_ns
            )
            self.engine.metrics.inc("fleet.failures", n_due)
            if self.on_fail is not None:
                self.on_fail(self.global_ids[due], times)

        self._arm()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardFleet [{self.lo},{self.hi}) up={self.up_count()} "
                f"failures={self.failures}>")
