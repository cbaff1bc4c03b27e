"""The full-scan failure-cohort dispatcher, kept as a test oracle.

:class:`~repro.cluster.ShardFleet` visits only the blocks of its
transition index that are due.  :class:`ScanFleet` is the same cohort
dispatched the way it was before the index existed: every dispatch
scans the whole node range for due repairs and failures, and the next
transition is the minimum over every node.  Tests step both event by
event and require identical state after each event.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ShardFleet
from repro.cluster.shardfleet import _HORIZON_NS, _NEVER
from repro.simkernel.costs import NS_PER_S


class ScanFleet(ShardFleet):
    """A :class:`ShardFleet` that ignores its index and scans."""

    def detach(self, global_ids) -> None:
        local = np.asarray(global_ids, dtype=np.int64) - self.lo
        self.detached[local] = True
        self.fail_at_ns[local] = _NEVER
        self.repair_at_ns[local] = _NEVER

    def next_transition_ns(self) -> int:
        return int(min(self.fail_at_ns.min(), self.repair_at_ns.min()))

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
