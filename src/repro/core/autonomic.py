"""Autonomic (self-managing) checkpoint policies.

The paper's autonomic-computing requirement: the checkpoint entity must
be "capable of managing their internal behavior in accordance with
policies that users or other elements have established", including
"adjustment of the checkpoint interval to the failure rate of the
system or *safe* pre-emption by another process".  Built here:

* :class:`FailureRateEstimator` -- online MTBF estimate from observed
  failures (exponentially weighted inter-arrival mean with a prior).
* :class:`AutonomicIntervalController` -- closes the loop: measured
  checkpoint cost + estimated MTBF -> Daly interval -> retune the
  coordinator/mechanism timers.  Experiment E15 scores it against fixed
  intervals and an oracle.
* :class:`SafePreemption` -- checkpoint-then-stop so a higher-priority
  job can take the resources, with a guaranteed resumable image.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.interval import daly_interval_s
from ..errors import CheckpointError
from ..obs import MetricsRegistry
from ..simkernel import Task
from ..simkernel.costs import NS_PER_S
from .checkpointer import Checkpointer, CheckpointRequest, RequestState

__all__ = ["FailureRateEstimator", "AutonomicIntervalController", "SafePreemption"]


class FailureRateEstimator:
    """Online MTBF estimation from observed failure times.

    Uses an exponentially weighted mean of inter-failure gaps, seeded
    with a prior so the controller behaves sanely before the first
    failure.  ``alpha`` is the weight of the newest observation.
    """

    def __init__(
        self,
        prior_mtbf_s: float,
        alpha: float = 0.3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if prior_mtbf_s <= 0:
            raise CheckpointError("prior MTBF must be positive")
        if not 0.0 < alpha <= 1.0:
            raise CheckpointError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.metrics = metrics
        self._estimate_s = prior_mtbf_s
        self._last_failure_ns: Optional[int] = None

    def observe_failure(self, time_ns: int) -> None:
        """Record a failure at virtual time ``time_ns``.

        Observations must be strictly monotonic in time: an out-of-order
        or duplicate report is *ignored* (and counted) rather than
        clamped to a 1 ns gap -- clamping would fold a near-zero
        inter-arrival sample into the EWMA and collapse the MTBF
        estimate, which then drives the Daly interval to its floor.
        """
        if self._last_failure_ns is not None and time_ns <= self._last_failure_ns:
            if self.metrics is not None:
                self.metrics.inc("autonomic.out_of_order_failures")
            return
        if self._last_failure_ns is not None:
            gap_s = (time_ns - self._last_failure_ns) / NS_PER_S
            self._estimate_s = (
                self.alpha * gap_s + (1.0 - self.alpha) * self._estimate_s
            )
        self._last_failure_ns = time_ns
        if self.metrics is not None:
            self.metrics.inc("autonomic.failures_observed")

    @property
    def mtbf_s(self) -> float:
        """Current MTBF estimate in seconds."""
        return self._estimate_s


class AutonomicIntervalController:
    """Adaptive checkpoint-interval controller (Daly-driven).

    Parameters
    ----------
    estimator:
        Failure-rate source (wire it to ``cluster.on_failure``).
    min_interval_s / max_interval_s:
        Safety clamps on the chosen interval.
    """

    #: EWMA weight of a new checkpoint-cost or storage-latency sample.
    ALPHA = 0.3

    def __init__(
        self,
        estimator: FailureRateEstimator,
        min_interval_s: float = 1e-3,
        max_interval_s: float = 86_400.0,
    ) -> None:
        self.estimator = estimator
        self.min_interval_s = min_interval_s
        self.max_interval_s = max_interval_s
        self._cost_s: Optional[float] = None
        self._storage_s: Optional[float] = None
        self.retunes = 0

    def observe_checkpoint(self, req: CheckpointRequest) -> None:
        """Feed a completed request's measured cost into the model.

        The relevant cost for interval choice is the *application
        stall*, not the total capture time (a concurrent kernel thread
        writing to storage does not slow the job down).  The stable-
        storage commit latency is tracked separately: an image is no
        protection until it is durable, so the storage tier's observed
        latency bounds the useful checkpoint cadence and is folded into
        the Daly cost below.
        """
        if req.state != RequestState.DONE:
            return
        cost_s = max(1e-9, req.target_stall_ns / NS_PER_S)
        if self._cost_s is None:
            self._cost_s = cost_s
        else:
            self._cost_s = (
                self.ALPHA * cost_s + (1.0 - self.ALPHA) * self._cost_s
            )
        if req.storage_delay_ns > 0:
            self.observe_storage_latency(req.storage_delay_ns)

    def observe_storage_latency(self, latency_ns: int) -> None:
        """Feed one observed stable-storage write latency (EWMA).

        Under contention -- many compute nodes checkpointing through the
        shared storage service at once -- this rises, and the
        recommended interval widens with it (E19).
        """
        latency_s = max(0.0, latency_ns / NS_PER_S)
        if self._storage_s is None:
            self._storage_s = latency_s
        else:
            self._storage_s = (
                self.ALPHA * latency_s + (1.0 - self.ALPHA) * self._storage_s
            )

    @property
    def checkpoint_cost_s(self) -> Optional[float]:
        """Current checkpoint-cost estimate (None before any sample)."""
        return self._cost_s

    def recommended_interval_s(self) -> float:
        """Daly interval from current estimates, clamped.

        The effective per-checkpoint cost is the application stall plus
        the storage commit latency: the paper's Daly ``δ`` is
        the end-to-end price of one durable checkpoint, and with a
        remote replicated store the commit is usually the bigger term.
        """
        cost = self._cost_s if self._cost_s is not None else self.min_interval_s
        if self._storage_s is not None:
            cost = cost + self._storage_s
        tau = daly_interval_s(cost, self.estimator.mtbf_s)
        return min(self.max_interval_s, max(self.min_interval_s, tau))

    def recommended_interval_ns(self) -> int:
        """The same, in engine units."""
        return int(self.recommended_interval_s() * NS_PER_S)

    def retune(self, coordinator) -> int:
        """Push the recommendation into a CheckpointCoordinator (or any
        object with an ``interval_ns`` attribute); returns the value."""
        iv = self.recommended_interval_ns()
        coordinator.interval_ns = iv
        self.retunes += 1
        return iv


class SafePreemption:
    """Checkpoint-then-yield: free resources without losing work.

    The paper lists "safe pre-emption by another process" among the
    self-managing functions.  :meth:`preempt` checkpoints the victim and
    freezes it once the image is durable; :meth:`resume_in_place` thaws
    it, and :meth:`resume_from_image` rebuilds it elsewhere (e.g. if the
    node was reclaimed entirely).
    """

    #: How long a preemption may stay in flight before parking is
    #: abandoned: a request stuck in PENDING/RUNNING (capture generator
    #: abandoned, storage hung) must not hold the park open forever.
    park_deadline_ns: int = 300 * NS_PER_S

    def __init__(
        self,
        mechanism: Checkpointer,
        park_deadline_ns: Optional[int] = None,
    ) -> None:
        self.mechanism = mechanism
        self.parked: dict = {}
        #: pid -> reason for preemptions whose parking never happened.
        self.park_failures: Dict[int, str] = {}
        if park_deadline_ns is not None:
            self.park_deadline_ns = int(park_deadline_ns)

    def preempt(self, task: Task) -> CheckpointRequest:
        """Checkpoint ``task`` and freeze it when the image is durable.

        Parking runs when the request settles.  It is *bounded*: a
        failed request, or one still in flight after
        :attr:`park_deadline_ns` of virtual time, gives up (and surfaces
        a ``preempt.park_failed`` metric); a request that settles after
        the deadline does not park.
        """
        kernel = self.mechanism.kernel
        engine = kernel.engine
        self.mechanism.prepare_target(task)
        req = self.mechanism.request_checkpoint(task)
        engine.metrics.inc("preempt.requests")

        def give_up(reason: str) -> None:
            self.park_failures[task.pid] = reason
            engine.metrics.inc("preempt.park_failed")
            engine.tracer.instant(
                "preempt.park_failed", pid=task.pid, key=req.key, reason=reason
            )

        def expire() -> None:
            give_up(
                f"checkpoint still {req.state.value} after "
                f"{self.park_deadline_ns} ns; abandoning park"
            )

        def park_when_done(_) -> None:
            if deadline.popped:
                return  # settled after the deadline gave up
            deadline.cancel()
            if req.state == RequestState.FAILED:
                give_up("checkpoint failed; nothing durable, task left running")
                return
            if task.alive():
                kernel.stop_task(task)
            self.parked[task.pid] = req.key
            self.park_failures.pop(task.pid, None)
            engine.metrics.inc("preempt.parked")

        deadline = engine.after(self.park_deadline_ns, expire, label="park-deadline")
        req.add_done_callback(park_when_done)
        return req

    def resume_in_place(self, task: Task) -> None:
        """Thaw a parked task on its original node."""
        if task.pid not in self.parked:
            raise CheckpointError(f"pid {task.pid} is not parked")
        self.mechanism.kernel.resume_task(task)
        del self.parked[task.pid]

    def resume_from_image(self, pid: int, target_kernel=None):
        """Rebuild a parked task from its durable image (any node)."""
        key = self.parked.pop(pid, None)
        if key is None:
            raise CheckpointError(f"pid {pid} is not parked")
        return self.mechanism.restart(key, target_kernel=target_kernel)
