"""Optimal checkpoint interval mathematics (Young / Daly).

The autonomic policies the paper calls for ("adjustment of the
checkpoint interval to the failure rate of the system") need a model of
how interval choice trades checkpoint overhead against expected rework.
Young's first-order optimum and Daly's higher-order refinement are the
standard results; :func:`daly_interval_s` computes the latter, and
:func:`expected_completion_time_s` gives the full expected-makespan
model used to score policies in E15/E18.

All arguments in seconds.
"""

from __future__ import annotations

import math

from ..errors import ReproError

__all__ = [
    "daly_interval_s",
    "expected_completion_time_s",
    "effective_utilization",
]


def _check(checkpoint_cost_s: float, mtbf_s: float) -> None:
    if checkpoint_cost_s <= 0:
        raise ReproError("checkpoint cost must be positive")
    if mtbf_s <= 0:
        raise ReproError("MTBF must be positive")


def daly_interval_s(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Daly's higher-order optimum.

    ``sqrt(2CM) * [1 + (1/3)sqrt(C/2M) + (1/9)(C/2M)] - C`` for C < 2M,
    else ``M`` (checkpointing more often than you fail is hopeless).
    """
    _check(checkpoint_cost_s, mtbf_s)
    c, m = checkpoint_cost_s, mtbf_s
    if c >= 2.0 * m:
        return m
    ratio = c / (2.0 * m)
    return math.sqrt(2.0 * c * m) * (
        1.0 + math.sqrt(ratio) / 3.0 + ratio / 9.0
    ) - c


def expected_completion_time_s(
    work_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
) -> float:
    """Expected makespan of ``work_s`` of computation under failures.

    Daly's model: the job advances in segments of ``interval_s`` useful
    work, each followed by a checkpoint of ``checkpoint_cost_s``; a
    failure (exponential, rate ``1/mtbf_s``) costs the partial segment
    plus ``restart_cost_s``.  The expected wall time for one segment is

        E = (M + R) * (exp((tau + C)/M) - 1) / (exp-adjusted rate)

    using the standard renewal argument; summed over ``work/tau``
    segments.
    """
    _check(checkpoint_cost_s, mtbf_s)
    if interval_s <= 0:
        raise ReproError("interval must be positive")
    if work_s <= 0:
        return 0.0
    m = mtbf_s
    seg = interval_s + checkpoint_cost_s
    n_segments = work_s / interval_s
    # Expected time to get through one segment of length `seg` with
    # exponential failures and restart penalty R (classic result):
    # E = (M + R) * (e^{seg/M} - 1)
    e_segment = (m + restart_cost_s) * (math.exp(seg / m) - 1.0)
    return n_segments * e_segment


def effective_utilization(
    work_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
) -> float:
    """Useful-work fraction: work / expected completion time."""
    total = expected_completion_time_s(
        work_s, interval_s, checkpoint_cost_s, restart_cost_s, mtbf_s
    )
    return work_s / total if total > 0 else 1.0
