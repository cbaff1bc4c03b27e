"""Optimal checkpoint interval mathematics (Young / Daly).

The autonomic policies the paper calls for ("adjustment of the
checkpoint interval to the failure rate of the system") need a model of
how interval choice trades checkpoint overhead against expected rework.
Young's first-order optimum and Daly's higher-order refinement are the
standard results; :func:`expected_completion_time_s` gives the full
expected-makespan model used to score policies in E15/E18.

All arguments in seconds.
"""

from __future__ import annotations

import math

from ..errors import ReproError

__all__ = [
    "young_interval_s",
    "daly_interval_s",
    "expected_completion_time_s",
    "effective_utilization",
    "optimal_interval_search_s",
]


def _check(checkpoint_cost_s: float, mtbf_s: float) -> None:
    if checkpoint_cost_s <= 0:
        raise ReproError("checkpoint cost must be positive")
    if mtbf_s <= 0:
        raise ReproError("MTBF must be positive")


def young_interval_s(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Young's first-order optimum: ``sqrt(2 * C * M)``."""
    _check(checkpoint_cost_s, mtbf_s)
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


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


def optimal_interval_search_s(
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
) -> float:
    """Numeric optimum of :func:`expected_completion_time_s` (golden
    section), used to validate the closed forms and to drive the
    autonomic controller when costs are measured rather than assumed."""
    _check(checkpoint_cost_s, mtbf_s)
    lo = checkpoint_cost_s / 10.0
    hi = 10.0 * mtbf_s
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(tau: float) -> float:
        return expected_completion_time_s(
            3600.0, tau, checkpoint_cost_s, restart_cost_s, mtbf_s
        )

    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    for _ in range(200):
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        if abs(b - a) < 1e-6 * (1.0 + abs(b)):
            break
    return (a + b) / 2.0
