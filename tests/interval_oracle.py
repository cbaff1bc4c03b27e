"""Checkpoint-interval optima kept as test oracles.

``src/`` picks intervals with Daly's optimum
(:func:`repro.analysis.daly_interval_s`).  Young's first-order optimum
and a numeric search over the expected-makespan model check it from two
sides: Daly must approach Young as the checkpoint cost shrinks, and the
search must land near Daly.
"""

from __future__ import annotations

import math

from repro.analysis import expected_completion_time_s
from repro.errors import ReproError


def young_interval_s(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Young's first-order optimum: ``sqrt(2 * C * M)``."""
    if checkpoint_cost_s <= 0:
        raise ReproError("checkpoint cost must be positive")
    if mtbf_s <= 0:
        raise ReproError("MTBF must be positive")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


def optimal_interval_search_s(
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
) -> float:
    """Numeric optimum of ``expected_completion_time_s`` (golden-section
    search over one hour of work)."""
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
