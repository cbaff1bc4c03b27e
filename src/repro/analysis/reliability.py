"""Reliability arithmetic for large machines (E12).

Quantifies the paper's Section-1 motivation: MTBF shrinking with
component count until it falls "orders of magnitude" below application
runtimes, and what that does to the expected number of from-scratch
attempts without checkpointing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..cluster.failures import p_survive, system_mtbf_s
from ..errors import ReproError

__all__ = [
    "expected_attempts_without_ckpt",
    "expected_time_without_ckpt_s",
    "mtbf_table",
    "MTBFRow",
]


def expected_attempts_without_ckpt(
    runtime_s: float, node_mtbf_s: float, n_nodes: int
) -> float:
    """Expected number of from-scratch runs until one completes.

    Completion probability per attempt is ``p = exp(-runtime/M_sys)``;
    attempts are geometric with mean ``1/p`` -- the paper's "run an
    application ... many times to achieve one successful completion".
    """
    p = p_survive(runtime_s, node_mtbf_s, n_nodes)
    if p <= 0.0:
        return math.inf
    return 1.0 / p


def expected_time_without_ckpt_s(
    runtime_s: float, node_mtbf_s: float, n_nodes: int
) -> float:
    """Expected wall time to one successful scratch run.

    With exponential failures, E[T] = M_sys * (e^{runtime/M_sys} - 1):
    failed attempts cost their partial progress.
    """
    m_sys = system_mtbf_s(node_mtbf_s, n_nodes)
    return m_sys * (math.exp(runtime_s / m_sys) - 1.0)


@dataclass(frozen=True)
class MTBFRow:
    """One row of the machine-scaling table."""

    n_nodes: int
    system_mtbf_h: float
    p_complete_1d: float
    expected_attempts_1d: float


def mtbf_table(node_mtbf_h: float, node_counts: List[int]) -> List[MTBFRow]:
    """System MTBF and 1-day-job completion odds vs machine size."""
    if node_mtbf_h <= 0:
        raise ReproError("node MTBF must be positive")
    day_s = 86_400.0
    node_mtbf_s = node_mtbf_h * 3600.0
    return [
        MTBFRow(
            n_nodes=n,
            system_mtbf_h=system_mtbf_s(node_mtbf_s, n) / 3600.0,
            p_complete_1d=p_survive(day_s, node_mtbf_s, n),
            expected_attempts_1d=expected_attempts_without_ckpt(day_s, node_mtbf_s, n),
        )
        for n in node_counts
    ]
