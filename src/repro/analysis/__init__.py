"""Checkpoint-interval and reliability mathematics."""

from .interval import (
    daly_interval_s,
    effective_utilization,
    expected_completion_time_s,
)
from .reliability import (
    MTBFRow,
    expected_attempts_without_ckpt,
    expected_time_without_ckpt_s,
    mtbf_table,
)

__all__ = [
    "daly_interval_s",
    "expected_completion_time_s",
    "effective_utilization",
    "MTBFRow",
    "mtbf_table",
    "expected_attempts_without_ckpt",
    "expected_time_without_ckpt_s",
]
