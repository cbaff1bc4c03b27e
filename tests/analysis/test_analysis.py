"""Tests for the interval/reliability mathematics."""

from __future__ import annotations

import pytest

from interval_oracle import optimal_interval_search_s, young_interval_s
from repro.analysis import (
    daly_interval_s,
    effective_utilization,
    expected_attempts_without_ckpt,
    expected_completion_time_s,
    expected_time_without_ckpt_s,
    mtbf_table,
)
from repro.errors import ReproError


class TestIntervals:
    def test_young_formula(self):
        assert young_interval_s(50.0, 10_000.0) == pytest.approx(1000.0)

    def test_daly_close_to_young_when_cost_small(self):
        y = young_interval_s(1.0, 100_000.0)
        d = daly_interval_s(1.0, 100_000.0)
        assert abs(d - y) / y < 0.01

    def test_daly_clamps_at_mtbf_for_huge_cost(self):
        assert daly_interval_s(10_000.0, 100.0) == 100.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError):
            young_interval_s(0.0, 100.0)
        with pytest.raises(ReproError):
            young_interval_s(1.0, -5.0)
        with pytest.raises(ReproError):
            expected_completion_time_s(100.0, 0.0, 1.0, 1.0, 100.0)

    def test_expected_time_exceeds_work_plus_ckpt(self):
        t = expected_completion_time_s(3600.0, 600.0, 30.0, 60.0, 10_000.0)
        overhead_free = 3600.0 * (1 + 30.0 / 600.0)
        assert t > overhead_free  # failures add rework

    def test_expected_time_converges_to_ideal_when_mtbf_huge(self):
        t = expected_completion_time_s(3600.0, 600.0, 30.0, 60.0, 1e12)
        ideal = 3600.0 + (3600.0 / 600.0) * 30.0
        assert t == pytest.approx(ideal, rel=1e-3)

    def test_utilization_unimodal_peak_near_optimum(self):
        cost, mtbf = 30.0, 3600.0
        tau_opt = daly_interval_s(cost, mtbf)
        u_opt = effective_utilization(3600.0, tau_opt, cost, 60.0, mtbf)
        for tau in (tau_opt / 8, tau_opt * 8):
            assert effective_utilization(3600.0, tau, cost, 60.0, mtbf) < u_opt

    def test_numeric_search_agrees_with_daly(self):
        cost, mtbf = 20.0, 7200.0
        tau_num = optimal_interval_search_s(cost, 30.0, mtbf)
        tau_daly = daly_interval_s(cost, mtbf)
        assert abs(tau_num - tau_daly) / tau_daly < 0.15


class TestReliability:
    def test_attempts_grow_with_machine_size(self):
        small = expected_attempts_without_ckpt(86_400, 100_000 * 3600, 128)
        big = expected_attempts_without_ckpt(86_400, 100_000 * 3600, 65_536)
        assert big > small >= 1.0

    def test_expected_scratch_time_blows_up(self):
        # A week of work on a 65k-node machine with 100k-hour node MTBF.
        t = expected_time_without_ckpt_s(7 * 86_400, 100_000 * 3600, 65_536)
        assert t > 7 * 86_400 * 2  # far more than the ideal runtime

    def test_mtbf_table_shape_and_monotonicity(self):
        rows = mtbf_table(100_000.0, [1, 1024, 65_536])
        assert [r.n_nodes for r in rows] == [1, 1024, 65_536]
        assert rows[0].system_mtbf_h > rows[1].system_mtbf_h > rows[2].system_mtbf_h
        assert rows[0].p_complete_1d > rows[2].p_complete_1d
        # BlueGene/L scale: system MTBF under 2 hours even with
        # 100k-hour nodes -- "orders of magnitude shorter" than weeks.
        assert rows[2].system_mtbf_h < 2.0

    def test_mtbf_table_validates(self):
        with pytest.raises(ReproError):
            mtbf_table(0.0, [1])
