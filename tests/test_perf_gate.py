"""The microbenchmark gate reads same-run ratios, not the host's speed.

``benchmarks/perf/run_bench.py --check BASELINE`` is CI's guard on the
wall-clock fast paths.  Every row it guards is a fast path timed against
its reference in the same run, so a slower host must pass and a fast
path that rots into its reference loop must fail.  These tests feed
``check_regression`` documents derived from the committed
``BENCH_PERF.json``; no benchmark runs.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).parent.parent
PERF = REPO / "benchmarks" / "perf"


def _load_run_bench():
    sys.path.insert(0, str(PERF))  # run_bench imports its sibling scenarios
    try:
        spec = importlib.util.spec_from_file_location(
            "perf_run_bench", PERF / "run_bench.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERF))
    return module


run_bench = _load_run_bench()
BASELINE = json.loads((REPO / "BENCH_PERF.json").read_text())

#: Suffixes of the absolute wall-clock rows: throughputs and durations.
THROUGHPUT = ("_mbps", "_eps", "_per_s")
DURATION = ("_s", "_ms")
#: Scenario parameters that carry those suffixes.
PARAMETERS = {"mtbf_s", "node_mtbf_s", "horizon_s", "span_ms", "rate_per_s"}


def _slower_host(doc, factor):
    """``doc`` as a host ``factor`` times slower would record it: every
    absolute throughput divided and every duration multiplied, every
    same-run ratio kept."""
    slow = copy.deepcopy(doc)
    changed = 0
    for section in slow.values():
        if not isinstance(section, dict):
            continue
        for key, value in section.items():
            if key in PARAMETERS or isinstance(value, bool):
                continue
            if key.endswith(THROUGHPUT):
                section[key] = value / factor
                changed += 1
            elif key.endswith(DURATION):
                section[key] = value * factor
                changed += 1
    assert changed >= 20
    return slow


def test_no_guarded_row_is_an_absolute_throughput():
    rows = run_bench.GUARDS + [run_bench.PROCS_GUARD]
    for _, section, key in rows:
        assert key in BASELINE[section], (section, key)
        assert not key.endswith(THROUGHPUT + DURATION), (section, key)


@pytest.mark.parametrize("factor", [2.0, 10.0])
def test_slower_host_with_ratios_kept_passes(factor, capsys):
    assert run_bench.check_regression(_slower_host(BASELINE, factor),
                                      BASELINE) == 0
    assert "OK: within regression budget" in capsys.readouterr().out


def test_scan_rotted_into_its_scalar_reference_fails(capsys):
    rotted = copy.deepcopy(BASELINE)
    rotted["block_scan"]["vectorized_mbps"] = rotted["block_scan"]["scalar_mbps"]
    rotted["block_scan"]["speedup"] = 1.0
    assert run_bench.check_regression(rotted, BASELINE) == 1
    out = capsys.readouterr().out
    assert "block_scan vectorized vs scalar speedup" in out
    assert "FAIL" in out


def test_encode_rotted_into_the_seed_encode_fails(capsys):
    rotted = copy.deepcopy(BASELINE)
    erasure = rotted["erasure"]
    erasure["encode_mbps"] = erasure["reference_encode_mbps"]
    erasure["encode_vs_reference"] = 1.0
    assert run_bench.check_regression(rotted, BASELINE) == 1
    out = capsys.readouterr().out
    assert "erasure packed encode vs the seed encode" in out
    assert "FAIL" in out


def test_drifted_exact_row_fails(capsys):
    drifted = copy.deepcopy(BASELINE)
    assert drifted["grid_runner"]["deterministic"] is True
    drifted["grid_runner"]["deterministic"] = False
    assert run_bench.check_regression(drifted, BASELINE) == 1
    assert "FAIL" in capsys.readouterr().out


def test_fleet_dispatch_rotted_into_a_node_scan_fails(capsys):
    """A dispatcher that scans every node ran the 16x larger storm at
    0.14x the small storm's rate."""
    rotted = copy.deepcopy(BASELINE)
    rotted["parallel_engine"]["size_independence"] = 0.14
    assert run_bench.check_regression(rotted, BASELINE) == 1
    out = capsys.readouterr().out
    assert "parallel engine storm rate at 16x the nodes" in out
    assert "FAIL" in out


def test_process_row_guarded_only_with_a_core_per_worker(capsys):
    slow_procs = copy.deepcopy(BASELINE)
    slow_procs["parallel_engine"]["procs_vs_4shard"] = 0.1
    workers = slow_procs["parallel_engine"]["workers"]
    slow_procs["host"]["cpu_count"] = workers
    assert run_bench.check_regression(slow_procs, BASELINE) == 1
    slow_procs["host"]["cpu_count"] = workers - 1
    assert run_bench.check_regression(slow_procs, BASELINE) == 0
    capsys.readouterr()


def test_baseline_of_another_schema_fails(capsys):
    old = dict(BASELINE, schema=run_bench.SCHEMA - 1)
    assert run_bench.check_regression(BASELINE, old) == 1
    assert "schema" in capsys.readouterr().out
