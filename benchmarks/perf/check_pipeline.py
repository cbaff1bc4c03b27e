#!/usr/bin/env python
"""CI smoke check for the asynchronous C/R I/O pipeline.

Runs the ``pipeline`` microbench scenario (same seeded workload through
the synchronous drain and the depth-4 COW writeback pipeline, then an
8-delta-chain restart via serial walk and via parallel prefetch + chain
compaction) and asserts the PR's acceptance bars with plain stdlib:

* the pipelined capture's per-delta application downtime overlaps at
  least ``MIN_OVERLAP`` of the synchronous drain's (issue bar: the
  async drain's downtime is at most half the synchronous one's);
* restart of the delta chain through prefetch + compaction is at least
  ``MIN_RESTART_SPEEDUP``x faster than the serial chain walk, and the
  compacted restore reads a single flat image;
* the hidden storage wait is still accounted (``storage_delay_ns`` of
  pipelined requests is positive -- latency moved off the critical
  path, not out of the books);
* the backpressure window is honoured: a fresh drain never holds more
  than ``depth`` unacknowledged extents.

These are virtual-time ratios, so the check is immune to CI runner
noise.  Exits non-zero with a diagnostic on any violation.

Usage::

    python benchmarks/perf/check_pipeline.py
"""

from __future__ import annotations

from scenarios import (  # also puts the repository's src/ on sys.path
    mean_delta_stall, pipeline_build, pipeline_deltas, pipeline_restart,
)

MIN_OVERLAP = 0.5  # pipelined downtime <= 0.5x the synchronous drain's
#: Half the 6.6x restart speedup recorded in BENCH_PERF.json.
MIN_RESTART_SPEEDUP = 3.3
N_CHECKPOINTS = 6
CHAIN_LEN = 9  # 1 full + 8 deltas


def main() -> int:
    status = 0

    _, _, sync_mech, _ = pipeline_build(1, N_CHECKPOINTS)
    cl_p, _, pipe_mech, _ = pipeline_build(4, N_CHECKPOINTS)
    sync_stall = mean_delta_stall(sync_mech)
    pipe_stall = mean_delta_stall(pipe_mech)
    overlap = 1.0 - pipe_stall / sync_stall
    print(f"downtime per delta: sync {sync_stall:.0f}ns, "
          f"pipelined {pipe_stall:.0f}ns, "
          f"overlap {overlap:.2%} (need >= {MIN_OVERLAP:.0%})")
    if overlap < MIN_OVERLAP:
        print("FAIL: the pipelined drain does not hide enough of the "
              "synchronous downtime")
        status = 1

    hidden = [r.storage_delay_ns for r in pipeline_deltas(pipe_mech)]
    if not all(h > 0 for h in hidden):
        print(f"FAIL: pipelined requests lost their storage accounting: "
              f"{hidden}")
        status = 1

    counters = cl_p.engine.metrics.counters()
    if counters.get("pipeline.extents", 0) <= 0:
        print("FAIL: no extents went through the writeback pipeline")
        status = 1
    inflight = cl_p.engine.metrics.get("pipeline.inflight")
    if inflight is not None and inflight.max is not None and inflight.max > 4:
        print(f"FAIL: window exceeded depth 4: {inflight.max} in flight")
        status = 1

    serial_ns, compact_ns, images_read = pipeline_restart(CHAIN_LEN)
    speedup = serial_ns / compact_ns
    print(f"restart: serial walk {serial_ns}ns, prefetch+compaction "
          f"{compact_ns}ns, speedup {speedup:.2f}x "
          f"(need >= {MIN_RESTART_SPEEDUP:.1f}x)")
    if speedup < MIN_RESTART_SPEEDUP:
        print("FAIL: chain restart speedup below the acceptance bar")
        status = 1
    if images_read != 1:
        print(f"FAIL: compacted restore read {images_read} images, "
              "expected the single flat blob")
        status = 1

    print("OK: async pipeline within acceptance bars" if not status
          else "check_pipeline: FAILED")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
