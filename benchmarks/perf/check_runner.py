#!/usr/bin/env python
"""CI smoke check for the parallel sharded experiment runner.

Runs a small experiment grid (fleet-vectorized E12 MTBF cells, which
embed ``repro.obs`` exports) through :class:`repro.runner.GridRunner`
and asserts the determinism contract the benchmarks rely on:

* two 2-worker sharded runs produce byte-identical merged documents
  (completion order must not leak into the output);
* the 2-worker document is byte-identical to the 1-worker (inline)
  document -- worker count must not change a single byte, which also
  proves no process-global state (RNGs, id counters, metrics) leaks
  between cells;
* the ``repro.obs`` export embedded in a cell computed by a worker
  process schema-validates and matches the serially computed one;
* a warm disk cache reproduces the same bytes with zero recomputes.

Exits non-zero with a diagnostic on any violation.

Usage::

    python benchmarks/perf/check_runner.py
"""

from __future__ import annotations

import sys
import tempfile

from scenarios import e12_cells  # also puts the repository's src/ on sys.path

from repro.obs import validate_export
from repro.runner import GridRunner, grid_to_json


def mini_grid() -> list:
    """A small but non-trivial grid: three sizes, obs-bearing cells."""
    return e12_cells((64, 256, 1024), n_trials=5)


def main() -> int:
    """Run the smoke checks; returns the process exit code."""
    serial = grid_to_json(GridRunner(workers=1).run(mini_grid()))

    sharded_a = grid_to_json(GridRunner(workers=2).run(mini_grid()))
    sharded_b = grid_to_json(GridRunner(workers=2).run(mini_grid()))
    if sharded_a != sharded_b:
        print("FAIL: two 2-worker runs produced different documents")
        return 1
    if serial != sharded_a:
        print("FAIL: 1-worker and 2-worker documents differ")
        return 1

    # The obs export computed inside a worker process must be the same
    # document the inline path produces, and must schema-validate.
    doc = GridRunner(workers=2).run(mini_grid())
    for cell in doc["cells"]:
        validate_export(cell["result"]["obs"])

    with tempfile.TemporaryDirectory() as cache_dir:
        runner = GridRunner(workers=2, cache_dir=cache_dir)
        cold = grid_to_json(runner.run(mini_grid()))
        warm = grid_to_json(runner.run(mini_grid()))
        if runner.computed != 0:
            print(f"FAIL: warm cache recomputed {runner.computed} cells")
            return 1
        if cold != warm or cold != serial:
            print("FAIL: cached run produced different bytes")
            return 1

    print(
        f"OK: {len(doc['cells'])} cells byte-identical across runs, "
        "worker counts and cache states; embedded obs exports validate"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
