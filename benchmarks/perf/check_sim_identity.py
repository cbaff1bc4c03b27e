#!/usr/bin/env python
"""CI check that the end-to-end workloads' simulated results are fixed.

Runs every ``perfbench.workloads.WORKLOADS`` entry once at seed 1 --
``reference()``, ``setup()``, ``run()``, ``check()``, ``results()`` --
and compares each ``results()`` document with the committed
``benchmarks/results/perfbench_sim_seed1.json``.  Host timestamps (the
``phases`` field) are left out; everything else is virtual time or an
exact count, so any difference means a change moved the simulation.
A workload whose own self-check fails also fails this check.

The script re-executes itself with ``PYTHONHASHSEED=0``, as
``perfbench/run.py`` runs its child.

Usage::

    python benchmarks/perf/check_sim_identity.py            # compare
    python benchmarks/perf/check_sim_identity.py --update   # rewrite
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS = REPO_ROOT / "benchmarks" / "results" / "perfbench_sim_seed1.json"
SEED = 1
#: ``results()`` fields holding host ``perf_counter`` stamps.
HOST_FIELDS = ("phases",)


def _plain(value):
    """JSON-ready copy: numpy scalars become Python numbers."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def run_all() -> dict:
    """``{workload: results()}`` for one seed-1 pass of each workload."""
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]
    from workloads import WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(SEED)
        ref = wl.reference()
        state = wl.setup()
        wl.run(state)
        attempted, failed, problems = wl.check(state, ref)
        if failed or problems:
            raise SystemExit(
                f"FAIL: {name} self-check: {failed} of {attempted} failed; "
                f"{problems}"
            )
        res = wl.results(state)
        for field in HOST_FIELDS:
            res.pop(field, None)
        out[name] = _plain(res)
        print(f"{name}: ok ({attempted} operations)")
    return out


def _diff(old, new, path=""):
    """Paths whose values differ between two results documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(set(old) | set(new)):
            lines += _diff(old.get(key), new.get(key), f"{path}.{key}")
        return lines
    return [] if old == new else [f"{path.lstrip('.')}: {old!r} -> {new!r}"]


def main() -> int:
    """Run the check (or rewrite the file); returns the exit code."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help=f"rewrite {RESULTS.relative_to(REPO_ROOT)}")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    results = run_all()
    if args.update:
        RESULTS.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"wrote {RESULTS.relative_to(REPO_ROOT)}")
        return 0
    committed = json.loads(RESULTS.read_text())
    diff = _diff(committed, results)
    if diff:
        print("FAIL: simulated results differ from the committed file:")
        print("\n".join(f"  {line}" for line in diff))
        return 1
    print("OK: every workload's simulated results match the committed file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
