#!/usr/bin/env python
"""CI smoke check for the conservative time-windowed parallel engine.

Asserts the PR's hard gate and a lenient throughput bar with plain
stdlib:

* **1-vs-N byte identity**: the folded ``repro.obs`` export of the
  failure-storm fleet (``scenarios.storm``, the one ``run_bench.py``
  times) is the same bytes for 1, 2 and 4 shards, and the
  persistent-worker process backend folds to the same bytes as the
  in-process reference, also over an uneven split (4 shards on 3
  workers: the host steps two, each child one); a restart-traffic run
  stopped at its first failure, with envelopes in flight, folds to the
  same bytes over the process backend as in one shard;
* the all-cross-shard **ring traffic** scenario delivers every message
  exactly once (sent == received, xor digest identical across shard
  counts) -- the barrier exchange neither drops nor duplicates;
* the **restart-traffic** scenario actually exchanges envelopes across
  shards (the identity above is not vacuous), every failed node's
  storage read is acknowledged, and the process backend (2 workers,
  4 shards) folds that envelope-carrying run to the same bytes as the
  1-shard in-process run, over the same windows, envelopes and events
  as the 4-shard in-process run;
* a **size-independence bar**: the 1-shard storm over 65,536 nodes
  runs at least 0.5x the events/s of its twin over 4,096 nodes at 1/16
  of the node MTBF (the same fleet failure rate, horizon and about the
  same event count), timed in the same run.  A fleet dispatch visits
  only the due blocks of its transition index, so its cost does not
  grow with the node range; a dispatcher that scans every node runs
  the large storm several times slower and fails the bar
  (``BENCH_PERF.json`` records the ratio as
  ``parallel_engine.size_independence``).

Exits non-zero with a diagnostic on any violation.

Usage::

    python benchmarks/perf/check_parallel.py
"""

from __future__ import annotations

from scenarios import (  # also puts the repository's src/ on sys.path
    SMALL_STORM_NODES,
    bench_workers,
    best_of,
    storm,
)

from repro.runner import run_parallel
from repro.simkernel.costs import NS_PER_S, NS_PER_US

MIN_SIZE_RATIO = 0.5
PROP_NS = 2_000_000


def restart(shards: int, workers: int = 1, stop: bool = False):
    """Seeded restart traffic: every failure reads an image from the
    sharded storage tier; ``stop`` ends the run at the first failure."""
    return run_parallel(
        "repro.cluster.scenarios:fleet_restart_traffic",
        {"n_nodes": 256, "mtbf_s": 2_000.0, "repair_s": 120.0,
         "n_servers": 5, "image_bytes": 1 << 20,
         "propagation_ns": PROP_NS, "service_floor_ns": 5_000_000,
         "ns_per_byte": 0.01, "stop_on_first_failure": stop},
        seed=11, n_shards=shards, horizon_ns=900 * NS_PER_S,
        lookahead_ns=PROP_NS, workers=workers,
        meta={"experiment": "smoke-restart", "seed": 11},
    )


def main() -> int:
    status = 0

    # 1. Byte identity across shard counts and backends.
    runs = {s: storm(s) for s in (1, 2, 4)}
    ref = runs[1].obs_json
    for s in (2, 4):
        if runs[s].obs_json != ref:
            print(f"FAIL: {s}-shard folded export differs from 1-shard")
            status = 1
    for workers in sorted({bench_workers(), 3}):
        if storm(4, workers=workers).obs_json != ref:
            print(f"FAIL: folded export over {workers} workers differs "
                  "from in-process")
            status = 1
    stopped = restart(1, stop=True)
    stopped_procs = restart(4, workers=2, stop=True)
    if not (stopped.stats.stopped and stopped_procs.stats.stopped
            and stopped_procs.stats.window_exchanges[-1] > 0):
        print("FAIL: the stopped restart-traffic run did not stop with "
              "envelopes in flight")
        status = 1
    if stopped_procs.obs_json != stopped.obs_json:
        print("FAIL: stopped restart-traffic export over 2 workers "
              "differs from the 1-shard in-process run")
        status = 1
    if not status:
        print(f"identity: storm exports byte-identical for 1/2/4 shards "
              f"and the process backend, 4 shards on 3 workers included "
              f"({len(ref)}B folded doc); stopped restart traffic "
              f"identical over 2 workers")

    # 2. Ring traffic: exactly-once across the barrier exchange.
    hop_ns = 50 * NS_PER_US
    digests = {}
    for s in (1, 3):
        res = run_parallel(
            "repro.cluster.scenarios:ring_traffic",
            {"n_ranks": 24, "hop_ns": hop_ns, "hops": 6, "msgs_per_rank": 4},
            seed=9, n_shards=s, horizon_ns=NS_PER_S, lookahead_ns=hop_ns,
            meta={"experiment": "smoke-ring", "seed": 9},
        )
        c = res.obs["metrics"]["counters"]
        digest = 0
        for r in res.shard_results:
            digest ^= r["digest"]
        digests[s] = (c["ring.sent"], c["ring.recv"], digest, res.obs_json)
    sent, recv, digest, _ = digests[3]
    print(f"ring: {sent} sent / {recv} received, digest {digest:016x}")
    if sent == 0 or sent != recv:
        print("FAIL: ring delivery is not exactly-once")
        status = 1
    if digests[1] != digests[3]:
        print("FAIL: ring run differs between 1 and 3 shards")
        status = 1

    # 3. Restart traffic: cross-shard envelopes actually flow, in-process
    #    and through the worker processes.
    rt1, rt4, rt_procs = restart(1), restart(4), restart(4, workers=2)
    c = rt4.obs["metrics"]["counters"]
    print(f"restart: {c['sstore.requests']} reads, {c['sstore.acks']} acks, "
          f"{rt4.stats.exchanged} envelopes over {rt4.stats.windows} "
          f"windows ({rt_procs.stats.exchanged} over 2 worker processes)")
    if rt1.obs_json != rt4.obs_json:
        print("FAIL: restart-traffic export differs between 1 and 4 shards")
        status = 1
    if rt1.obs_json != rt_procs.obs_json:
        print("FAIL: restart-traffic export over 2 worker processes differs "
              "from the 1-shard in-process run")
        status = 1
    barrier4 = (rt4.stats.windows, rt4.stats.exchanged, rt4.stats.events)
    barrier_procs = (rt_procs.stats.windows, rt_procs.stats.exchanged,
                     rt_procs.stats.events)
    if barrier_procs != barrier4:
        print(f"FAIL: restart-traffic (windows, envelopes, events) over 2 "
              f"worker processes {barrier_procs} differ from the 4-shard "
              f"in-process run's {barrier4}")
        status = 1
    if rt4.stats.exchanged == 0 or rt_procs.stats.exchanged == 0:
        print("FAIL: no envelopes crossed shards -- the identity checks "
              "above are vacuous")
        status = 1
    if c["sstore.requests"] == 0 or c["sstore.requests"] != c["sstore.acks"]:
        print("FAIL: restart reads were not all acknowledged")
        status = 1

    # 4. Size independence (BENCH_PERF.json records the same ratio).
    small = storm(1, nodes=SMALL_STORM_NODES)
    t_big, t_small = best_of(3, lambda: storm(1),
                             lambda: storm(1, nodes=SMALL_STORM_NODES))
    eps_big = runs[1].stats.events / t_big
    eps_small = small.stats.events / t_small
    ratio = eps_big / eps_small
    print(f"size independence: {eps_small:.0f} events/s over "
          f"{SMALL_STORM_NODES} nodes, {eps_big:.0f} over 16x the nodes "
          f"({ratio:.2f}x)")
    if ratio < MIN_SIZE_RATIO:
        print(f"FAIL: the 16x larger storm runs at {ratio:.2f}x the small "
              f"one's rate, below the {MIN_SIZE_RATIO}x bar")
        status = 1

    print("OK: parallel engine within acceptance bars" if not status
          else "check_parallel: FAILED")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
