#!/usr/bin/env python
"""CI smoke check for coordinated distributed snapshots (repro.distsnap).

Runs the ``distsnap`` consistency scenario (a 6-process all-to-all
group with skewed channel latencies and background traffic, snapshotted
with both coordination protocols, then restarted from the cut) and
asserts the PR's acceptance bars with plain stdlib:

* the Chandy-Lamport cut logs at least ``MIN_LOGGED_MSGS`` in-flight
  messages (skewed latencies make the hard case real) and a restart
  from it replays them **exactly once** -- zero orphans, zero
  duplicates in the channel audit;
* the marker protocol never pauses the application (zero downtime),
  while the stop-the-world cut has provably empty channels and a
  downtime bounded by the quiesce round-trip plus the drain backlog;
* an aborted snapshot cancels cleanly: no pending engine events leak,
  the network is unpaused, and a fresh snapshot succeeds afterwards;
* same-seed runs of either protocol export byte-identical
  ``repro.obs`` documents.

These are virtual-time/deterministic properties, so the check is immune
to CI runner noise.  Exits non-zero with a diagnostic on any violation.

Usage::

    python benchmarks/perf/check_distsnap.py
"""

from __future__ import annotations

from scenarios import (  # also puts the repository's src/ on sys.path
    DISTSNAP_RATE,
    DISTSNAP_WARMUP_NS,
    distsnap_build,
    distsnap_snapshot,
    marker_cycle,
)

from repro.distsnap import (
    MarkerProtocol,
    StopTheWorldProtocol,
    TrafficDriver,
)
from repro.distsnap.protocols import CONTROL_LATENCY_NS
from repro.obs.export import export_obs, to_json

#: Half the 12 in-flight messages the marker cut logs (BENCH_PERF.json
#: ``distsnap.marker_logged_msgs``).
MIN_LOGGED_MSGS = 6


def main() -> int:
    status = 0

    # 1. Marker cut: in-flight messages logged, restart replays them
    #    exactly once.
    m, _, res, audit = marker_cycle()
    logged = m.logged_message_count()
    print(f"marker: logged {logged} in-flight msgs, "
          f"manifest {m.size_bytes}B, downtime {m.downtime_ns}ns")
    if logged < MIN_LOGGED_MSGS:
        print(f"FAIL: the marker cut logged fewer than {MIN_LOGGED_MSGS} "
              "in-flight messages -- the skewed-latency hard case is not "
              "being exercised")
        status = 1
    if m.downtime_ns != 0:
        print(f"FAIL: marker protocol reported downtime {m.downtime_ns}ns; "
              "it must never pause the application")
        status = 1
    print(f"restart: replayed {res.replayed}/{logged}, "
          f"audit {audit['orphans']} orphans / {audit['duplicates']} dups")
    if res.replayed != logged or audit["orphans"] or audit["duplicates"]:
        print("FAIL: restart from the marker cut is not exactly-once")
        status = 1

    # 2. Stop-the-world: empty channels, bounded downtime, resumed net.
    eng, net, drv, ranks = distsnap_build(seed=13)
    eng.run(until_ns=DISTSNAP_WARMUP_NS)
    deadline_before = net.drain_deadline_ns()
    t0 = eng.now_ns
    proto = StopTheWorldProtocol(net, ranks, store=None, job="stw")
    token = distsnap_snapshot(eng, proto)
    if not token.done:
        print("FAIL: stop-the-world snapshot did not complete")
        return 1
    m = proto.manifest
    bound = 2 * CONTROL_LATENCY_NS + max(0, deadline_before - t0)
    print(f"stw: downtime {m.downtime_ns}ns (bound {bound}ns), "
          f"logged {m.logged_message_count()}")
    if m.logged_message_count() != 0:
        print("FAIL: a stop-the-world cut must have empty channels")
        status = 1
    if not (0 < m.downtime_ns <= bound):
        print("FAIL: stop-the-world downtime outside the "
              "quiesce+drain bound")
        status = 1
    if net.paused:
        print("FAIL: the network stayed paused after the snapshot")
        status = 1
    drv.stop()

    # 3. Abort: no pending-event leak, fresh snapshot still works.
    eng, net, drv, ranks = distsnap_build(seed=29)
    eng.run(until_ns=1_000_000)
    proto = MarkerProtocol(net, ranks, store=None, job="smoke")
    proto.start()
    proto.abort("smoke abort")
    drv.stop()
    eng.run()
    if eng.pending() != 0:
        print(f"FAIL: {eng.pending()} engine events leaked after abort")
        status = 1
    drv2 = TrafficDriver(net, rate_per_s=DISTSNAP_RATE)
    drv2.start()
    token = distsnap_snapshot(eng, MarkerProtocol(net, ranks, store=None,
                                                  job="smoke"))
    if not token.done:
        print("FAIL: no fresh snapshot possible after an abort")
        status = 1
    else:
        print("abort: clean cancel, pending drained, fresh snapshot ok")

    # 4. Determinism: same-seed byte-identical obs exports per protocol.
    def export(protocol, seed):
        eng, net, drv, ranks = distsnap_build(seed=seed)
        eng.run(until_ns=DISTSNAP_WARMUP_NS)
        cls = MarkerProtocol if protocol == "marker" else StopTheWorldProtocol
        token = distsnap_snapshot(eng, cls(net, ranks, store=None, job="det"))
        assert token.done
        drv.stop()
        eng.run()
        return to_json(export_obs(eng.metrics, eng.tracer,
                                  meta={"protocol": protocol},
                                  now_ns=eng.now_ns))

    for protocol in ("marker", "stw"):
        if export(protocol, 21) != export(protocol, 21):
            print(f"FAIL: same-seed {protocol} exports differ")
            status = 1
        else:
            print(f"determinism: {protocol} same-seed exports byte-identical")

    print("OK: distributed snapshots within acceptance bars" if not status
          else "check_distsnap: FAILED")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
