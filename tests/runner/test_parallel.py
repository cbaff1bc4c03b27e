"""Tests for the conservative time-windowed parallel engine.

The contract under test is the PR's hard gate: a scenario built on
shard-invariant state produces **byte-identical** folded ``repro.obs``
exports for any shard count and either backend.  Plus the supporting
invariants: canonical envelope ordering makes barrier merges
arrival-order-independent, the conservative condition is enforced at
send and deliver time, and the window driver skips idle virtual time.
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.simkernel import Engine
from repro.simkernel.costs import NS_PER_S, NS_PER_US
from repro.simkernel.parallel import (
    Envelope,
    LocalShardGroup,
    ParallelError,
    ShardContext,
    derive_lookahead,
    run_windows,
)
from repro.runner import (
    ProcessShardGroup,
    WorkerDiedError,
    WorkerHungError,
    run_parallel,
)
from repro.runner import parallel as runner_parallel


def make_ctx(shard_id=0, n_shards=1, lookahead_ns=1000):
    return ShardContext(Engine(seed=1), shard_id, n_shards,
                        lookahead_ns=lookahead_ns)


# ----------------------------------------------------------------------
# Lookahead and send/deliver validation
# ----------------------------------------------------------------------
class TestConservativeConditions:
    def test_derive_lookahead_is_min_floor(self):
        assert derive_lookahead(5000, 2000, 9000) == 2000

    def test_derive_lookahead_rejects_nonpositive(self):
        with pytest.raises(ParallelError, match="positive"):
            derive_lookahead(5000, 0)
        with pytest.raises(ParallelError, match="floor"):
            derive_lookahead()

    def test_send_below_lookahead_rejected(self):
        ctx = make_ctx(lookahead_ns=1000)
        with pytest.raises(ParallelError, match="violates lookahead"):
            ctx.send("k", {}, delay_ns=999, dst_shard=0)

    def test_send_without_channels_rejected(self):
        ctx = ShardContext(Engine(seed=1), 0, 1, lookahead_ns=None)
        with pytest.raises(ParallelError, match="no cross-shard channels"):
            ctx.send("k", {}, delay_ns=10**9, dst_shard=0)

    def test_past_delivery_rejected(self):
        ctx = make_ctx()
        ctx.on("k", lambda p: None)
        ctx.engine.run(until_ns=5000)
        stale = Envelope(deliver_at_ns=4000, kind="k", dst_shard=0,
                         src_shard=0, payload={}, payload_key="{}")
        with pytest.raises(ParallelError, match="lookahead violated"):
            ctx.deliver([stale])

    def test_wrong_shard_delivery_rejected(self):
        ctx = make_ctx(shard_id=0, n_shards=2)
        misrouted = Envelope(deliver_at_ns=10, kind="k", dst_shard=1,
                             src_shard=0, payload={}, payload_key="{}")
        with pytest.raises(ParallelError, match="delivered to"):
            ctx.deliver([misrouted])

    def test_duplicate_handler_rejected(self):
        ctx = make_ctx()
        ctx.on("k", lambda p: None)
        with pytest.raises(ParallelError, match="duplicate handler"):
            ctx.on("k", lambda p: None)

    def test_unknown_kind_rejected(self):
        ctx = make_ctx()
        env = Envelope(deliver_at_ns=10, kind="mystery", dst_shard=0,
                       src_shard=0, payload={}, payload_key="{}")
        with pytest.raises(ParallelError, match="no handler"):
            ctx.deliver([env])


# ----------------------------------------------------------------------
# Canonical envelope ordering
# ----------------------------------------------------------------------
class TestCanonicalMerge:
    def _batch(self):
        envs = []
        for t, val in [(500, "c"), (100, "b"), (100, "a"), (500, "a")]:
            payload = {"v": val}
            envs.append(Envelope(
                deliver_at_ns=t, kind="k", dst_shard=0, src_shard=0,
                payload=payload,
                payload_key=f'{{"v":"{val}"}}',
            ))
        return envs

    def _run(self, envelopes):
        ctx = make_ctx()
        seen = []
        ctx.on("k", lambda p: seen.append(p["v"]))
        ctx.deliver(envelopes)
        ctx.engine.run()
        return seen

    def test_any_arrival_order_schedules_identically(self):
        """The barrier merge is a pure function of batch *contents*."""
        envs = self._batch()
        orders = [envs, list(reversed(envs)),
                  [envs[2], envs[0], envs[3], envs[1]]]
        results = [self._run(o) for o in orders]
        assert results[0] == results[1] == results[2]
        # And the canonical order itself: time first, then payload JSON.
        assert results[0] == ["a", "b", "a", "c"]

    def test_src_shard_is_last_tiebreak(self):
        twins = [
            Envelope(100, "k", 0, src, {"v": "x"}, '{"v":"x"}')
            for src in (3, 1)
        ]
        keys = sorted(e.sort_key for e in twins)
        assert [k[-1] for k in keys] == [1, 3]


# ----------------------------------------------------------------------
# Window driver mechanics
# ----------------------------------------------------------------------
class _PingPong:
    """Two shards lobbing one envelope back and forth ``rounds`` times."""

    def __init__(self, ctx, rounds, hop_ns):
        self.ctx = ctx
        self.rounds = rounds
        self.hop_ns = hop_ns
        self.got = 0
        ctx.on("ping", self._on_ping)
        if ctx.shard_id == 0:
            ctx.engine.at_anon(0, lambda: self._send(rounds))

    def _send(self, hops_left):
        self.ctx.send("ping", {"hops_left": hops_left}, self.hop_ns,
                      dst_shard=1 - self.ctx.shard_id)

    def _on_ping(self, payload):
        self.got += 1
        if payload["hops_left"] > 1:
            self._send(payload["hops_left"] - 1)


def pingpong_factory(rounds, hop_ns):
    def build(sid):
        ctx = ShardContext(Engine(seed=1), sid, 2, lookahead_ns=hop_ns)
        return ctx, _PingPong(ctx, rounds, hop_ns)
    return [build(0), build(1)]


class TestWindowDriver:
    def test_pingpong_crosses_barriers(self):
        shards = pingpong_factory(rounds=6, hop_ns=1000)
        group = LocalShardGroup(shards)
        stats = run_windows(group, horizon_ns=100_000, window_ns=1000)
        assert stats.exchanged == 6
        assert sum(s.got for _, s in shards) == 6
        # All clocks parked at the horizon.
        assert all(ctx.engine.now_ns == 100_000 for ctx, _ in shards)

    def test_idle_virtual_time_is_skipped(self):
        """A fleet whose next event is far away costs no extra windows."""
        eng = Engine(seed=1)
        ctx = ShardContext(eng, 0, 1, lookahead_ns=10)
        fired = []
        eng.at_anon(5_000_000, lambda: fired.append(eng.now_ns))
        eng.at_anon(9_000_000, lambda: fired.append(eng.now_ns))
        stats = run_windows(LocalShardGroup([(ctx, object())]),
                            horizon_ns=10_000_000, window_ns=10)
        assert fired == [5_000_000, 9_000_000]
        # Two occupied windows, not 10_000_000 / 10 empty ones.
        assert stats.windows == 2

    def test_stop_flag_parks_all_shards_at_same_barrier(self):
        class Stopper:
            def __init__(self, ctx, when):
                self.ctx = ctx
                self.hit = False
                ctx.engine.at_anon(when, self._fire)

            def _fire(self):
                self.hit = True

            def stop(self):
                return self.hit

        def build(sid, when):
            ctx = ShardContext(Engine(seed=1), sid, 2, lookahead_ns=100)
            return ctx, Stopper(ctx, when)

        shards = [build(0, 750), build(1, 10**9)]
        stats = run_windows(LocalShardGroup(shards), horizon_ns=10**9,
                            window_ns=100)
        assert stats.stopped
        clocks = {ctx.engine.now_ns for ctx, _ in shards}
        assert len(clocks) == 1  # both parked at the same window end
        assert clocks.pop() < 10**9

    def test_window_wider_than_lookahead_rejected(self):
        with pytest.raises(ParallelError, match="exceeds lookahead"):
            run_parallel("repro.cluster.scenarios:fleet_storm",
                         {"n_nodes": 4, "mtbf_s": 100.0}, 1,
                         n_shards=1, horizon_ns=10**9,
                         lookahead_ns=100, window_ns=200)

    def test_barrier_metrics_reported(self):
        shards = pingpong_factory(rounds=3, hop_ns=1000)
        reg = MetricsRegistry()
        run_windows(LocalShardGroup(shards), horizon_ns=10**6,
                    window_ns=1000, registry=reg)
        doc = reg.to_dict()
        assert doc["counters"]["parallel.windows"] > 0
        assert doc["counters"]["parallel.envelopes"] == 3


# ----------------------------------------------------------------------
# The hard gate: byte-identical folded exports, property-based
# ----------------------------------------------------------------------
SCENARIOS = st.sampled_from(["storm", "restart", "ring"])


def _run(scenario, seed, size, shards, workers=1):
    if scenario == "storm":
        return run_parallel(
            "repro.cluster.scenarios:fleet_storm",
            {"n_nodes": size, "mtbf_s": 400.0, "repair_s": 50.0,
             "model": "weibull" if seed % 2 else "exp"},
            seed, n_shards=shards, horizon_ns=1800 * NS_PER_S,
            window_ns=30 * NS_PER_S, workers=workers,
            meta={"experiment": "prop-storm", "seed": seed, "size": size},
        )
    if scenario == "restart":
        prop = 2_000_000
        return run_parallel(
            "repro.cluster.scenarios:fleet_restart_traffic",
            {"n_nodes": size, "mtbf_s": 300.0, "repair_s": 60.0,
             "n_servers": 3, "image_bytes": 1 << 18,
             "propagation_ns": prop, "service_floor_ns": 4_000_000,
             "ns_per_byte": 0.05},
            seed, n_shards=shards, horizon_ns=600 * NS_PER_S,
            lookahead_ns=prop, workers=workers,
            meta={"experiment": "prop-restart", "seed": seed, "size": size},
        )
    hop = 50 * NS_PER_US
    return run_parallel(
        "repro.cluster.scenarios:ring_traffic",
        {"n_ranks": size, "hop_ns": hop, "hops": 5, "msgs_per_rank": 2},
        seed, n_shards=shards, horizon_ns=NS_PER_S,
        lookahead_ns=hop, workers=workers,
        meta={"experiment": "prop-ring", "seed": seed, "size": size},
    )


class TestByteIdentity:
    @settings(deadline=None, max_examples=12)
    @given(scenario=SCENARIOS,
           seed=st.integers(min_value=0, max_value=2**31),
           size=st.integers(min_value=8, max_value=96))
    def test_folded_export_independent_of_shard_count(
            self, scenario, seed, size):
        docs = {s: _run(scenario, seed, size, s).obs_json
                for s in (1, 2, 4)}
        assert docs[1] == docs[2] == docs[4]

    def test_ring_digest_and_exactly_once_across_shards(self):
        results = {}
        for shards in (1, 3):
            res = _run("ring", 23, 30, shards)
            digest = 0
            for r in res.shard_results:
                digest ^= r["digest"]
            c = res.obs["metrics"]["counters"]
            results[shards] = (digest, c["ring.sent"], c["ring.recv"])
        assert results[1] == results[3]
        digest, sent, recv = results[3]
        assert sent == recv > 0

    def test_process_backend_matches_local(self):
        local = _run("restart", 31, 24, 4, workers=1)
        procs = _run("restart", 31, 24, 4, workers=2)
        assert (local.transport, procs.transport) == ("local", "pipe")
        assert procs.obs_json == local.obs_json
        assert procs.shard_results == local.shard_results

    def test_stopped_run_with_envelopes_in_flight(self):
        """A stop-flag run ends with a routed, undelivered barrier batch:
        the stop path delivers it the same way at every topology."""
        prop = 2_000_000

        def stopped(shards, workers):
            return run_parallel(
                "repro.cluster.scenarios:fleet_restart_traffic",
                {"n_nodes": 64, "mtbf_s": 300.0, "repair_s": 60.0,
                 "n_servers": 3, "image_bytes": 1 << 18,
                 "propagation_ns": prop, "service_floor_ns": 4_000_000,
                 "ns_per_byte": 0.05, "stop_on_first_failure": True},
                7, n_shards=shards, horizon_ns=600 * NS_PER_S,
                lookahead_ns=prop, workers=workers,
                meta={"experiment": "stopped-restart", "seed": 7},
            )

        runs = [stopped(1, 1), stopped(4, 1), stopped(4, 2)]
        for res in runs:
            assert res.stats.stopped
            assert res.stats.window_exchanges[-1] > 0
        assert runs[0].obs_json == runs[1].obs_json == runs[2].obs_json

    def test_single_shard_requires_no_lookahead(self):
        res = run_parallel(
            "repro.cluster.scenarios:fleet_storm",
            {"n_nodes": 16, "mtbf_s": 200.0}, 3,
            n_shards=1, horizon_ns=600 * NS_PER_S,
            meta={"experiment": "solo", "seed": 3},
        )
        assert res.obs["metrics"]["counters"]["fleet.failures"] > 0
        # No channels, no window cap: one window to the horizon.
        assert res.stats.windows == 1

    def test_meta_carrying_shard_identity_rejected(self):
        from repro.errors import ObservabilityError
        from repro.obs import export_obs, fold_exports

        docs = []
        for sid in range(2):
            eng = Engine(seed=1)
            eng.count("x")
            docs.append(export_obs(eng.metrics, meta={"shard": sid},
                                   now_ns=0))
        with pytest.raises(ObservabilityError, match="shard identity"):
            fold_exports(docs)


# ----------------------------------------------------------------------
# Process backend: worker failure and the transport keyword
# ----------------------------------------------------------------------
def _ring_group():
    hop = 50 * NS_PER_US
    return ProcessShardGroup(
        "repro.cluster.scenarios:ring_traffic",
        {"n_ranks": 12, "hop_ns": hop, "hops": 5, "msgs_per_rank": 2}, 5,
        n_shards=3, lookahead_ns=hop, workers=2,
    )


class TestProcessBackend:
    def test_killed_worker_raises_named_error(self):
        group = _ring_group()
        try:
            group.status_all()  # workers are alive and answering
            victim = group._procs[1]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(WorkerDiedError) as exc_info:
                for _ in range(3):  # send may outlive the pipe buffer
                    group.window_all(NS_PER_S, {})
            err = exc_info.value
            assert err.worker == 1
            assert err.shards == [1]  # shard 1 is round-robin worker 1
            assert "shards [1]" in str(err)
        finally:
            group.close()

    def test_hung_worker_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(runner_parallel, "_REPLY_DEADLINE_S", 1.0)
        group = _ring_group()
        try:
            group.status_all()  # workers are alive and answering
            os.kill(group._procs[1].pid, signal.SIGSTOP)
            with pytest.raises(WorkerHungError) as exc_info:
                group.window_all(NS_PER_S, {})
            err = exc_info.value
            assert err.worker == 1
            assert err.shards == [1]
            assert "shards [1]" in str(err)
        finally:
            t0 = time.monotonic()
            group.close()
        assert time.monotonic() - t0 < 5.0

    def test_one_round_trip_per_window(self, monkeypatch):
        sent = []
        send = ProcessShardGroup._send

        def counting_send(self, w, msg):
            sent.append(msg[0])
            return send(self, w, msg)

        monkeypatch.setattr(ProcessShardGroup, "_send", counting_send)
        res = _run("ring", 5, 12, 3, workers=2)
        assert not res.stats.stopped
        # One window_all per barrier window plus the horizon park.
        assert sent.count("window_all") == 2 * (res.stats.windows + 1)
        assert "deliver_all" not in sent

    def test_pipe_matches_local(self):
        local = _run("ring", 5, 12, 3, workers=1)
        procs = _run("ring", 5, 12, 3, workers=2)
        assert (local.transport, procs.transport) == ("local", "pipe")
        assert procs.obs_json == local.obs_json
        assert procs.shard_results == local.shard_results
        assert (procs.stats.windows, procs.stats.exchanged,
                procs.stats.events) == (local.stats.windows,
                                        local.stats.exchanged,
                                        local.stats.events)

    def test_barrier_metrics_carried_by_pipe_frame(self):
        procs = _run("ring", 5, 12, 3, workers=2)
        # The barrier histograms hold one entry per window.
        h = procs.barrier_obs["histograms"]
        assert h["parallel.window_exchange"]["count"] == procs.stats.windows
        assert h["parallel.window_span_ns"]["count"] == procs.stats.windows

    def test_exit_leaves_no_error(self):
        group = _ring_group()
        group.status_all()
        group.close()  # clean shutdown path

    def test_unknown_transport_rejected(self):
        with pytest.raises(ParallelError, match="unknown transport"):
            run_parallel("repro.cluster.scenarios:fleet_storm",
                         {"n_nodes": 4, "mtbf_s": 100.0}, 1,
                         n_shards=2, horizon_ns=10**9, workers=2,
                         transport="shm")
