"""Shard-invariant scenario factories for the parallel runner.

A *scenario factory* builds one shard's slice of a cluster experiment
against a :class:`~repro.simkernel.parallel.ShardContext`::

    scenario = factory(ctx, params, seed)

and returns an object the window driver polls:

* ``stop()`` (optional) -- evaluated at window barriers; when any shard
  raises it, every shard parks at the same barrier instant;
* ``result()`` (optional) -- a small JSON-able summary the runner
  collects per shard (fold per-shard results with plain min/sum/xor;
  everything byte-identity-gated goes through the obs export instead).

Factories here are module-level functions so the process backend can
ship them to workers as ``"repro.cluster.scenarios:fleet_storm"``
dotted names -- nothing un-picklable crosses a pipe.

Every factory obeys the determinism contract of
:mod:`repro.simkernel.parallel`: state is built from per-node
counter-based RNG streams, partitioning follows
:func:`~repro.cluster.partition.shard_range`, and every cross-machine
interaction goes through ``ctx.send``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import ClusterError
from ..simkernel.parallel import ShardContext
from ..stablestore.shardsvc import ShardStorageService
from .failures import ExponentialFailures, WeibullFailures
from .partition import shard_of, shard_range
from .shardfleet import ShardFleet

__all__ = ["fleet_storm", "fleet_restart_traffic", "ring_traffic"]

_MASK64 = (1 << 64) - 1


def _build_model(params: Dict[str, Any], seed: int):
    kind = params.get("model", "exp")
    mtbf_s = float(params["mtbf_s"])
    if kind == "exp":
        return ExponentialFailures(mtbf_s, stream_seed=seed)
    if kind == "weibull":
        return WeibullFailures(
            mtbf_s, shape=float(params.get("shape", 0.7)), stream_seed=seed
        )
    raise ClusterError(f"unknown failure model {kind!r}")


class _FleetScenario:
    """Failure/repair churn over this shard's node range."""

    def __init__(self, ctx: ShardContext, params: Dict[str, Any], seed: int,
                 on_fail=None) -> None:
        self.ctx = ctx
        lo, hi = shard_range(ctx.shard_id, int(params["n_nodes"]),
                             ctx.n_shards)
        self.fleet = ShardFleet(
            ctx.engine,
            lo,
            hi,
            _build_model(params, seed),
            repair_s=float(params.get("repair_s", 300.0)),
            on_fail=on_fail,
        )
        self.stop_on_first_failure = bool(
            params.get("stop_on_first_failure", False))
        self.fleet.start()

    def stop(self) -> bool:
        return (self.stop_on_first_failure
                and self.fleet.first_failure_ns is not None)

    def result(self) -> Dict[str, Any]:
        return {
            "failures": self.fleet.failures,
            "repairs": self.fleet.repairs,
            "downtime_ns": self.fleet.downtime_ns,
            "first_failure_ns": self.fleet.first_failure_ns,
            "up": self.fleet.up_count(),
        }


def fleet_storm(ctx: ShardContext, params: Dict[str, Any],
                seed: int) -> _FleetScenario:
    """Pure failure/repair churn -- the E12 workhorse.

    ``params``: ``n_nodes``, ``mtbf_s``, optional ``repair_s``,
    ``model`` (``"exp"``/``"weibull"``), ``shape``,
    ``stop_on_first_failure``.  No cross-shard channels: windows exist
    only to give the stop flag a deterministic sampling grid.
    """
    return _FleetScenario(ctx, params, seed)


class _RestartTrafficScenario(_FleetScenario):
    """Fleet churn where every failure triggers a restart-image fetch
    from the sharded stable-storage tier."""

    def __init__(self, ctx: ShardContext, params: Dict[str, Any],
                 seed: int) -> None:
        self.n_nodes = int(params["n_nodes"])
        self.image_bytes = int(params.get("image_bytes", 1 << 26))
        self.store = ShardStorageService(
            ctx,
            n_servers=int(params.get("n_servers", 8)),
            propagation_ns=int(params["propagation_ns"]),
            service_floor_ns=int(params.get("service_floor_ns", 0)),
            ns_per_byte=float(params.get("ns_per_byte", 0.0)),
        )
        super().__init__(ctx, params, seed, on_fail=self._on_fail)

    def _on_fail(self, global_ids, times) -> None:
        for node in global_ids.tolist():
            # Restart image placement is content-addressed elsewhere; for
            # the traffic model a deterministic spread over servers is all
            # that matters.
            self.store.request(
                server_id=node % self.store.n_servers,
                nbytes=self.image_bytes,
                client=node,
                client_shard=shard_of(node, self.n_nodes, self.ctx.n_shards),
            )

    def result(self) -> Dict[str, Any]:
        out = super().result()
        out["acked"] = self.store.acked()
        return out


def fleet_restart_traffic(ctx: ShardContext, params: Dict[str, Any],
                          seed: int) -> _RestartTrafficScenario:
    """Fleet churn plus storage restart traffic -- the E18 workhorse.

    Adds ``n_servers``, ``image_bytes``, ``propagation_ns`` (the
    lookahead source), ``service_floor_ns``, ``ns_per_byte`` to the
    :func:`fleet_storm` parameters.
    """
    return _RestartTrafficScenario(ctx, params, seed)


def _mix(value: int) -> int:
    """Scalar splitmix64 step for ring message payloads."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _RingScenario:
    """Message ring over all ranks: each rank launches pings that hop
    around the ring, every hop crossing the barrier exchange.

    The order-invariant xor digest over received values is the
    exactly-once check: it matches between shard counts only when every
    message is delivered exactly once with an identical payload.
    """

    KIND = "ring.msg"

    def __init__(self, ctx: ShardContext, params: Dict[str, Any],
                 seed: int) -> None:
        self.ctx = ctx
        self.n_ranks = int(params["n_ranks"])
        self.hop_ns = int(params["hop_ns"])
        self.hops = int(params.get("hops", 4))
        self.msgs_per_rank = int(params.get("msgs_per_rank", 1))
        self.spacing_ns = int(params.get("spacing_ns", self.hop_ns))
        self.digest = 0
        self.sent = ctx.engine.metrics.counter("ring.sent")
        self.recv = ctx.engine.metrics.counter("ring.recv")
        ctx.on(self.KIND, self._on_msg)
        lo, hi = shard_range(ctx.shard_id, self.n_ranks, ctx.n_shards)
        for rank in range(lo, hi):
            for m in range(self.msgs_per_rank):
                at = (m * self.n_ranks + rank + 1) * self.spacing_ns
                value = _mix(seed & _MASK64 ^ _mix(rank) ^ _mix(m))
                ctx.engine.at_anon(
                    at,
                    lambda r=rank, v=value: self._launch(r, v),
                )

    def _forward(self, src_rank: int, value: int, hops_left: int) -> None:
        dst = (src_rank + 1) % self.n_ranks
        self.sent.inc()
        self.ctx.send(
            self.KIND,
            {"dst": dst, "value": value, "hops_left": hops_left},
            delay_ns=self.hop_ns,
            dst_shard=shard_of(dst, self.n_ranks, self.ctx.n_shards),
        )

    def _launch(self, rank: int, value: int) -> None:
        self._forward(rank, value, self.hops - 1)

    def _on_msg(self, payload: Dict[str, Any]) -> None:
        self.recv.inc()
        self.digest ^= payload["value"]
        self.ctx.engine.metrics.observe("ring.hop_ns", self.hop_ns)
        if payload["hops_left"] > 0:
            self._forward(payload["dst"], _mix(payload["value"]),
                          payload["hops_left"] - 1)

    def stop(self) -> bool:
        return False

    def result(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "sent": self.sent.value,
            "recv": self.recv.value,
        }


def ring_traffic(ctx: ShardContext, params: Dict[str, Any],
                 seed: int) -> _RingScenario:
    """All-cross-shard message ring -- the E22 stressor.

    ``params``: ``n_ranks``, ``hop_ns`` (the lookahead), optional
    ``hops``, ``msgs_per_rank``, ``spacing_ns``.  Fold per-shard
    digests with xor; ``sum(sent) == sum(recv)`` iff delivery was
    exactly-once and the horizon covered every hop.
    """
    return _RingScenario(ctx, params, seed)
