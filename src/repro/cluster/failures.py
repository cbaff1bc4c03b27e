"""Failure processes and MTBF arithmetic.

The paper's motivating arithmetic (Section 1): "because of the
extraordinarily large component count of such machines -- for instance,
the IBM BlueGene/L supercomputer currently under construction will have
65,536 nodes -- their mean time between failures (MTBF) may be orders of
magnitude shorter than the execution times of the applications they are
intended to run."  Experiment E12 reproduces exactly that scaling.

Failures are *fail-stop* [33]: a failed node halts detectably and takes
its processes (and local disk availability) with it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ClusterError

__all__ = [
    "FailureModel",
    "ExponentialFailures",
    "WeibullFailures",
    "system_mtbf_s",
    "p_survive",
]


def system_mtbf_s(node_mtbf_s: float, n_nodes: int) -> float:
    """System MTBF when any of ``n_nodes`` failing is fatal.

    With independent exponential node lifetimes the system failure
    process is Poisson with rate ``n / node_mtbf``.
    """
    if n_nodes < 1:
        raise ClusterError("need at least one node")
    return node_mtbf_s / n_nodes


def p_survive(duration_s: float, node_mtbf_s: float, n_nodes: int) -> float:
    """Probability an ``n_nodes`` job runs ``duration_s`` with no failure."""
    lam = n_nodes / node_mtbf_s
    return math.exp(-lam * duration_s)


#: Splitmix64 constants for the counter-based per-node streams.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_NODE_SALT = np.uint64(0xD1B54A32D192ED03)
_DRAW_SALT = np.uint64(0x8CB92BA72F3D8DD7)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finisher (full avalanche on uint64)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def indexed_uniforms(
    stream_seed: int, node_ids: np.ndarray, draw_index: np.ndarray
) -> np.ndarray:
    """Counter-based uniforms: draw ``i`` of node ``j`` is a pure
    function of ``(stream_seed, j, i)``.

    This is the per-node RNG substream discipline the sharded fleet
    runs on: because a node's stream never depends on *which other
    nodes share its generator*, any partitioning of the cohort across
    shards reproduces the single-shard draws exactly -- no stream
    jumping, no draw-order coupling.  Values are in ``[0, 1)`` with 53
    bits of precision.
    """
    with np.errstate(over="ignore"):
        x = (
            np.uint64(stream_seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN
            ^ node_ids.astype(np.uint64) * _NODE_SALT
            ^ draw_index.astype(np.uint64) * _DRAW_SALT
        )
    return (_mix64(x) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


class FailureModel:
    """Base class: draws per-node times-to-failure (seconds).

    Every draw comes from the counter-based per-node streams
    (:meth:`draw_ttf_indexed`) keyed by ``stream_seed``, so a node's
    failure times never depend on which other nodes share an engine,
    a shard or a call.
    """

    def __init__(self, stream_seed: int = 0) -> None:
        self.stream_seed = int(stream_seed)

    def _indexed_u(self, node_ids: np.ndarray, draw_index: np.ndarray) -> np.ndarray:
        ids = np.asarray(node_ids, dtype=np.int64)
        idx = np.asarray(draw_index, dtype=np.int64)
        if idx.shape != ids.shape:
            idx = np.broadcast_to(idx, ids.shape)
        return indexed_uniforms(self.stream_seed, ids, idx)

    def draw_ttf_indexed(
        self, node_ids: np.ndarray, draw_index: np.ndarray
    ) -> np.ndarray:
        """Times-to-failure from the counter-based per-node streams.

        ``draw_index[k]`` selects which draw of node ``node_ids[k]``'s
        private stream to take (0 for the initial arming, 1 after the
        first repair, ...); a scalar index applies to every node.
        Shard-partitioning the ids in any way
        reproduces the exact same values, which is the property the
        1-vs-N-shard byte-identity gate rests on.
        """
        raise NotImplementedError


class ExponentialFailures(FailureModel):
    """Memoryless node failures with the given MTBF."""

    def __init__(self, mtbf_s: float, stream_seed: int = 0) -> None:
        super().__init__(stream_seed)
        if mtbf_s <= 0:
            raise ClusterError("MTBF must be positive")
        self.mtbf_s = mtbf_s

    def draw_ttf_indexed(
        self, node_ids: np.ndarray, draw_index: np.ndarray
    ) -> np.ndarray:
        """Inverse-CDF exponential on the per-node uniform streams."""
        u = self._indexed_u(node_ids, draw_index)
        # -log1p(-u): exact for u in [0, 1), never log(0).
        return -self.mtbf_s * np.log1p(-u)


class WeibullFailures(FailureModel):
    """Weibull node failures (shape < 1: infant mortality, the empirically
    observed regime on large clusters)."""

    def __init__(
        self, mtbf_s: float, shape: float = 0.7, stream_seed: int = 0
    ) -> None:
        super().__init__(stream_seed)
        if mtbf_s <= 0 or shape <= 0:
            raise ClusterError("MTBF and shape must be positive")
        self.shape = shape
        # Scale chosen so the mean equals mtbf_s.
        self.scale = mtbf_s / math.gamma(1.0 + 1.0 / shape)
        self.mtbf_s = mtbf_s

    def draw_ttf_indexed(
        self, node_ids: np.ndarray, draw_index: np.ndarray
    ) -> np.ndarray:
        """Inverse-CDF Weibull on the per-node uniform streams."""
        u = self._indexed_u(node_ids, draw_index)
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)
