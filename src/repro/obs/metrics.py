"""Typed metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` holds every metric under a flat dotted name.
Metrics are created on first use and strongly typed from then on --
bumping a histogram as a counter raises
:class:`~repro.errors.ObservabilityError` instead of silently recording
garbage, as an untyped counters dict would.

Histograms use *fixed* bucket boundaries chosen at creation (by default
inferred from the metric name suffix: ``*_ns`` gets virtual-time
buckets, ``*_bytes``/``*bytes`` gets byte-size buckets), so two runs
that observe the same values always produce identical bucket vectors --
no adaptive resizing, no wall-clock dependence.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_NS_BUCKETS",
    "BYTES_BUCKETS",
    "GENERIC_BUCKETS",
    "DEPTH_BUCKETS",
]

#: Virtual-time buckets: 1us .. 100s in decades (values in ns).
TIME_NS_BUCKETS: Tuple[int, ...] = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
)

#: Byte-size buckets: one page .. 4 GiB.
BYTES_BUCKETS: Tuple[int, ...] = (
    4_096,
    65_536,
    1 << 20,
    16 << 20,
    256 << 20,
    4 << 30,
)

#: Fallback for dimensionless histograms: powers of ten.
GENERIC_BUCKETS: Tuple[int, ...] = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)

#: Small-cardinality occupancy buckets for queue/pipeline depths
#: (``*_depth`` / ``*_inflight``): window sizes live in 1..~100.
DEPTH_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


class Counter:
    """Monotonic integer counter."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        """Add ``delta`` (may be any integer; monotonic by convention)."""
        self.value += delta

    def to_dict(self) -> int:
        """Export value (a plain int)."""
        return int(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-value-wins instantaneous measurement."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float, str]) -> None:
        """Record the current value (numbers, or a label-style string)."""
        self.value = value

    def to_dict(self) -> Union[int, float]:
        """Export value (a plain number)."""
        v = self.value
        return int(v) if isinstance(v, bool) else v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max summary.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[Union[int, float]]) -> None:
        if not buckets:
            raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
        bounds = tuple(sorted(buckets))
        if len(set(bounds)) != len(bounds):
            raise ObservabilityError(f"histogram {name!r} has duplicate bucket bounds")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[Union[int, float]] = None
        self.max: Optional[Union[int, float]] = None

    def observe(self, value: Union[int, float]) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Sequence[Union[int, float]]) -> None:
        """Record a batch of samples in one pass.

        Equivalent to calling :meth:`observe` once per value in order
        (the count/sum/min/max summary folds sequentially, so even
        float accumulation matches), but the bucket assignment is one
        vectorized ``searchsorted`` + ``bincount`` instead of a bisect
        per sample -- the batched-frame path the parallel window driver
        uses to avoid per-window histogram churn.
        """
        if not len(values):
            return
        arr = np.asarray(values)
        idx = np.searchsorted(np.asarray(self.buckets), arr, side="left")
        for i, c in enumerate(np.bincount(idx, minlength=len(self.counts))):
            if c:
                self.counts[i] += int(c)
        self.count += len(values)
        for v in values:
            self.sum += v
            if self.min is None or v < self.min:
                self.min = v
            if self.max is None or v > self.max:
                self.max = v

    @property
    def mean(self) -> float:
        """Arithmetic mean of observed samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Export the bucket vector and count/sum/min/max summary."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} sum={self.sum}>"


def default_buckets(name: str) -> Tuple[Union[int, float], ...]:
    """Bucket preset inferred from the metric-name suffix."""
    if name.endswith("_ns"):
        return TIME_NS_BUCKETS
    if name.endswith("bytes") or name.endswith("_bytes"):
        return BYTES_BUCKETS
    if name.endswith("_depth") or name.endswith("_inflight"):
        return DEPTH_BUCKETS
    return GENERIC_BUCKETS


_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Flat namespace of typed metrics, created on first use.

    Parameters
    ----------
    clock:
        Optional callable returning the current virtual time in ns; kept
        so exports can stamp the capture time without touching wall
        clocks.
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._clock = clock

    # ------------------------------------------------------------------
    def _get(self, name: str, cls, factory) -> _Metric:
        m = self._metrics.get(name)
        if m is None:
            m = factory()
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise ObservabilityError(
                f"metric {name!r} is a {m.kind}, not a {cls.kind}"
            )
        return m

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: Optional[Sequence[Union[int, float]]] = None
    ) -> Histogram:
        """Get or create the named histogram (fixed buckets, set once)."""
        return self._get(
            name,
            Histogram,
            lambda: Histogram(name, buckets if buckets is not None else default_buckets(name)),
        )

    # -- convenience recording ----------------------------------------
    def inc(self, name: str, delta: int = 1) -> None:
        """Bump the named counter."""
        self.counter(name).inc(delta)

    def set_gauge(self, name: str, value: Union[int, float, str]) -> None:
        """Set the named gauge."""
        self.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: Union[int, float],
        buckets: Optional[Sequence[Union[int, float]]] = None,
    ) -> None:
        """Record one sample into the named histogram."""
        self.histogram(name, buckets).observe(value)

    def observe_many(self, name: str, values: Sequence[Union[int, float]]) -> None:
        """Record a batch of samples into the named histogram."""
        self.histogram(name).observe_many(values)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        """The metric object under ``name`` (None when absent)."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Sorted metric names."""
        return sorted(self._metrics)

    def counters(self) -> Dict[str, int]:
        """name -> value for every counter (sorted by name)."""
        return {
            name: m.value
            for name, m in sorted(self._metrics.items())
            if isinstance(m, Counter)
        }

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Deterministic export: kind-grouped, name-sorted."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(self._metrics):
            m = self._metrics[name]
            out[m.kind + "s"][name] = m.to_dict()
        return out

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._metrics)} metrics>"

