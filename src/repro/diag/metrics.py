"""A lightweight counter/gauge registry with latency histograms.

Passes and the interpreter publish named values (``promotion.tags_promoted``,
``interp.total_ops``) into the active registry; the runner serializes the
snapshot into ``suite.json`` per experiment cell, and :mod:`repro.diag.drift`
compares snapshots across suite runs.  The server holds one long-lived
registry: serving counters (``serve.requests``, ``serve.cache_hits``, ...)
plus per-op latency histograms that the ``metrics`` endpoint reports as
p50/p95/p99.  Histograms are kept apart from counters and gauges, so
:meth:`MetricsRegistry.as_dict` — the per-cell snapshot — never carries
them.

Same zero-cost-when-off contract as the ledger and telemetry: the module
helpers :func:`inc_metric`/:func:`set_gauge` no-op unless a
:func:`metrics_session` is active, so instrumentation stays unconditional.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "BUCKET_BOUNDS",
    "LatencyHistogram",
    "MetricsRegistry",
    "current_registry",
    "inc_metric",
    "metrics_session",
    "nearest_rank",
    "set_gauge",
]

#: upper bounds (seconds) of the histogram buckets, log-spaced so one
#: layout covers both a sub-millisecond warm-cache hit and a cold
#: multi-second compile; a final +inf bucket catches everything beyond
BUCKET_BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class LatencyHistogram:
    """Fixed-bucket histogram with quantiles interpolated within the
    containing bucket: constant memory regardless of traffic."""

    __slots__ = ("counts", "count", "total", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        index = 0
        for bound in BUCKET_BOUNDS:
            if seconds <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def quantile(self, q: float) -> float:
        """The latency (seconds) at quantile ``q`` in ``[0, 1]``."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS)
                    else self.max
                )
                upper = max(upper, lower)
                fraction = (target - previous) / bucket_count
                return min(lower + (upper - lower) * fraction, self.max)
        return self.max

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": round(self.total / self.count * 1000, 3)
            if self.count
            else 0.0,
            "p50_ms": round(self.quantile(0.50) * 1000, 3),
            "p95_ms": round(self.quantile(0.95) * 1000, 3),
            "p99_ms": round(self.quantile(0.99) * 1000, 3),
            "max_ms": round(self.max * 1000, 3),
        }


def nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of already-sorted samples by nearest rank (no
    interpolation); ``0.0`` for no samples."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


class MetricsRegistry:
    """Flat name -> number mapping with counter and gauge semantics, plus
    named latency histograms."""

    def __init__(self) -> None:
        self.values: dict[str, int | float] = {}
        self.histograms: dict[str, LatencyHistogram] = {}

    def inc(self, name: str, delta: int | float = 1) -> None:
        self.values[name] = self.values.get(name, 0) + delta

    def set_gauge(self, name: str, value: int | float) -> None:
        self.values[name] = value

    def get(self, name: str, default: int | float = 0) -> int | float:
        return self.values.get(name, default)

    def histogram(self, name: str) -> LatencyHistogram:
        """The histogram called ``name``, created empty on first use."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LatencyHistogram()
        return histogram

    def observe(self, name: str, seconds: float) -> None:
        self.histogram(name).observe(seconds)

    def as_dict(self) -> dict[str, int | float]:
        """Counters and gauges, sorted by name; histograms are not included."""
        return {name: self.values[name] for name in sorted(self.values)}

    def __len__(self) -> int:
        return len(self.values)


_CURRENT: MetricsRegistry | None = None


def current_registry() -> MetricsRegistry | None:
    return _CURRENT


@contextmanager
def metrics_session() -> Iterator[MetricsRegistry]:
    """Install a fresh registry as the current one for the duration."""
    global _CURRENT
    previous = _CURRENT
    registry = MetricsRegistry()
    _CURRENT = registry
    try:
        yield registry
    finally:
        _CURRENT = previous


def inc_metric(name: str, delta: int | float = 1) -> None:
    """Add to a counter on the active registry; no-op when none is."""
    registry = _CURRENT
    if registry is not None:
        registry.inc(name, delta)


def set_gauge(name: str, value: int | float) -> None:
    """Set a gauge on the active registry; no-op when none is."""
    registry = _CURRENT
    if registry is not None:
        registry.set_gauge(name, value)
