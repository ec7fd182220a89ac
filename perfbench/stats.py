"""Order statistics shared by the runner, the workloads and compare."""

from __future__ import annotations

import math
import statistics

#: half-width, in quantile, of the rank window a percentile averages
PERCENTILE_WINDOW = 0.02


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) as the mean of the values ranked within
    ``PERCENTILE_WINDOW`` of it (narrower near the ends).

    Operation times come in clusters (one cluster per program or per
    function), and a single order statistic that falls in the gap
    between two clusters jumps from one to the other on noise a
    thousandth its size; averaging the neighbouring ranks makes it move
    smoothly instead.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    width = min(PERCENTILE_WINDOW, q / 2, (1 - q) / 2)
    last = len(ordered) - 1
    low = math.floor((q - width) * last)
    high = math.ceil((q + width) * last)
    return statistics.fmean(ordered[low:high + 1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when there is no base."""
    return numerator / denominator if denominator else 0.0
