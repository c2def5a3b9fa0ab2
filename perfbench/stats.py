"""Order statistics shared by the runner and the compare table."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a latency may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: Samples a percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def supported_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least ten of ``n``
    samples beyond it, or ``None`` when even the median has fewer."""
    for p in PERCENTILES:
        # Round before flooring: 1000 * (1 - 0.99) is 9.999... in floats.
        if math.floor(round(n * (100.0 - p) / 100.0, 9)) >= MIN_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (not interpolated,
    so the reported latency is one that a request really saw)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = math.ceil(round(p / 100.0 * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; the quartiles as ``statistics.quantiles``
    gives them (a single value is its own quartiles)."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
