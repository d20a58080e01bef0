"""Order statistics for per-item latencies."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10      # samples that must lie beyond the reported tail percentile
TAIL_CAP = 99.0       # never report beyond p99


def tail(latencies) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile, at
    most p99, with at least TAIL_BEYOND samples strictly after it in sorted
    order.  With fewer than TAIL_BEYOND + 1 samples the maximum is returned
    and the count beyond it is 0."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latencies")
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    index = min(n - 1 - TAIL_BEYOND, math.ceil(n * TAIL_CAP / 100) - 1)
    return min(TAIL_CAP, 100.0 * (index + 1) / n), ordered[index], n - 1 - index


def mean_of_medians(by_item) -> float:
    """Mean over items of each item's median across its repeats.

    Every item of the pool weighs the same, so a change that slows only
    some of the items moves the result in proportion.
    """
    medians = [median(repeats) for repeats in by_item.values() if repeats]
    if not medians:
        raise ValueError("no latencies")
    return statistics.fmean(medians)


def median(values) -> float:
    return statistics.median(values)
