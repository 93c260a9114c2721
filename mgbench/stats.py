"""Summary statistics shared by the workloads and the steadiness tool."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that still
    has :data:`TAIL_BEYOND` samples beyond it.

    That is the 11th-largest sample, at percentile ``100 (n - 10) / n``;
    with few samples it sits low (p50 for 20 samples).  With 10 samples
    or fewer no percentile qualifies, and the maximum (percentile 100)
    is reported.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and inter-quartile range as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` — the method the
    benchmark's acceptance check uses.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
    }
