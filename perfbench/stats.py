"""Order statistics the benchmark reports: medians, quartiles, tail percentiles."""

from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only with at least this many items beyond it
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule on sorted values."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: list[float], want: int = 90) -> tuple[int, float, int]:
    """(percentile, value, items beyond it) for the highest percentile <= want
    that leaves at least MIN_BEYOND items beyond it.

    With too few items for any such percentile, the median is returned with
    the count actually beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    pct = want
    while pct > 50 and n - math.ceil(pct / 100.0 * n) < MIN_BEYOND:
        pct -= 1
    return pct, nearest_rank(ordered, pct), n - max(1, math.ceil(pct / 100.0 * n))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
