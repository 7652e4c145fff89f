"""Order statistics shared by the workloads, the trace and the compare mode."""

from __future__ import annotations

import math
import statistics

#: tail percentiles tried from the highest down; see ``tail``
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a percentile before it may be reported
TAIL_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, min(n, math.ceil(q / 100.0 * n - 1e-9)))
    return sorted_values[rank - 1]


def tail(values):
    """(value, percentile) of the highest ladder percentile that has at least
    ``TAIL_BEYOND`` samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples no percentile above the median
    qualifies, and the median is reported under percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_BEYOND:
            return percentile(ordered, q), q
    return statistics.median(ordered), 50.0
