"""Order statistics shared by the benchmark runner and the compare tool."""

from __future__ import annotations

import statistics

# The tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values):
    """Return (value, percentile) of the highest percentile with TAIL_BEYOND samples beyond.

    With N sorted samples that is the (TAIL_BEYOND + 1)-th largest, at
    percentile 100 * (N - TAIL_BEYOND) / N.  Fewer than TAIL_BEYOND + 1
    samples have no such percentile, and the result is None.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
