"""Order statistics shared by the runner, the comparison and the self-tests."""

from __future__ import annotations

import math
import statistics

TAIL_SAMPLES = 10  # samples a reported tail percentile keeps beyond it


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, pct):
    """How many of n samples lie above the nearest-rank pct percentile."""
    return n - max(1, math.ceil(pct / 100 * n))


def min_samples(pct):
    """Fewest samples for which the pct percentile keeps TAIL_SAMPLES
    samples beyond it."""
    n = TAIL_SAMPLES + 1
    while samples_beyond(n, pct) < TAIL_SAMPLES:
        n += 1
    return n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
