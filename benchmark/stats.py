"""The benchmark's statistics: medians, quartiles, the highest percentile a
sample supports, and ratios that keep their base."""

import math
import statistics

# Percentiles a timing may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(xs):
    """Median of a non-empty sample."""
    return statistics.median(xs)


def quartiles(xs):
    """(first quartile, median, third quartile), as
    `statistics.quantiles(xs, n=4)` gives them; a one-value sample is its
    own quartiles."""
    xs = list(xs)
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def spread(xs):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = quartiles(xs)
    return (q3 - q1) / median(xs)


def high_percentile(xs, beyond=10):
    """The highest percentile of PERCENTILES with at least `beyond` samples
    above it, as `(percentile, value)` by the nearest-rank rule, or None
    when the sample is too small for even the median."""
    xs = sorted(xs)
    n = len(xs)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            return (p, xs[rank - 1])
    return None


def ratio(value, base):
    """`value / base` together with its base, or None when the base is 0."""
    if base == 0:
        return None
    return {"value": value / base, "base": base}
