"""Statistics helpers of the benchmark: medians, quartiles, the tail
percentile rule and rate conversions. Standard library only."""

import statistics

# A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run spread a metric's bound must exceed."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / abs(mid)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, count). With n sorted samples that is the
    sample at 0-based rank n - beyond - 1, at percentile 100 * (rank + 1)
    / n. When so few samples exist that this rank would fall below the
    median, no tail can be told apart from the centre: the median is
    returned, at percentile 50.
    """
    if not values:
        raise ValueError("tail of no values")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond - 1
    if rank < (n - 1) / 2:
        return median(ordered), 50.0, n
    return ordered[rank], 100.0 * (rank + 1) / n, n


def best_per_index(series):
    """Element-wise minimum of equally long sequences: the fastest of
    repeated runs of the same work, step by step. Interference from the
    rest of the host only adds time, so the fastest run of a step is its
    least disturbed one."""
    if not series:
        raise ValueError("best of no series")
    if len({len(s) for s in series}) != 1:
        raise ValueError("series of different lengths")
    return [min(column) for column in zip(*series)]


def rate_per_s(count, ns):
    """Events per second from an event count and a duration in ns."""
    if ns <= 0:
        raise ValueError("rate over a non-positive duration")
    return count / (ns / 1e9)


def per(count, base):
    """count / base, or 0 where the base is 0 (a layer the workload does
    not exercise)."""
    return count / base if base else 0.0
