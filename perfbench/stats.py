"""The benchmark's own arithmetic: percentiles, due-time latency, shares.

Kept free of any ``repro`` import so the tests of this arithmetic run
without the program under test.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

# percentiles a tail metric may use, highest first
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact order statistic at percentile ``q`` (inverted CDF).

    The same rule as ``numpy.percentile(..., method="inverted_cdf")`` and
    ``ServiceMetrics``: the smallest sample whose empirical CDF reaches
    ``q/100``, so every reported value is a latency that occurred.
    ``inf`` samples (failed requests) sort last.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q`` order statistic."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_level(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Never below the median: a sample too small for any tail reports its
    median (and the sample count says how little backs it).
    """
    for q in TAIL_LADDER:
        if beyond(count, q) >= MIN_BEYOND:
            return q
    return 50.0


def due_latencies(
    due: Sequence[float], done: Sequence[float | None]
) -> list[float]:
    """Open-loop latency of each request, timed from when it was *due*.

    A request that failed or never finished (``done`` is ``None``) counts
    as infinitely late, so it misses every limit.  Timing from the due
    time, not the send time, charges a stalled generator's lag to the
    requests it delayed.
    """
    if len(due) != len(done):
        raise ValueError("due and done must align")
    return [math.inf if d is None else d - t for t, d in zip(due, done)]


def share_within(latencies: Sequence[float], limit: float) -> float:
    """Share of requests sent that finished within ``limit``."""
    if not latencies:
        raise ValueError("share of an empty sample")
    return sum(1 for x in latencies if x <= limit) / len(latencies)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) / median of repeated runs, as ``statistics.quantiles`` gives them."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
