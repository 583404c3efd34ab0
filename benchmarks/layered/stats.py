"""Statistics shared by the harness, the comparer and the tests.

Everything here is pure arithmetic over lists of numbers, so the
rules the benchmark reports by (which percentile counts as "the
tail", how a rate is made robust against a slow phase of the sandbox,
what "spread" means) are testable without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["block_rate", "compare_metric", "percentile", "spread",
           "tail_percentile"]

#: a rate is the median over about this many consecutive blocks of ops
RATE_BLOCKS = 10


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    30 samples give p66, 200 give p95; below 20 samples no percentile
    above the median qualifies and the tail *is* the median (50).
    """
    if n < 20:
        return 50
    return max(50, int(100 * (n - 10) / n))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def block_rate(latencies_s: Sequence[float], weights: Sequence[float],
               clients: int = 1) -> float:
    """Work per second, as the median over consecutive blocks of ops.

    ``latencies_s[i]`` is op *i*'s wall time (failed ops included:
    their time stays in the wall) and ``weights[i]`` the work it
    delivered (1 per verified op, its event count for events/s, 0 for
    a failed op).  ``clients`` closed-loop callers run side by side,
    so a block's wall is the sum of its latencies over ``clients``.
    The sandbox slows down for seconds at a time; the median over
    ~10 blocks ignores a slow phase shorter than half the run, where
    total/wall would absorb it.
    """
    n = len(latencies_s)
    if n == 0 or n != len(weights):
        raise ValueError("need one weight per latency, and at least one")
    size = max(1, n // RATE_BLOCKS)
    rates = []
    for lo in range(0, n - size + 1, size):
        # the last block takes the rest
        hi = n if lo + 2 * size > n else lo + size
        wall = sum(latencies_s[lo:hi]) / clients
        if wall > 0:
            rates.append(sum(weights[lo:hi]) / wall)
    return statistics.median(rates) if rates else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


#: fewer runs than this on either side never show a gain
MIN_RUNS_FOR_GAIN = 3


def compare_metric(base: Sequence[float], change: Sequence[float],
                   better: str, bound: float) -> dict:
    """Judge ``change`` against ``base`` for one metric on one workload.

    ``better`` only when each side has at least three runs, every run
    of the change beats every run of the base and the medians differ
    by more than the base's own quartile distance; otherwise
    ``unresolved`` when either side's spread is wider than the bound,
    ``worse`` when the change's median is worse than the base's by more
    than the bound, else ``within-bound``.
    """
    m_base, m_change = statistics.median(base), statistics.median(change)
    ratio = m_change / m_base if m_base else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (m_change - m_base) / abs(m_base) if m_base else 0.0
    if better == "lower":
        every_run_wins = max(change) < min(base)
    else:
        every_run_wins = min(change) > max(base)
    wide = max(spread(base), spread(change))
    if (every_run_wins and -worse_by > spread(base)
            and min(len(base), len(change)) >= MIN_RUNS_FOR_GAIN):
        verdict = "better"
    elif wide > bound and not every_run_wins:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "within-bound"
    return {"base_median": m_base, "change_median": m_change,
            "ratio": ratio, "worse_by": worse_by, "spread": wide,
            "verdict": verdict}
