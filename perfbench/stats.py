"""Order statistics with the benchmark's sample-size rule.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, the number would rest on a handful of outliers.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10
TAIL_PERCENTILE = 90.0


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - nearest_rank(n, q)


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile (0 < q <= 100)."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    return max(1, math.ceil(q / 100.0 * n))


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples beyond ``q``."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; raises when fewer than ``MIN_BEYOND``
    samples lie beyond it (the median needs only one sample)."""
    n = len(samples)
    if q != 50.0 and samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {min_samples_for(q)} samples for {MIN_BEYOND} beyond it, got {n}"
        )
    return sorted(samples)[nearest_rank(n, q) - 1]


def median(samples: Sequence[float]) -> float:
    """Middle value, averaging the two middle values for an even count."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0

