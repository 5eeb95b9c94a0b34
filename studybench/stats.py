"""Summary statistics for the study benchmark.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_TAIL` samples beyond it, together with the
sample count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]).

    Returns 0.0 for an empty sequence: a layer the workload bypasses
    made no calls, and its per-call time is reported as zero.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest reportable percentile for ``count`` samples.

    A percentile ``p`` is reportable when at least :data:`MIN_TAIL`
    samples lie beyond it, i.e. ``count * (1 - p/100) >= MIN_TAIL``.
    ``None`` when not even the median qualifies.
    """
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= MIN_TAIL - 1e-9:
            return pct
    return None


def tail_summary(samples: Sequence[float]) -> Tuple[Optional[float],
                                                     float, int]:
    """``(percentile, value, sample count)`` under the tail rule."""
    pct = tail_percentile(len(samples))
    value = percentile(samples, pct) if pct is not None else 0.0
    return pct, value, len(samples)


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(samples))
