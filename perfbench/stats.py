"""Percentiles of latency samples, by the nearest-rank rule.

A percentile is only reported when it is a tail: at least ``MIN_BEYOND``
samples must lie above it. For p95 that means 200 samples or more.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than its tail rule needs."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank ``q`` percentile."""
    return n - math.ceil(q / 100.0 * n)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it.

    Raises ``TooFewSamples`` when fewer than ``MIN_BEYOND`` samples lie above
    it (the median only needs one sample).
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    if q > 50.0 and samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it, "
            f"needs {MIN_BEYOND}"
        )
    return ordered[math.ceil(q / 100.0 * n) - 1]

