"""Medians, percentiles with enough samples behind them, quartile spread."""

from __future__ import annotations

import statistics

#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def low_quartile(values) -> float:
    """The sample a quarter of the way up: the fastest of up to four
    repetitions, the fifth fastest of twenty.

    Noise on a shared machine only ever adds time, and it comes in
    stretches of seconds: of three repetitions of one unit of work two
    often land in a slow stretch, so their median moves with the
    neighbours while their lower quartile stays at what the work costs
    undisturbed.  Used for every timed unit; see README "Steadiness".
    """
    s = sorted(values)
    return float(s[(len(s) - 1) // 4])


def highest_percentile(n: int) -> float:
    """The highest percentile of ``n`` samples that still has
    ``MIN_BEYOND`` samples beyond it (0 when ``n`` is too small)."""
    return max(0.0, 100.0 * (n - MIN_BEYOND) / n) if n else 0.0


def percentile(values, p: float) -> tuple[float, float]:
    """``(value, percentile used)``: the ``p``-th percentile, lowered to
    :func:`highest_percentile` when fewer than ``MIN_BEYOND`` samples lie
    beyond ``p`` — a tail read off two or three samples is noise."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    p = min(p, highest_percentile(len(s)))
    return float(s[min(len(s) - 1, int(p / 100.0 * len(s)))]), p


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract checks."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
