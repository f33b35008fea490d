"""Percentiles and spreads used by the run and the steadiness report."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The value at rank ``ceil(q/100 * n)`` of the sorted sample: always a
    measured value, never an interpolation between two latency modes.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


#: percentile points above and below ``q`` that ``mode_edge`` compares.
EDGE_WINDOW = 3.0


def mode_edge(values, q: float) -> float:
    """How steep the sample is around its ``q``-th percentile.

    The ratio of the percentiles ``EDGE_WINDOW`` points above and below
    ``q``.  Near 1 the percentile sits inside one latency mode; a large
    ratio means it sits in the gap between two modes, where a small
    change of the mix's shares would move it a long way.
    """
    low = percentile(values, max(q - EDGE_WINDOW, 1e-9))
    high = percentile(values, min(q + EDGE_WINDOW, 100))
    return high / low if low else math.inf
