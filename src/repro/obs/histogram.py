"""Fixed-bucket latency histograms, recorded per span family.

A :class:`LatencyHistogram` is the classic monitoring primitive: a fixed
set of upper-bound buckets (log-spaced from 10us to 10s), a total count
and a running sum.  Observations are O(number of buckets) with no
allocation, so a histogram can sit on the hot span-close path of a
long-lived session without growing; percentiles (p50/p95/p99) are
estimated by linear interpolation inside the covering bucket -- the same
estimation Prometheus applies to ``_bucket`` series, computed locally.

A :class:`HistogramSet` keys histograms by **span family**: the span
name with run-specific indices collapsed (``stratum[3]`` ->
``stratum[*]``, ``round[17]`` -> ``round[*]``) and the evaluation
strategy folded into the ``evaluate`` family (``evaluate[compiled]``),
so per-strategy latencies are separable.  The set is fed by
:class:`~repro.obs.trace.TraceRecorder` as spans close (pass one via
``TraceRecorder(histograms=...)``) and rendered by
:func:`repro.obs.export.render_prometheus`.
"""

from __future__ import annotations

from bisect import bisect_left

#: Upper bucket bounds in seconds (log-spaced 10us .. 10s); observations
#: above the last bound land in the implicit +Inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def span_family(name: str, attrs: dict | None = None) -> str:
    """The histogram family a span belongs to.

    Indexed spans collapse (``stratum[3]`` -> ``stratum[*]``); the
    ``evaluate`` span splits per plan (``compiled``, ``vectorized``,
    ``naive``) so each gets its own latency distribution.
    """
    if name == "evaluate" and attrs and "strategy" in attrs:
        return f"evaluate[{attrs['strategy']}]"
    bracket = name.find("[")
    if bracket != -1 and name.endswith("]"):
        return name[:bracket] + "[*]"
    return name


class LatencyHistogram:
    """Counts of observations per fixed latency bucket."""

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    # -- estimation ------------------------------------------------------
    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), interpolated inside the covering bucket.

        The +Inf bucket is clamped to the largest finite bound; an empty
        histogram estimates 0.0.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                into = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * into
        return self.bounds[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum_s": round(self.sum, 6),
            "min_s": round(self.min, 6) if self.count else 0.0,
            "max_s": round(self.max, 6),
            "p50_s": round(self.p50, 6),
            "p95_s": round(self.p95, 6),
            "p99_s": round(self.p99, 6),
        }

    def __repr__(self) -> str:
        return f"LatencyHistogram(count={self.count}, p50={self.p50:.6f}s)"


class HistogramSet:
    """Latency histograms keyed by span family (one shared bucket layout)."""

    __slots__ = ("bounds", "histograms")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = bounds
        self.histograms: dict[str, LatencyHistogram] = {}

    def observe(self, family: str, seconds: float) -> None:
        histogram = self.histograms.get(family)
        if histogram is None:
            histogram = self.histograms[family] = LatencyHistogram(self.bounds)
        histogram.observe(seconds)

    def observe_span(self, name: str, attrs: dict, seconds: float) -> None:
        self.observe(span_family(name, attrs), seconds)

    def get(self, family: str) -> LatencyHistogram | None:
        return self.histograms.get(family)

    def families(self) -> list[str]:
        return sorted(self.histograms)

    def to_dict(self) -> dict[str, dict]:
        return {family: h.to_dict() for family, h in sorted(self.histograms.items())}

    def summary(self) -> str:
        """One line per family: count and the three headline percentiles."""
        lines = []
        for family, h in sorted(self.histograms.items()):
            lines.append(
                f"{family}: n={h.count} p50={h.p50 * 1e3:.3f}ms "
                f"p95={h.p95 * 1e3:.3f}ms p99={h.p99 * 1e3:.3f}ms"
            )
        return "\n".join(lines)
