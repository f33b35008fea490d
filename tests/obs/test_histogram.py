"""Latency histograms and span-family folding (PR 5 tentpole)."""

import pytest

from repro.multilog import MultiLogSession
from repro.obs import DEFAULT_BUCKETS, HistogramSet, LatencyHistogram, span_family

SOURCE = """
level(u). level(s). order(u, s).
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""


class TestLatencyHistogram:
    def test_observe_lands_in_bucket(self):
        hist = LatencyHistogram()
        hist.observe(0.0005)
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.0005)
        # Exactly one bucket counter moved.
        assert sum(hist.counts) == 1

    def test_quantiles_interpolate(self):
        hist = LatencyHistogram(bounds=(0.1, 0.2, 0.4))
        for _ in range(100):
            hist.observe(0.15)
        # All mass in the (0.1, 0.2] bucket: quantiles interpolate inside it.
        assert 0.1 <= hist.p50 <= 0.2
        assert 0.1 <= hist.quantile(0.99) <= 0.2

    def test_empty_histogram_quantiles_are_zero(self):
        hist = LatencyHistogram()
        assert hist.p50 == 0.0
        assert hist.p95 == 0.0
        assert hist.p99 == 0.0

    def test_overflow_clamps_to_last_bound(self):
        hist = LatencyHistogram(bounds=(0.1, 0.2))
        hist.observe(100.0)  # beyond every bound -> +Inf bucket
        assert hist.count == 1
        assert hist.quantile(0.99) == 0.2  # clamped, not infinite

    def test_min_max_track_extremes(self):
        hist = LatencyHistogram()
        hist.observe(0.001)
        hist.observe(0.5)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.5)

    def test_to_dict_shape(self):
        hist = LatencyHistogram()
        hist.observe(0.01)
        d = hist.to_dict()
        assert d["count"] == 1
        assert d["p50_s"] > 0.0
        assert d["sum_s"] == pytest.approx(0.01)
        assert len(hist.counts) == len(DEFAULT_BUCKETS) + 1  # +Inf slot


class TestSpanFamily:
    @pytest.mark.parametrize("name,attrs,family", [
        ("query", {}, "query"),
        ("beta", {"level": "s"}, "beta"),
        ("stratum[3]", {}, "stratum[*]"),
        ("round[17]", {"scope": "x"}, "round[*]"),
        ("evaluate", {"strategy": "compiled"}, "evaluate[compiled]"),
        ("evaluate", {"strategy": "naive"}, "evaluate[naive]"),
        ("evaluate", {}, "evaluate"),
        ("tau-translate", {}, "tau-translate"),
    ])
    def test_folding(self, name, attrs, family):
        assert span_family(name, attrs) == family


class TestHistogramSet:
    def test_observe_span_folds_families(self):
        hs = HistogramSet()
        hs.observe_span("stratum[0]", {}, 0.001)
        hs.observe_span("stratum[5]", {}, 0.002)
        assert hs.get("stratum[*]").count == 2
        assert hs.get("stratum[0]") is None

    def test_summary_mentions_families(self):
        hs = HistogramSet()
        hs.observe("query", 0.01)
        assert "query" in hs.summary()


class TestSessionTelemetry:
    def test_enable_telemetry_populates_families(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.enable_telemetry()
        session.ask("s[acct(alice : balance -C-> B)] << cau")
        families = session.histograms.families()
        assert "query" in families
        assert "parse" in families
        assert session.histograms.get("query").count == 1

    def test_reduction_engine_families(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.enable_telemetry()
        session.ask("s[acct(alice : balance -C-> B)] << opt", engine="reduction")
        families = session.histograms.families()
        assert "tau-translate" in families
        assert any(f.startswith("evaluate[") for f in families)
