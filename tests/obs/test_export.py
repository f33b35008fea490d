"""Telemetry exporters: Prometheus text, Chrome trace, JSONL, sinks."""

import json
from pathlib import Path

from repro.multilog import MultiLogSession
from repro.obs import (
    HistogramSet,
    JsonlSpanSink,
    ListSink,
    TraceRecorder,
    chrome_trace_events,
    render_chrome_trace,
    render_jsonl,
    render_prometheus,
    write_trace,
)
from repro.obs.metrics import CacheSnapshot, EngineMetrics

GOLDEN = Path(__file__).with_name("golden_prometheus.txt")

SOURCE = """
level(u). level(s). order(u, s).
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""


def golden_inputs():
    """Deterministic metrics + histograms (no wall clock, no cache state)."""
    metrics = EngineMetrics(
        asks=3,
        rule_firings={"path(X,Z) :- path(X,Y), edge(Y,Z).": 7,
                      "path(X,Y) :- edge(X,Y).": 2},
        rows_derived={"path(X,Z) :- path(X,Y), edge(Y,Z).": 40,
                      "path(X,Y) :- edge(X,Y).": 5},
        rounds={"stratum[0]": 4, "operational-inner": 9},
        join_probes=55,
        candidate_calls=2,
        batch_probes=6,
        batch_builds=4,
        batch_dedup_rows=12,
        cache={"beta-views": CacheSnapshot(hits=8, misses=2, invalidations=1)},
        budget_exceeded=None,
        degraded="compiled:budget-rows",
        retries=2, degraded_asks=1, attempt=5, rung="compiled",
    )
    histograms = HistogramSet(bounds=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.002, 0.002, 0.05, 5.0):
        histograms.observe("query", value)
    histograms.observe('we"ird\nfam\\ily', 0.003)  # exercises label escaping
    return metrics, histograms


def recorded_forest():
    recorder = TraceRecorder()
    with recorder.span("query", engine="operational") as root:
        with recorder.span("parse"):
            pass
        with recorder.span("stratum[0]", rules=2):
            pass
        root.set(answers=1)
    return recorder


class TestPrometheus:
    def test_golden_file(self):
        metrics, histograms = golden_inputs()
        assert render_prometheus(metrics, histograms) == GOLDEN.read_text()

    def test_every_series_has_help_and_type(self):
        metrics, histograms = golden_inputs()
        lines = render_prometheus(metrics, histograms).splitlines()
        names = set()
        for line in lines:
            if line.startswith("#"):
                _, _, name, *_ = line.split(" ", 3)
                names.add(name)
        for line in lines:
            if line.startswith("#") or not line:
                continue
            metric = line.split("{")[0].split(" ")[0]
            base = metric
            for suffix in ("_bucket", "_sum", "_count"):
                if metric.endswith(suffix):
                    base = metric[: -len(suffix)]
            assert base in names, f"sample {metric} lacks HELP/TYPE"

    def test_bucket_counts_are_cumulative_and_end_at_count(self):
        _, histograms = golden_inputs()
        text = render_prometheus(None, histograms)
        buckets = [int(line.rsplit(" ", 1)[1])
                   for line in text.splitlines()
                   if line.startswith("multilog_span_latency_seconds_bucket"
                                      '{family="query"')]
        assert buckets == sorted(buckets)          # cumulative
        assert buckets[-1] == 5                    # +Inf == _count

    def test_label_escaping(self):
        _, histograms = golden_inputs()
        text = render_prometheus(None, histograms)
        assert 'we\\"ird\\nfam\\\\ily' in text      # "->\" \n->\n \->\\
        # A raw newline inside a label would tear a sample across lines;
        # every non-comment line must still end in a numeric value.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_metrics_only_and_histograms_only(self):
        metrics, histograms = golden_inputs()
        assert "span_latency" not in render_prometheus(metrics, None)
        assert "asks_total" not in render_prometheus(None, histograms)

    def test_session_metrics_text_is_scrapable(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.enable_telemetry()
        session.ask("s[acct(alice : balance -C-> B)] << cau")
        text = session.metrics_text()
        assert "multilog_asks_total 1" in text
        assert 'multilog_span_latency_seconds_bucket{family="query"' in text


class TestChromeTrace:
    def test_structurally_valid_perfetto_json(self):
        recorder = recorded_forest()
        document = json.loads(render_chrome_trace(recorder))
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        names = [e["name"] for e in events]
        assert names == ["query", "parse", "stratum[0]"]
        # Children start at or after their parent.
        root = events[0]
        for child in events[1:]:
            assert child["ts"] >= root["ts"]

    def test_attrs_become_args(self):
        events = chrome_trace_events(recorded_forest())
        assert events[0]["args"] == {"engine": "operational", "answers": 1}

    def test_empty_forest(self):
        assert chrome_trace_events(TraceRecorder()) == []


class TestJsonlAndWriteTrace:
    def test_render_jsonl_one_tree_per_line(self):
        recorder = recorded_forest()
        lines = render_jsonl(recorder).splitlines()
        assert len(lines) == 1
        tree = json.loads(lines[0])
        assert tree["name"] == "query"
        assert [c["name"] for c in tree["children"]] == ["parse", "stratum[0]"]

    def test_write_trace_dispatches_on_suffix(self, tmp_path):
        recorder = recorded_forest()
        chrome = write_trace(recorder, tmp_path / "t.chrome")
        jsonl = write_trace(recorder, tmp_path / "t.jsonl")
        plain = write_trace(recorder, tmp_path / "t.json")
        assert "traceEvents" in json.loads(chrome.read_text())
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "query"
        assert json.loads(plain.read_text())[0]["name"] == "query"


class TestSinks:
    def test_recorder_streams_roots_only(self):
        sink = ListSink()
        recorder = TraceRecorder(sink=sink)
        with recorder.span("query"):
            with recorder.span("parse"):
                pass
        assert [s.name for s in sink.spans] == ["query"]

    def test_jsonl_sink_appends_and_counts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSpanSink(path) as sink:
            recorder = TraceRecorder(sink=sink)
            for _ in range(3):
                with recorder.span("query"):
                    pass
            assert sink.spans_written == 3
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["name"] == "query" for line in lines)

    def test_rotation_bounds_disk(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSpanSink(path, max_bytes=200, max_files=2)
        recorder = TraceRecorder(sink=sink)
        for index in range(50):
            with recorder.span(f"query-{index}"):
                pass
        sink.close()
        assert sink.rotations > 0
        rotated = sorted(p.name for p in tmp_path.iterdir())
        assert rotated == ["trace.jsonl", "trace.jsonl.1", "trace.jsonl.2"]
        # The newest lines are in the live file, oldest beyond .2 dropped.
        assert path.read_text().strip()

    def test_session_sink_receives_ask_roots(self):
        sink = ListSink()
        session = MultiLogSession(SOURCE, clearance="s")
        session.enable_telemetry(sink=sink)
        session.ask("s[acct(alice : balance -C-> B)] << cau")
        assert [s.name for s in sink.spans] == ["query"]
