"""Telemetry exporters: Prometheus text, Chrome trace, JSONL, sinks.

Three render targets for what :mod:`repro.obs` collects:

* :func:`render_prometheus` -- the text exposition format scraped by
  Prometheus: every counter of an
  :class:`~repro.obs.metrics.EngineMetrics` snapshot (including the
  resilience layer's ``degraded``/retry counters), the per-layer cache
  stats, and the per-span-family latency histograms of a
  :class:`~repro.obs.histogram.HistogramSet` with ``_bucket``/``_sum``/
  ``_count`` series.
* :func:`render_chrome_trace` -- the Trace Event JSON format: open the
  file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` to
  see the span forest on a timeline.
* :func:`render_jsonl` -- one JSON object per root span tree per line;
  the streaming shape :class:`JsonlSpanSink` appends.

A :class:`TelemetrySink` receives each **root** span as it closes (the
:class:`~repro.obs.trace.TraceRecorder` calls ``write_span``), so a
long-lived session can stream traces to disk instead of accumulating
every forest in memory; :class:`JsonlSpanSink` adds size-based file
rotation on top.  :func:`write_trace` dispatches a recorder dump on the
target suffix (``.json`` / ``.chrome`` / ``.jsonl``) -- the CLI's
``--trace-out`` backend.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Protocol

from repro.obs.histogram import HistogramSet
from repro.obs.metrics import EngineMetrics
from repro.obs.trace import Span, TraceRecorder

# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(**labels: str) -> str:
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}" if inner else ""


def _fmt_bound(bound: float) -> str:
    return repr(bound) if bound != int(bound) else str(int(bound))


def prometheus_family(name: str, kind: str, help_text: str,
                      samples: Iterable[tuple[dict, Any]]) -> list[str]:
    """One metric family in the text exposition: HELP, TYPE, samples.

    ``kind`` is ``counter``, ``gauge`` or ``histogram``; each sample is
    ``(labels, value)``.  A histogram sample's value is a
    :class:`~repro.obs.histogram.LatencyHistogram`, written as cumulative
    ``_bucket`` series (``le`` appended to its labels) plus ``_sum`` and
    ``_count``.
    """
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
    for labels, value in samples:
        if kind != "histogram":
            lines.append(f"{name}{_labels(**labels)} {value}")
            continue
        cumulative = 0
        for bound, count in zip(value.bounds, value.counts):
            cumulative += count
            lines.append(f"{name}_bucket{_labels(**labels, le=_fmt_bound(bound))} "
                         f"{cumulative}")
        lines.append(f"{name}_bucket{_labels(**labels, le='+Inf')} {value.count}")
        lines.append(f"{name}_sum{_labels(**labels)} {value.sum:.6f}")
        lines.append(f"{name}_count{_labels(**labels)} {value.count}")
    return lines


def render_prometheus(metrics: EngineMetrics | None = None,
                      histograms: HistogramSet | None = None,
                      namespace: str = "multilog") -> str:
    """Prometheus text exposition of a metrics snapshot + histogram set.

    Per-rule firing counts are exported as totals only (rule source text
    makes a pathological label); the per-rule breakdown stays in
    ``EngineMetrics.to_json``.
    """
    lines: list[str] = []

    def counter(name: str, help_text: str, samples: list[tuple[dict, object]]) -> None:
        lines.extend(prometheus_family(f"{namespace}_{name}", "counter",
                                       help_text, samples))

    def gauge(name: str, help_text: str, samples: list[tuple[dict, object]]) -> None:
        lines.extend(prometheus_family(f"{namespace}_{name}", "gauge",
                                       help_text, samples))

    if metrics is not None:
        counter("asks_total", "Queries answered by the session.",
                [({}, metrics.asks)])
        counter("rule_firings_total", "Rule firings across all asks.",
                [({}, metrics.total_firings)])
        counter("rows_derived_total", "Rows derived pre-dedup across all asks.",
                [({}, metrics.total_rows_derived)])
        counter("join_probes_total", "Index probes during evaluation.",
                [({}, metrics.join_probes)])
        counter("candidate_calls_total", "Interpreted-path candidate scans.",
                [({}, metrics.candidate_calls)])
        counter("batch_probes_total",
                "Whole-delta hash-join probes (vectorized strategy).",
                [({}, metrics.batch_probes)])
        counter("batch_builds_total",
                "Build-side hash-table builds/extensions (columnar backend).",
                [({}, metrics.batch_builds)])
        counter("batch_dedup_rows_total",
                "Rows dropped as duplicates by columnar bulk inserts.",
                [({}, metrics.batch_dedup_rows)])
        if metrics.rounds:
            counter("fixpoint_rounds_total", "Fixpoint rounds per scope.",
                    [({"scope": scope}, count)
                     for scope, count in sorted(metrics.rounds.items())])
        counter("retries_total",
                "Transient-fault retries spent by the resilience executor.",
                [({}, metrics.retries)])
        counter("degraded_asks_total",
                "Asks served degraded (budget-partial answers).",
                [({}, metrics.degraded_asks)])
        if metrics.cache:
            for kind in ("hits", "misses", "invalidations"):
                counter(f"cache_{kind}_total", f"Cache {kind} per memo layer.",
                        [({"layer": layer}, getattr(snap, kind))
                         for layer, snap in sorted(metrics.cache.items())])
        gauge("budget_exceeded",
              "1 when the most recent ask hit its evaluation budget.",
              [({}, 1 if metrics.budget_exceeded else 0)])
        gauge("degraded",
              "1 when the most recent ask was served degraded.",
              [({}, 1 if metrics.degraded else 0)])

    if histograms is not None and histograms.histograms:
        lines.extend(prometheus_family(
            f"{namespace}_span_latency_seconds", "histogram",
            "Span latency per span family.",
            [({"family": family}, histograms.histograms[family])
             for family in histograms.families()]))

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace (Trace Event format, Perfetto-loadable)
# ----------------------------------------------------------------------

def _roots_of(spans) -> list[Span]:
    if isinstance(spans, TraceRecorder) or hasattr(spans, "roots"):
        return list(spans.roots)
    return list(spans)


def chrome_trace_events(spans: TraceRecorder | Iterable[Span]) -> list[dict]:
    """Complete-duration (``ph: "X"``) events for a span forest.

    Timestamps are microseconds relative to the earliest root, which is
    what trace viewers expect -- ``perf_counter`` origins are arbitrary.
    """
    roots = _roots_of(spans)
    if not roots:
        return []
    base = min(root.started for root in roots)
    events: list[dict] = []

    def emit(span: Span) -> None:
        events.append({
            "name": span.name,
            "cat": "multilog",
            "ph": "X",
            "ts": round((span.started - base) * 1e6, 3),
            "dur": round(span.elapsed_s * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {k: v for k, v in span.attrs.items()},
        })
        for child in span.children:
            emit(child)

    for root in roots:
        emit(root)
    return events


def render_chrome_trace(spans: TraceRecorder | Iterable[Span],
                        indent: int | None = None) -> str:
    document = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }
    return json.dumps(document, indent=indent, default=repr)


def render_jsonl(spans: TraceRecorder | Iterable[Span]) -> str:
    """One JSON object per root span tree per line."""
    roots = _roots_of(spans)
    return "\n".join(json.dumps(root.to_dict(), default=repr) for root in roots)


def write_trace(recorder, path: str | Path) -> Path:
    """Dump a recorder's forest to ``path``, format chosen by suffix.

    ``.chrome`` -> Trace Event JSON (Perfetto), ``.jsonl`` -> one tree
    per line, anything else -> the recorder's plain JSON span forest.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".chrome":
        text = render_chrome_trace(recorder, indent=None)
    elif suffix == ".jsonl":
        text = render_jsonl(recorder)
    else:
        text = json.dumps([root.to_dict() for root in _roots_of(recorder)],
                          indent=2, default=repr)
    path.write_text(text + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Streaming sinks
# ----------------------------------------------------------------------

class TelemetrySink(Protocol):
    """Anything a :class:`~repro.obs.trace.TraceRecorder` can stream to.

    ``write_span`` receives each root span as it closes (children are
    reachable through the span), so implementations see whole trees.
    """

    def write_span(self, span: Span) -> None: ...

    def close(self) -> None: ...


class ListSink:
    """In-memory sink (tests and ad-hoc capture)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.closed = False

    def write_span(self, span: Span) -> None:
        self.spans.append(span)

    def close(self) -> None:
        self.closed = True


class RotatingJsonlWriter:
    """Append-only line stream with size-based file rotation.

    When the live file would exceed ``max_bytes`` the writer rotates:
    ``name`` -> ``name.1`` -> ... -> ``name.N`` with the oldest dropped,
    so a long-lived stream occupies at most ``max_bytes * (max_files +
    1)`` on disk.  The shared mechanics under :class:`JsonlSpanSink`
    (span trees) and the serving layer's structured access log (request
    lines) -- both are "one JSON object per line, bounded on disk".
    """

    def __init__(self, path: str | Path, max_bytes: int = 8 * 1024 * 1024,
                 max_files: int = 3):
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self.lines_written = 0
        self.rotations = 0

    def write_line(self, line: str) -> None:
        """Append one line (no trailing newline), rotating first if due."""
        line = line + "\n"
        if self._handle.tell() + len(line) > self.max_bytes and self._handle.tell():
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self.lines_written += 1

    def _rotate(self) -> None:
        self._handle.close()
        oldest = self.path.with_name(self.path.name + f".{self.max_files}")
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_files - 1, 0, -1):
            source = self.path.with_name(self.path.name + f".{index}")
            if source.exists():
                source.rename(self.path.with_name(self.path.name + f".{index + 1}"))
        if self.max_files > 0:
            self.path.rename(self.path.with_name(self.path.name + ".1"))
        self._handle = self.path.open("a", encoding="utf-8")
        self.rotations += 1

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RotatingJsonlWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class JsonlSpanSink:
    """Append-only JSONL span stream with size-based file rotation.

    When the live file would exceed ``max_bytes`` the sink rotates:
    ``trace.jsonl`` -> ``trace.jsonl.1`` -> ... -> ``trace.jsonl.N`` with
    the oldest dropped, so a long-lived session's telemetry occupies at
    most ``max_bytes * (max_files + 1)`` on disk (the mechanics live in
    :class:`RotatingJsonlWriter`).
    """

    def __init__(self, path: str | Path, max_bytes: int = 8 * 1024 * 1024,
                 max_files: int = 3):
        self._writer = RotatingJsonlWriter(path, max_bytes=max_bytes,
                                           max_files=max_files)

    @property
    def path(self) -> Path:
        return self._writer.path

    @property
    def max_bytes(self) -> int:
        return self._writer.max_bytes

    @property
    def max_files(self) -> int:
        return self._writer.max_files

    @property
    def spans_written(self) -> int:
        return self._writer.lines_written

    @property
    def rotations(self) -> int:
        return self._writer.rotations

    def write_span(self, span: Span) -> None:
        self._writer.write_line(json.dumps(span.to_dict(), default=repr))

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
