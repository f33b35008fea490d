"""Observability for the evaluation stack: tracing, metrics, budgets.

PR 1 made the engine fast; this package makes it visible and bounded.
Three cooperating pieces, all threaded through ``evaluate``, the
operational engine, the tau-translation, the belief function and
``MultiLogSession``:

* **Tracing** (:mod:`~repro.obs.trace`) -- nestable spans (``parse``,
  ``stratify``, ``stratum[i]``, ``rule-fire``, ``beta``,
  ``tau-translate``, ``query``) with wall time, row counts and delta
  sizes, collected as a tree and dumpable as JSON.  The
  :data:`NULL_RECORDER` keeps the disabled path allocation-free.
* **Metrics** (:mod:`~repro.obs.metrics`) -- per-rule firing counts,
  join-probe counts, fixpoint round counts and the cache layer's
  hit rates, frozen into one :class:`EngineMetrics` snapshot
  (``MultiLogSession.last_stats()``).
* **Budgets** (:mod:`~repro.obs.budget`) -- an :class:`EvaluationBudget`
  (row / round / wall-clock caps) enforced by every strategy and by
  ``cautious()``, raising :class:`~repro.errors.BudgetExceededError`
  with the partial metrics attached.

PR 5 grew the in-process tracer into a telemetry pipeline and an MLS
security-audit / provenance subsystem:

* **Histograms** (:mod:`~repro.obs.histogram`) -- fixed-bucket latency
  histograms with p50/p95/p99 per span family, fed on span close.
* **Exporters** (:mod:`~repro.obs.export`) -- Prometheus text
  exposition, Chrome-trace (Perfetto) and JSONL renderers, plus
  streaming :class:`TelemetrySink` implementations with file rotation.
* **Audit trail** (:mod:`~repro.obs.audit`) -- append-only structured
  events for every cross-level read, cautious override, filter
  suppression, surprise story, assert and recovery.
* **Provenance** (:mod:`~repro.obs.provenance`) -- per-answer rule
  chains and believed base cells distilled from Figure 9-11 proof trees.

Wiring happens through the ambient :class:`ObsContext`
(:mod:`~repro.obs.context`): install one with :func:`use` (or let
``MultiLogSession.ask`` do it) and every engine underneath reports into
it.  ``docs/OBSERVABILITY.md`` has the full model and CLI examples.
"""

from repro.obs.audit import (
    AUDIT_KINDS,
    NULL_AUDIT,
    AuditEvent,
    AuditLog,
    NullAudit,
)
from repro.obs.budget import BudgetMeter, EvaluationBudget
from repro.obs.context import DISABLED, ObsContext, current, observe, use
from repro.obs.explain import explain_program, explain_rule
from repro.obs.export import (
    JsonlSpanSink,
    ListSink,
    RotatingJsonlWriter,
    TelemetrySink,
    chrome_trace_events,
    render_chrome_trace,
    render_jsonl,
    render_prometheus,
    write_trace,
)
from repro.obs.histogram import (
    DEFAULT_BUCKETS,
    HistogramSet,
    LatencyHistogram,
    span_family,
)
from repro.obs.metrics import (
    NULL_METRICS,
    CacheSnapshot,
    EngineMetrics,
    MetricsCollector,
    NullMetrics,
)
from repro.obs.provenance import AnswerProvenance, provenance
from repro.obs.trace import (
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    Span,
    TraceRecorder,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)

__all__ = [
    "AUDIT_KINDS",
    "AnswerProvenance",
    "AuditEvent",
    "AuditLog",
    "BudgetMeter",
    "CacheSnapshot",
    "DEFAULT_BUCKETS",
    "DISABLED",
    "EngineMetrics",
    "EvaluationBudget",
    "HistogramSet",
    "JsonlSpanSink",
    "LatencyHistogram",
    "ListSink",
    "MetricsCollector",
    "NULL_AUDIT",
    "NULL_METRICS",
    "NULL_RECORDER",
    "NULL_SPAN",
    "NullAudit",
    "NullMetrics",
    "NullRecorder",
    "ObsContext",
    "RotatingJsonlWriter",
    "Span",
    "TelemetrySink",
    "TraceRecorder",
    "chrome_trace_events",
    "current",
    "explain_program",
    "explain_rule",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "observe",
    "parse_traceparent",
    "provenance",
    "render_chrome_trace",
    "render_jsonl",
    "render_prometheus",
    "span_family",
    "use",
    "write_trace",
]
