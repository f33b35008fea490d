"""Export-overhead datapoint: what does streaming telemetry cost?

PR 5 adds latency histograms and a streaming span sink to the traced
path.  The design target (docs/OBSERVABILITY.md) is that the *exporting*
path -- tracing enabled, every span observed into a
:class:`~repro.obs.histogram.HistogramSet` and every root streamed to a
:class:`~repro.obs.export.JsonlSpanSink`, sampling 1.0 -- stays within
5% of the plain traced path on a join-heavy workload.

This module measures it against the traced-but-not-exporting baseline
and read-merge-writes an ``export_overhead`` object into the repo-root
``BENCH_engine.json`` (alongside ``tracing_overhead``), so the cost
trajectory is tracked PR over PR.  As with the tracing bench, the
in-test assertion is deliberately looser than the target (shared CI
runners are noisy); the measured numbers land in the JSON for review.

The two paths run in interleaved pairs, alternating which goes first,
and the reported overhead is the median of the per-pair ratios (the
method ``serving_trace_overhead`` uses).  Host noise then hits both
halves of a pair alike; two separate best-of blocks of ~20 ms
evaluations let one noisy block read as a 50-70% overhead on unchanged
code.
"""

import json
import platform
import time
from pathlib import Path
from statistics import median

from repro.datalog import evaluate, parse_program
from repro.obs import HistogramSet, JsonlSpanSink, observe, use
from repro.workloads.generator import random_datalog_program

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

N_NODES = 120
PAIRS = 15


def _paired_seconds(first, second, pairs=PAIRS):
    """Wall-clock seconds of ``first`` and ``second`` over interleaved
    pairs, alternating which runs first (two lists, pair-aligned)."""
    times = ([], [])
    for index in range(pairs):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for side in order:
            fn = (first, second)[side]
            start = time.perf_counter()
            fn()
            times[side].append(time.perf_counter() - start)
    return times


def test_emit_export_overhead(tmp_path):
    program_text = random_datalog_program(N_NODES, "chain", seed=0)
    histograms = HistogramSet()
    sink = JsonlSpanSink(tmp_path / "spans.jsonl")

    def run_traced():
        with use(observe()):
            return evaluate(parse_program(program_text), backend="dict")

    def run_exporting():
        with use(observe(histograms=histograms, sink=sink)):
            return evaluate(parse_program(program_text), backend="dict")

    # Warm caches so the comparison measures steady-state evaluation.
    run_traced()
    run_exporting()

    traced, exporting = _paired_seconds(run_traced, run_exporting)
    sink.close()
    ratio = median([e / t for t, e in zip(traced, exporting)])

    entry = {
        "workload": "chain_closure",
        "n_nodes": N_NODES,
        "sampling": 1.0,
        "method": f"{PAIRS} interleaved pairs, alternating order, "
                  "median of the per-pair ratios",
        "traced_s": round(median(traced), 6),
        "exporting_s": round(median(exporting), 6),
        "export_overhead_pct": round((ratio - 1.0) * 100.0, 2),
        "spans_streamed": sink.spans_written,
        "histogram_families": len(histograms.families()),
        "target": "exporting < 5% over plain tracing",
    }

    # Read-merge-write: bench_scaling_engine owns the other top-level keys.
    payload = {}
    if BENCH_JSON.exists():
        try:
            payload = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            payload = {}
    payload.setdefault("bench", "bench_scaling_engine")
    payload.setdefault("python", platform.python_version())
    payload["export_overhead"] = entry
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Loose CI-safe bound; the <5% design target is recorded in the JSON.
    assert entry["export_overhead_pct"] < 50.0, entry
    # The sink really streamed spans and the histograms really observed.
    assert sink.spans_written > 0
    assert histograms.get("evaluate[compiled]") is not None
