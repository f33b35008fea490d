"""Tracing-overhead datapoint: what does observability cost?

The design target (docs/OBSERVABILITY.md) is that the *disabled* path --
the default, where engines read one ``ContextVar`` per ``evaluate()``
and hit only null objects afterwards -- costs ~0%, and the fully
*enabled* path (span tree + metrics collection) stays under ~5% on a
join-heavy transitive-closure workload.

This module measures both against an uninstrumented baseline and
read-merge-writes a ``tracing_overhead`` object into the repo-root
``BENCH_engine.json`` (alongside ``bench_scaling_engine``'s cases), so
the overhead trajectory is tracked PR over PR.  The in-test assertion is
deliberately looser than the target (shared CI runners are noisy); the
measured numbers land in the JSON for human review.
"""

import json
import platform
import time
from pathlib import Path

from repro.datalog import evaluate, parse_program
from repro.obs import observe, use
from repro.workloads.generator import random_datalog_program

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

N_NODES = 120
REPEAT = 5


def _best_of(fn, repeat=REPEAT):
    """Best wall-clock of ``repeat`` runs (seconds)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _overhead_pct(measured, baseline):
    return round((measured / baseline - 1.0) * 100.0, 2)


def test_emit_tracing_overhead():
    program_text = random_datalog_program(N_NODES, "chain", seed=0)

    def run_untraced():
        # Default ambient context: NULL_RECORDER / NULL_METRICS, no meter.
        return evaluate(parse_program(program_text), backend="dict")

    def run_traced():
        with use(observe()):
            return evaluate(parse_program(program_text), backend="dict")

    # Warm caches (parser tables, compiled-plan memo keying, etc.) so the
    # comparison measures steady-state evaluation, not first-call setup.
    run_untraced()
    run_traced()

    baseline_s = _best_of(run_untraced)
    enabled_s = _best_of(run_traced)
    disabled_s = _best_of(run_untraced)  # re-measure: the disabled path IS the baseline path

    baseline_s = min(baseline_s, disabled_s)
    entry = {
        "workload": "chain_closure",
        "n_nodes": N_NODES,
        "baseline_s": round(baseline_s, 6),
        "disabled_s": round(disabled_s, 6),
        "enabled_s": round(enabled_s, 6),
        "disabled_overhead_pct": _overhead_pct(disabled_s, baseline_s),
        "enabled_overhead_pct": _overhead_pct(enabled_s, baseline_s),
        "target": "enabled < 5%, disabled ~ 0%",
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
    payload["tracing_overhead"] = entry
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Loose CI-safe bound; the <5% design target is recorded in the JSON.
    assert entry["enabled_overhead_pct"] < 50.0, entry
    # Traced evaluation must still produce the same model.
    assert run_traced().rows("path") == run_untraced().rows("path")
