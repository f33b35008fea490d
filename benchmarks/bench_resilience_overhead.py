"""Resilience-overhead datapoint: what does the executor wrapper cost?

The design target (docs/RESILIENCE.md) is that routing evaluation
through a :class:`~repro.resilience.ResilientExecutor` with nothing
armed -- no faults, no budget, first attempt succeeds -- costs under 5%
over calling :func:`~repro.datalog.engine.evaluate` directly: the
disabled path is one ``try`` frame and a handful of attribute reads per
call.

This module measures the wrapped path against the direct call on the
same join-heavy transitive-closure workload ``bench_tracing_overhead``
uses, and read-merge-writes a ``resilience_overhead`` object into the
repo-root ``BENCH_engine.json`` so the trajectory is tracked PR over
PR.  The in-test assertion is deliberately looser than the target
(shared CI runners are noisy); the measured numbers land in the JSON
for human review.
"""

import json
import platform
import time
from pathlib import Path

from repro.datalog import evaluate, parse_program
from repro.resilience import ResilientExecutor
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


def test_emit_resilience_overhead():
    program_text = random_datalog_program(N_NODES, "chain", seed=0)
    executor = ResilientExecutor()

    def run_direct():
        return evaluate(parse_program(program_text), backend="dict")

    def run_wrapped():
        return executor.evaluate(parse_program(program_text), backend="dict")

    # Warm caches so the comparison measures steady-state evaluation.
    run_direct()
    run_wrapped()

    direct_s = _best_of(run_direct)
    wrapped_s = _best_of(run_wrapped)
    direct_again_s = _best_of(run_direct)  # run-to-run noise floor

    baseline_s = min(direct_s, direct_again_s)
    entry = {
        "workload": "chain_closure",
        "n_nodes": N_NODES,
        "baseline_s": round(baseline_s, 6),
        "wrapped_s": round(wrapped_s, 6),
        "wrapped_overhead_pct": _overhead_pct(wrapped_s, baseline_s),
        "target": "disabled-path executor < 5%",
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
    payload["resilience_overhead"] = entry
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Loose CI-safe bound; the <5% design target is recorded in the JSON.
    assert entry["wrapped_overhead_pct"] < 50.0, entry
    # The wrapped call must still produce the same model.
    assert run_wrapped().rows("path") == run_direct().rows("path")
