"""Analysis-overhead datapoint: what do the static checks cost?

Two numbers (docs/ANALYSIS.md):

* the full program analyzer (``analyze_program``) as absolute wall time
  -- it runs once per program, off the hot path;
* the plan verifier's cost on the **compile path**, where it sits in
  front of every codegen'd ``exec``.  The design target is < 5%
  overhead on the verify-enabled path: verified sources are memoized by
  exact text, so steady state pays one set lookup per compiled rule.
  The cold (memo-cleared) time is also recorded so the per-plan price
  of a real verification stays visible.

Read-merge-writes an ``analysis_overhead`` object into the repo-root
``BENCH_engine.json`` so the trajectory is tracked PR over PR.  The
in-test assertion is deliberately looser than the target (shared CI
runners are noisy); the measured numbers land in the JSON for review.
"""

import json
import platform
import time
from pathlib import Path

from repro.analysis import analyze_program
from repro.datalog import evaluate, parse_program
from repro.datalog import plan as plan_module
from repro.datalog.plan import set_plan_verification
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


def test_emit_analysis_overhead():
    program_text = random_datalog_program(N_NODES, "chain", seed=0)

    def run_analyzer():
        return analyze_program(parse_program(program_text))

    def run_compiled(verify):
        previous = set_plan_verification(verify)
        try:
            return evaluate(parse_program(program_text), backend="dict")
        finally:
            set_plan_verification(previous)

    def run_cold_verified():
        plan_module._VERIFIED_SOURCES.clear()
        return run_compiled(True)

    # Warm parser/engine caches so the comparison is steady-state.
    assert run_analyzer().ok
    run_compiled(True)
    run_compiled(False)

    analyze_s = _best_of(run_analyzer)
    verified_s = _best_of(lambda: run_compiled(True))
    plain_s = _best_of(lambda: run_compiled(False))
    plain_again_s = _best_of(lambda: run_compiled(False))  # noise floor
    cold_verified_s = _best_of(run_cold_verified)

    baseline_s = min(plain_s, plain_again_s)
    entry = {
        "workload": "chain_closure",
        "n_nodes": N_NODES,
        "analyze_s": round(analyze_s, 6),
        "baseline_s": round(baseline_s, 6),
        "verified_s": round(verified_s, 6),
        "cold_verified_s": round(cold_verified_s, 6),
        "verify_overhead_pct": _overhead_pct(verified_s, baseline_s),
        "cold_verify_overhead_pct": _overhead_pct(cold_verified_s, baseline_s),
        "target": "memoized verify-enabled compile path < 5%",
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
    payload["analysis_overhead"] = entry
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Loose CI-safe bound; the <5% design target is recorded in the JSON.
    assert entry["verify_overhead_pct"] < 50.0, entry
    # Verification must not change the model.
    assert run_compiled(True).rows("path") == run_compiled(False).rows("path")
