"""Steadiness report: run one workload N times and print the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload belief_scans --runs 10

Runs ``run.py`` once per seed 1..N, one run at a time, for
``BENCHMARK.json``'s ``run_seconds``, and prints for every end-to-end
metric its median, quartiles and spread (the inter-quartile range as a
share of the median) beside the bound ``BENCHMARK.json`` gives it.
Each run's reference-loop time is printed too, so drift of the host
shows beside the figures, and the steepest "mode edge" seen for each
percentile flags one that sits in the gap between two latency modes.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402

#: a percentile whose neighbourhood spans more than this ratio sits on
#: the edge between two latency modes.
EDGE_LIMIT = 2.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    reference = re.search(r"reference loop: ([\d.]+) ms before, ([\d.]+)",
                          proc.stdout)
    result["reference_ms"] = ((float(reference[1]), float(reference[2]))
                              if reference else (float("nan"),) * 2)
    result["edges"] = {name: float(ratio) for name, ratio in re.findall(
        r"mode edge (\S+): ([\d.]+|inf)", proc.stdout)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs to make, at least 2")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, bench["run_seconds"])
        results.append(result)
        shown = " ".join(f"{name}={m['value']:.4g}"
                         for name, m in result["metrics"].items())
        print(f"seed {seed}: reference "
              f"{'/'.join(f'{ms:.2f}' for ms in result['reference_ms'])} ms, "
              f"{result['attempted']} checked, {result['failed']} failed: "
              f"{shown}", flush=True)

    failed = sum(r["failed"] for r in results)
    print(f"\n{args.workload}: {len(results)} runs, "
          f"{sum(r['attempted'] for r in results)} requests checked, "
          f"{failed} failed")
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        share = spread(values)
        bound = bounds[name]
        verdict = ("steady" if share < bound / 3 else
                   "within bound" if share <= bound else "TOO NOISY")
        edge = max((r["edges"].get(name, 1.0) for r in results), default=1.0)
        if edge > EDGE_LIMIT:
            verdict += f"  ON A MODE EDGE ({edge:.2f})"
        print(f"{name:<30} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{share:>8.3f} {bound:>6}  "
              f"{verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
