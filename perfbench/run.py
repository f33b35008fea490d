"""MultiLog serving benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_reads --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Starts a ``MultiLogServer`` in this process on seeded, generated source
text and drives it through two ``ServingClient`` connections in
lock-step rounds (see ``harness.py``).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once under the outside-in tracer and reports the per-layer metrics.
Every answer is checked against a serial session after the clock stops;
the last line of standard output is the JSON result, and the exit code
is non-zero when any request failed or was answered wrongly.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import tempfile
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"no MultiLog sources at {SOURCE}: run from a checkout")
sys.path[:0] = [str(HERE), str(SOURCE)]

from harness import (  # noqa: E402
    Live, Phase, Recorder, reference_loop_ms, run_round, set_up)
from layers import PROBE_ROUND, Snapshot, layer_metrics  # noqa: E402
from oracle import Oracle, Verdict  # noqa: E402
from stats import mode_edge, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SPECS, Spec, cycle, generate_source, other_engine_round, probe_rounds,
    rounds)

#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 9
#: write-probe rounds of a traced run's coverage probe.
PROBE_ROUNDS = 30


class Run:
    """The servers, samples and timings of one benchmark run."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.source = generate_source(spec, seed)
        self.workdir = workdir
        self.lives: list[Live] = []

    async def set_up(self, tracer: Tracer | None = None,
                     journal: bool = False) -> tuple[Live, float]:
        """Start one more server; it journals when the workload does or
        ``journal`` asks for it."""
        path = (self.workdir / f"journal-{len(self.lives)}.jsonl"
                if journal or self.spec.journal else None)
        live, seconds = await set_up(self.spec, self.source, path,
                                     Recorder(), tracer)
        self.lives.append(live)
        return live, seconds

    def verdict(self) -> Verdict:
        oracle, verdict = Oracle(self.spec, self.source), Verdict()
        for live in self.lives:
            oracle.check(live.recorder, live.base_version, verdict)
        return verdict


def served(live: Live, phase: str) -> list:
    return [s for s in live.recorder.samples if s.phase == phase and s.served]


async def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Set up and measure one server, then set up ``SETUPS - 1`` more for
    the set-up median.

    The extra set-ups run after the measured server is closed and its
    heap collected, so each starts on a heap of its own and none leaves
    allocator residue in the measured phase's resident set.
    """
    live, setup_s = await run.set_up()
    setup_times = [setup_s]
    totals = Phase()
    await totals.measure(live, rounds(run.spec, run.seed), seconds,
                         cycle(run.spec), run.spec.rss_rounds)
    await live.close()
    while len(setup_times) < SETUPS:
        extra, setup_s = await run.set_up()
        setup_times.append(setup_s)
        await extra.close()

    def groups(q: float) -> list[list[float]]:
        """Warm-ask latencies (ms) in groups of consecutive windows that
        each hold enough samples for ten to lie beyond the ``q``-th
        percentile."""
        need = math.ceil(10 / (1 - q / 100))
        windows: list[list[float]] = [[] for _ in totals.windows]
        for sample in live.recorder.samples:
            if sample.phase == "measure" and sample.kind == "warm":
                windows[totals.window_of(sample.round)].append(
                    1000 * sample.latency_s)
        found: list[list[float]] = []
        for window in windows:
            if found and len(found[-1]) < need:
                found[-1].extend(window)
            elif window:
                found.append(window)
        if len(found) > 1 and len(found[-1]) < need:
            found[-2].extend(found.pop())
        return found

    print("set-ups: " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    metrics = {"setup_s": (median(setup_times), "s", len(setup_times))}
    for name, q in (("ask_p50_ms", 50), ("ask_p90_ms", 90)):
        found = groups(q)
        metrics[name] = (median(percentile(group, q) for group in found),
                         "ms", sum(map(len, found)))
        edge = max(mode_edge(group, q) for group in found)
        print(f"mode edge {name}: {edge:.3f}")
    completed = sum(w.served for w in totals.windows)
    metrics.update({
        "throughput_ops_s": (totals.throughput(), "1/s", completed),
        "cpu_ms_per_op": (totals.cpu_ms_per_op(), "ms", completed),
        "rss_mb": (totals.rss, "MiB", 1),
    })
    return metrics, shape(run.spec, live, totals)


def shape(spec: Spec, live: Live, totals: Phase) -> dict:
    """The measured phase's traffic, for citing shares of it."""
    asks = [s for s in live.recorder.samples
            if s.phase == "measure" and s.op == "ask"]
    return {
        "tuples": spec.tuples,
        "belief_rules": spec.belief_rules,
        "rounds": totals.rounds,
        "distinct_queries": len({s.text for s in asks}),
        "mean_answers_per_ask": round(
            sum(len(live.recorder.answers_of(s) or ()) for s in asks)
            / max(1, len(asks)), 2),
        "cautious_share": round(
            sum(s.text.endswith("<< cau") for s in asks) / max(1, len(asks)),
            3),
        "asserts": sum(s.op == "assert" and s.phase == "measure"
                       for s in live.recorder.samples),
    }


async def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """An untraced and a traced measured phase; per-layer metrics.

    The traced server always has a journal, and after its measured phase
    a coverage probe calls the layers the phase did not: write-probe
    rounds where the phase has no asserts, and one round of asks on the
    other engine.  Its spans give those layers their times.
    """
    live, _ = await run.set_up()
    base = Phase()
    await base.measure(live, rounds(run.spec, run.seed), seconds,
                       cycle(run.spec))
    untraced_throughput = base.throughput()
    await live.close()

    with Tracer() as tracer:
        live, _ = await run.set_up(tracer, journal=True)
        start = Snapshot.take(live.server)
        totals = Phase()
        await totals.measure(live, rounds(run.spec, run.seed), seconds,
                             cycle(run.spec))
        end = Snapshot.take(live.server)
        probe = [] if run.spec.assert_every else probe_rounds(
            run.spec, run.seed, PROBE_ROUNDS)
        for ops in probe + [other_engine_round(run.spec)]:
            await run_round(live, ops, "probe", PROBE_ROUND)
        probed = Snapshot.take(live.server)
        await live.close()
    metrics = layer_metrics(
        tracer, served(live, "measure"), served(live, "probe"), start, end,
        probed, totals.throughput(), untraced_throughput)
    for name in tracer.absent:
        print(f"layer absent: {name} (its target is gone; metrics read 0)")
    return ({name: (value, unit, None) for name, (value, unit)
             in metrics.items()}, shape(run.spec, live, totals))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> bool:
    """Run one workload, print its table and JSON line; True when every
    request was served and answered correctly."""
    spec = SPECS[name]
    print(f"workload {spec.name}, seed {seed}")
    before = reference_loop_ms()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        run = Run(spec, seed, Path(workdir))
        metrics, traffic = asyncio.run(
            (traced if trace else untraced)(run, seconds))
        print("shape: " + json.dumps(traffic))
        verdict = run.verdict()
    print(f"reference loop: {before:.2f} ms before, "
          f"{reference_loop_ms():.2f} ms after")
    for metric, (value, unit, count) in metrics.items():
        beside = f"  (n={count})" if count is not None else ""
        print(f"  {metric:<30} {value:>12.4f} {unit}{beside}")
    print(f"checked {verdict.attempted} requests, {verdict.failed} failed")
    for problem in verdict.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit, _count) in metrics.items()},
    }))
    return verdict.failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPECS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(SPECS) if args.workload == "all" else [args.workload]
    passed = [run_workload(name, args.seed, args.seconds, args.trace)
              for name in names]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
