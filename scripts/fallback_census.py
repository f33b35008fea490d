"""Fallback census: which retry-ladder rungs the chaos runs really serve from.

Wraps ``ResilientExecutor.ask`` and ``ResilientExecutor.evaluate`` so
every call records its settled ``Outcome`` (requested rung, serving
rung, fallbacks taken, and whether the call returned complete, partial
or raised).  It then runs, in this process:

* the chaos differential, ``tests/resilience/test_chaos_differential.py``
  with ``CHAOS_SEED=<seed>`` (the two journal kill/recover tests are
  deselected: they never enter the executor);
* ``scripts/serving_chaos.py --seed <seed>``.

and prints one table per run.  The counts say which rungs of the
native-plan -> ``naive`` ladder the chaos runs exercise.

    PYTHONPATH=src python scripts/fallback_census.py --seed 0
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro.resilience import PartialResult, ResilientExecutor

ROOT = Path(__file__).resolve().parent.parent


class Census:
    """Per (entry, engine, requested rung, serving rung, result): calls
    and fallbacks taken, since the last :meth:`table`."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.fallbacks: Counter = Counter()

    def table(self, title: str) -> str:
        lines = [f"### {title}", "",
                 "| entry | engine | requested | served by | result | calls "
                 "| fallbacks |",
                 "|---|---|---|---|---|---|---|"]
        for key in sorted(self.calls):
            lines.append("| " + " | ".join(key)
                         + f" | {self.calls[key]} | {self.fallbacks[key]} |")
        if not self.calls:
            lines.append("| (no executor call) | | | | | 0 | 0 |")
        self.calls.clear()
        self.fallbacks.clear()
        return "\n".join(lines)


def _recording(method, census: Census):
    def wrapper(self, *args, **kwargs):
        result = "raised"
        try:
            value = method(self, *args, **kwargs)
            result = "partial" if isinstance(value, PartialResult) else "complete"
            return value
        finally:
            outcome = self.last_outcome
            engine = (kwargs.get("engine", "operational")
                      if method.__name__ == "ask" else "-")
            key = (method.__name__, engine, outcome.requested, outcome.rung,
                   result)
            census.calls[key] += 1
            census.fallbacks[key] += outcome.fallbacks
    return wrapper


def chaos_differential(census: Census, seed: int) -> str:
    import pytest

    os.environ["CHAOS_SEED"] = str(seed)
    code = pytest.main([
        str(ROOT / "tests/resilience/test_chaos_differential.py"),
        "-q", "-p", "no:cacheprovider",
        "-k", "not sigkill and not recovered_session"])
    return census.table(
        f"chaos differential (CHAOS_SEED={seed}, pytest exit {code})")


def serving_chaos(census: Census, seed: int) -> str:
    sys.path.insert(0, str(ROOT / "scripts"))
    import serving_chaos as chaos

    with tempfile.TemporaryDirectory(prefix="multilog-census-") as tmp:
        code = asyncio.run(chaos.main(seed, 48, Path(tmp) / "wal.jsonl"))
    return census.table(f"serving_chaos.py --seed {seed} (exit {code})")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    census = Census()
    ResilientExecutor.ask = _recording(ResilientExecutor.ask, census)
    ResilientExecutor.evaluate = _recording(ResilientExecutor.evaluate, census)
    tables = [chaos_differential(census, args.seed),
              serving_chaos(census, args.seed)]
    print("\n\n".join(tables))
