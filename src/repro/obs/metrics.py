"""Metric counters and the :class:`EngineMetrics` snapshot.

A :class:`MetricsCollector` is the mutable side: the engines increment
per-rule firing counts, per-scope fixpoint round counts and join-probe
totals into it as they run.  A session counts each ask in a fresh
collector and folds it into its cumulative one with
:meth:`MetricsCollector.merge` once the ask is served;
:meth:`MetricsCollector.snapshot` freezes the current state (plus the
per-layer :func:`repro.cache.cache_stats` and an optional span forest)
into an immutable :class:`EngineMetrics`.

:data:`NULL_METRICS` is the disabled path: a shared collector whose
methods do nothing, so instrumented code calls it unconditionally and
pays one no-op method call per rule firing when metrics are off.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from repro.cache import cache_stats


@dataclass(frozen=True)
class CacheSnapshot:
    """Frozen hit/miss/invalidation counters for one memo layer."""

    hits: int
    misses: int
    invalidations: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class EngineMetrics:
    """One immutable snapshot of everything the engines counted.

    ``rule_firings`` maps a rule's source form to how many times it fired
    (compiled/semi-naive: calls of its join plan; operational: solutions
    of its body); a query's goal rules are counted under their head
    predicate (``__answer``), so the label set stays bounded by the
    program's rules plus one.  ``rows_derived`` counts the rows those firings emitted
    *before* deduplication against the store.  ``rounds`` maps a fixpoint
    scope (``stratum[i]``, ``operational-inner``, ...) to its round
    count.  ``spans`` is the span forest of the most recent traced
    evaluation as dicts (see :mod:`repro.obs.trace`).
    """

    asks: int = 0
    rule_firings: dict[str, int] = field(default_factory=dict)
    rows_derived: dict[str, int] = field(default_factory=dict)
    rounds: dict[str, int] = field(default_factory=dict)
    join_probes: int = 0
    candidate_calls: int = 0
    #: batch operators of the columnar backend's vectorized plans:
    #: whole-delta hash-join probes, build-side hash-table builds (or
    #: incremental extensions), and rows dropped as duplicates by bulk
    #: inserts.  Zero on the row-at-a-time paths.
    batch_probes: int = 0
    batch_builds: int = 0
    batch_dedup_rows: int = 0
    cache: dict[str, CacheSnapshot] = field(default_factory=dict)
    spans: tuple[dict, ...] = ()
    budget_exceeded: str | None = None
    #: set by the resilience layer when this ask was served degraded:
    #: ``"<plan>:<reason>"`` (e.g. ``"compiled:budget-rows"``); ``None``
    #: on the normal path.
    degraded: str | None = None
    #: cumulative resilience counters: transient retries spent and asks
    #: served degraded, across the session.
    retries: int = 0
    degraded_asks: int = 0
    #: which attempt produced this snapshot (a session-wide ordinal that,
    #: unlike ``asks``, also counts aborted retried attempts; for an ask
    #: the resilience executor served, its attempt on that ask) and the
    #: plan that served it (``None`` outside the executor).
    attempt: int | None = None
    rung: str | None = None

    @property
    def total_firings(self) -> int:
        return sum(self.rule_firings.values())

    @property
    def total_rows_derived(self) -> int:
        return sum(self.rows_derived.values())

    def to_dict(self) -> dict:
        return {
            "asks": self.asks,
            "rule_firings": dict(self.rule_firings),
            "rows_derived": dict(self.rows_derived),
            "rounds": dict(self.rounds),
            "join_probes": self.join_probes,
            "candidate_calls": self.candidate_calls,
            "batch_probes": self.batch_probes,
            "batch_builds": self.batch_builds,
            "batch_dedup_rows": self.batch_dedup_rows,
            "cache": {name: snap.to_dict() for name, snap in self.cache.items()},
            "spans": list(self.spans),
            "budget_exceeded": self.budget_exceeded,
            "degraded": self.degraded,
            "retries": self.retries,
            "degraded_asks": self.degraded_asks,
            "attempt": self.attempt,
            "rung": self.rung,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def summary(self) -> str:
        """A short human-readable digest (the CLI's ``:stats`` output)."""
        lines = [
            f"asks: {self.asks}",
            f"rule firings: {self.total_firings} "
            f"({len(self.rule_firings)} distinct rules, "
            f"{self.total_rows_derived} rows pre-dedup)",
            f"join probes: {self.join_probes}  "
            f"candidate scans: {self.candidate_calls}",
        ]
        if self.batch_probes or self.batch_builds or self.batch_dedup_rows:
            lines.append(f"batch ops: {self.batch_probes} probes / "
                         f"{self.batch_builds} builds / "
                         f"{self.batch_dedup_rows} duplicate rows dropped")
        if self.rounds:
            rounds = ", ".join(f"{k}={v}" for k, v in sorted(self.rounds.items()))
            lines.append(f"fixpoint rounds: {rounds}")
        for name, snap in sorted(self.cache.items()):
            lines.append(
                f"cache {name}: {snap.hits} hits / {snap.misses} misses "
                f"(rate {snap.hit_rate:.2f}, {snap.invalidations} invalidations)"
            )
        if self.budget_exceeded:
            lines.append(f"budget exceeded: {self.budget_exceeded}")
        if self.degraded:
            lines.append(f"degraded: {self.degraded}")
        if self.retries or self.degraded_asks:
            lines.append(f"resilience: {self.retries} retries, "
                         f"{self.degraded_asks} degraded asks")
        if self.rung is not None:
            lines.append(f"served by: attempt {self.attempt} on rung {self.rung}")
        top = sorted(self.rule_firings.items(), key=lambda kv: -kv[1])[:5]
        for label, count in top:
            shown = label if len(label) <= 72 else label[:69] + "..."
            lines.append(f"  {count:>6}x  {shown}")
        return "\n".join(lines)


class MetricsCollector:
    """Mutable counters the engines write into.

    A session keeps two kinds: one ask-local collector per ask, which
    the engines write into while the ask runs, and one cumulative
    collector across *served* asks.  An ask that returns (or ends in a
    budget abort, whose partial work is what it served) is folded into
    the totals with :meth:`merge`; any other failure drops its
    collector, so an aborted attempt's firings, rounds and probes never
    reach the totals.  The ``attempts`` ordinal still counts a dropped
    ask, and the resilience counters (``retries`` / ``degraded_asks``)
    record the resilience executor's tries.
    """

    __slots__ = ("rule_firings", "rows_derived", "rounds",
                 "join_probes", "candidate_calls",
                 "batch_probes", "batch_builds", "batch_dedup_rows", "asks",
                 "attempts", "retries", "degraded_asks")

    enabled = True

    def __init__(self) -> None:
        self.rule_firings: Counter = Counter()
        self.rows_derived: Counter = Counter()
        self.rounds: dict[str, int] = {}
        self.join_probes = 0
        self.candidate_calls = 0
        self.batch_probes = 0
        self.batch_builds = 0
        self.batch_dedup_rows = 0
        self.asks = 0
        self.attempts = 0
        self.retries = 0
        self.degraded_asks = 0

    # -- engine-facing increments ---------------------------------------
    def rule_fired(self, label: str, rows: int) -> None:
        self.rule_firings[label] += 1
        self.rows_derived[label] += rows

    def record_rounds(self, scope: str, rounds: int) -> None:
        self.rounds[scope] = self.rounds.get(scope, 0) + rounds

    def add_probes(self, n: int) -> None:
        self.join_probes += n

    def add_candidate_calls(self, n: int) -> None:
        self.candidate_calls += n

    def add_batch_ops(self, probes: int, builds: int, dedup_rows: int) -> None:
        self.batch_probes += probes
        self.batch_builds += builds
        self.batch_dedup_rows += dedup_rows

    def count_ask(self) -> None:
        self.asks += 1
        self.attempts += 1

    def merge(self, ask: "MetricsCollector") -> None:
        """Fold one served ask's collector into these totals.

        Costs O(labels the ask touched), not O(labels ever seen).
        """
        self.rule_firings.update(ask.rule_firings)
        self.rows_derived.update(ask.rows_derived)
        for scope, rounds in ask.rounds.items():
            self.record_rounds(scope, rounds)
        self.join_probes += ask.join_probes
        self.candidate_calls += ask.candidate_calls
        self.batch_probes += ask.batch_probes
        self.batch_builds += ask.batch_builds
        self.batch_dedup_rows += ask.batch_dedup_rows
        self.asks += ask.asks
        self.attempts += ask.attempts

    # -- snapshotting ----------------------------------------------------
    def snapshot(self, recorder=None, budget_exceeded: str | None = None,
                 rung: str | None = None, attempt: int | None = None
                 ) -> EngineMetrics:
        """Freeze the counters (plus cache stats and a span forest)."""
        spans: tuple[dict, ...] = ()
        if recorder is not None and recorder.enabled:
            spans = tuple(recorder.to_dicts())
        cache = {
            name: CacheSnapshot(stats.hits, stats.misses, stats.invalidations)
            for name, stats in cache_stats().items()
        }
        return EngineMetrics(
            asks=self.asks,
            rule_firings=dict(self.rule_firings),
            rows_derived=dict(self.rows_derived),
            rounds=dict(self.rounds),
            join_probes=self.join_probes,
            candidate_calls=self.candidate_calls,
            batch_probes=self.batch_probes,
            batch_builds=self.batch_builds,
            batch_dedup_rows=self.batch_dedup_rows,
            cache=cache,
            spans=spans,
            budget_exceeded=budget_exceeded,
            retries=self.retries,
            degraded_asks=self.degraded_asks,
            attempt=attempt or self.attempts or None,
            rung=rung,
        )

    def reset(self) -> None:
        self.rule_firings.clear()
        self.rows_derived.clear()
        self.rounds.clear()
        self.join_probes = 0
        self.candidate_calls = 0
        self.batch_probes = 0
        self.batch_builds = 0
        self.batch_dedup_rows = 0
        self.asks = 0
        self.attempts = 0
        self.retries = 0
        self.degraded_asks = 0


class NullMetrics:
    """The disabled path: every increment is a no-op."""

    __slots__ = ()

    enabled = False

    def rule_fired(self, label: str, rows: int) -> None:
        pass

    def record_rounds(self, scope: str, rounds: int) -> None:
        pass

    def add_probes(self, n: int) -> None:
        pass

    def add_candidate_calls(self, n: int) -> None:
        pass

    def add_batch_ops(self, probes: int, builds: int, dedup_rows: int) -> None:
        pass


NULL_METRICS = NullMetrics()
