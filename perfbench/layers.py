"""Per-layer metrics of a traced run.

Every number comes from the tracer's spans (self or inclusive time of
calls into one layer, or what one call added to the journal file), from
the server's public Prometheus exposition or from
``repro.cache.cache_stats()``, each taken as a difference across a
phase.

Counts describe the measured phase.  A layer's time comes from the
measured phase when the phase calls into that layer; otherwise it comes
from the coverage probe that follows the phase, and failing that from
set-up.  So every layer reports a measured time on every workload.  The
operational fixpoint metrics come from set-up, which is where a change to
set-up shows.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass

from repro.cache import cache_stats

from stats import percentile
from tracer import Tracer

_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")

NS = "multilog_serving_"

#: ``Span.round`` of set-up and coverage-probe spans; measured rounds
#: count up from 0.
SETUP_ROUND = -1
PROBE_ROUND = -2


def exposition(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` of a Prometheus text exposition."""
    values = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            values[match[1] + (match[2] or "")] = float(match[3])
    return values


@dataclass
class Snapshot:
    """Cumulative server-side counters at one instant of a traced run."""

    metrics: dict[str, float]
    memo: tuple[int, int]
    audit_events: int

    @classmethod
    def take(cls, server) -> "Snapshot":
        stats = cache_stats().get("tau-translations")
        log = server.audit
        return cls(
            exposition(server.metrics_text()),
            (stats.hits, stats.misses) if stats is not None else (0, 0),
            sum(log.count(event) for event in log) if log is not None else 0)

    def delta(self, later: "Snapshot", key: str) -> float:
        return later.metrics.get(key, 0.0) - self.metrics.get(key, 0.0)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, measured_samples, probe_samples,
                  start: Snapshot, end: Snapshot, probed: Snapshot,
                  traced_throughput: float,
                  untraced_throughput: float) -> dict[str, tuple[float, str]]:
    """``{metric: (value, unit)}`` of a traced run.

    ``start`` and ``end`` bracket the measured phase, ``probed`` is taken
    after the coverage probe; the samples are the client's.
    """
    selfs = tracer.self_times()
    spans = tracer.spans
    by_phase = {SETUP_ROUND: defaultdict(list), PROBE_ROUND: defaultdict(list)}
    measured = defaultdict(list)
    for index, span in enumerate(spans):
        by_phase.get(span.round, measured)[span.name].append(index)

    def pick(name: str, keep=lambda index: True) -> list[int]:
        """Spans of ``name``: the measured phase's, else the probe's,
        else set-up's."""
        for source in (measured, by_phase[PROBE_ROUND], by_phase[SETUP_ROUND]):
            found = [i for i in source[name] if keep(i)]
            if found:
                return found
        return []

    def self_ms(name: str, keep=lambda index: True) -> float:
        return 1000 * _mean(selfs[i] for i in pick(name, keep))

    def total_ms(name: str) -> float:
        return 1000 * _mean(spans[i].duration for i in pick(name))

    def wait_ms(family: str, labels: str = "") -> float:
        """Mean wait of one exposition histogram: over the measured phase,
        or over the probe when the phase never waited on it."""
        for before, after in ((start, end), (end, probed)):
            count = before.delta(after, f"{NS}{family}_count{labels}")
            if count:
                total = before.delta(after, f"{NS}{family}_sum{labels}")
                return 1000 * total / count
        return 0.0

    asks = [s for s in measured_samples if s.op == "ask"]
    versions = max(1, len({s.version for s in asks}))
    n_asks = max(1, len(asks))
    hits = end.memo[0] - start.memo[0]
    misses = end.memo[1] - start.memo[1]
    deltas = [spans[i].extra for i in measured["session.ask"]
              if spans[i].extra is not None]
    first_computes = [i for i in by_phase[SETUP_ROUND]["operational.compute"]
                      if spans[i].extra]
    pool_sessions = sum(value for key, value in end.metrics.items()
                        if key.startswith(f"{NS}pool_sessions{{"))
    ask_ms = 1000 * _mean(spans[i].duration for i in measured["session.ask"])

    def client_p50(kind: str) -> float:
        """Median client latency of one kind of sample: the measured
        phase's, else the probe's."""
        for samples in (measured_samples, probe_samples):
            found = [1000 * s.latency_s for s in samples if s.kind == kind]
            if found:
                return percentile(found, 50)
        return 0.0

    return {
        "protocol.decode_us": (1000 * self_ms("protocol.decode"), "us"),
        "protocol.encode_us": (1000 * self_ms("protocol.encode"), "us"),
        "protocol.response_bytes": (
            _mean(spans[i].extra for i in measured["protocol.encode"]),
            "bytes"),
        "pool.checkout_us": (1000 * total_ms("pool.checkout"), "us"),
        "pool.checkout_wait_ms": (wait_ms("pool_wait_seconds"), "ms"),
        "server.lock_wait_read_ms": (
            wait_ms("lock_wait_seconds", '{side="read"}'), "ms"),
        "server.lock_wait_write_ms": (
            wait_ms("lock_wait_seconds", '{side="write"}'), "ms"),
        "server.shed": (start.delta(end, f"{NS}shed_total"), "count"),
        "server.degraded": (start.delta(end, f"{NS}degraded_total"), "count"),
        "pool.sessions": (pool_sessions, "count"),
        "session.ask_ms": (ask_ms, "ms"),
        "session.serving_overhead_ms": (
            1000 * _mean(s.latency_s for s in asks) - ask_ms, "ms"),
        "session.assert_ms": (total_ms("session.assert"), "ms"),
        "client.fresh_ask_p50_ms": (client_p50("fresh"), "ms"),
        "client.assert_p50_ms": (client_p50("assert"), "ms"),
        "admissibility.calls": (len(measured["admissibility"]) / versions,
                                "count/version"),
        "admissibility.ms": (self_ms("admissibility"), "ms"),
        "journal.append_ms": (self_ms("journal.append"), "ms"),
        "journal.bytes": (_mean(spans[i].extra
                                for i in pick("journal.append")),
                          "bytes/assert"),
        "tau.translations": (misses / versions, "count/version"),
        "datalog.fixpoints": (len(measured["datalog.evaluate"]) / versions,
                              "count/version"),
        "tau.translate_ms": (
            1000 * _mean(spans[i].duration
                         for i in pick("tau.translate",
                                       lambda i: spans[i].extra)), "ms"),
        "tau.memo_hit_rate": (hits / (hits + misses) if hits + misses
                              else 0.0, "ratio"),
        "datalog.stratify_ms": (
            self_ms("datalog.stratify",
                    lambda i: tracer.under(i, "datalog.evaluate")), "ms"),
        "datalog.evaluate_ms": (self_ms("datalog.evaluate"), "ms"),
        "datalog.rows_derived": (sum(d[0] for d in deltas) / n_asks,
                                 "count/ask"),
        "datalog.join_probes": (sum(d[1] for d in deltas) / n_asks,
                                "count/ask"),
        "datalog.batch_probes": (sum(d[2] for d in deltas) / n_asks,
                                 "count/ask"),
        "reduction.answer_ms": (self_ms("reduction.query"), "ms"),
        "operational.solve_ms": (self_ms("operational.solve"), "ms"),
        "audit.events_per_ask": (
            (end.audit_events - start.audit_events) / n_asks, "count/ask"),
        "operational.fixpoints": (len(first_computes), "count"),
        "operational.fixpoint_ms": (
            1000 * _mean(spans[i].duration for i in first_computes
                         or pick("operational.compute",
                                 lambda i: spans[i].extra)), "ms"),
        "trace.overhead_pct": (
            100 * (untraced_throughput / traced_throughput - 1), "%"),
    }
