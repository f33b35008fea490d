"""The asyncio MultiLog server: thousands of clients, one database.

Architecture (docs/SERVING.md has the full walkthrough)::

    clients --newline-framed JSON--> MultiLogServer
                                        |  admission control (shed / degrade)
                                        |  read-write lock (snapshot isolation)
                                        v
                     SessionPool -- exclusive with_clearance() siblings
                                        |
                                        v
                        one shared MultiLogDatabase (+ journal)

* **Reads** (``ask``) take the read side of an asyncio read-write lock
  and run on a thread pool; any number proceed concurrently.  Because
  writers are excluded while any read is in flight, ``database.version``
  is frozen for the whole ask -- every answer is computed against exactly
  one version, which the response reports (snapshot isolation riding the
  existing version counter; the engine caches are already keyed on it).
* **Writes** (``assert``) take the write side -- they wait for in-flight
  reads to drain, run one at a time, and go through
  ``MultiLogSession.assert_clause`` so Definition 5.3 validation and
  the write-ahead journal apply unchanged: a clause is validated and
  journaled before the shared database takes it.  The assert that
  grows the journal past a checkpoint threshold compacts it in the
  same hop, still under the write lock.
  The lock is write-preferring: a waiting writer blocks new readers, so
  sustained ask traffic cannot starve asserts.
* **One ask path**: every ask runs through a
  :class:`~repro.resilience.ResilientExecutor`, which retries transient
  faults on the backend's native plan; any other failure is an error
  response, whatever the load.
* **Admission control** keeps the queue bounded instead of letting load
  build unboundedly: past ``max_inflight`` requests are **shed** with a
  ``shed`` error (transient -- clients retry after backoff); past
  ``degrade_at * max_inflight`` asks run **degraded**: under
  ``shed_budget`` instead of the session's budget, and an ask the
  budget cuts is answered with the partial answers it derived, flagged
  ``complete: false`` and ``degraded: "<plan>:budget-<reason>"``,
  rather than queuing for a full evaluation.
* **Observability**: every request feeds a per-op latency histogram and
  the ``multilog_serving_*`` Prometheus counters
  (accepted/shed/degraded/inflight/...); with ``audit=True`` every
  pooled session funnels into one server-wide
  :class:`~repro.obs.audit.AuditLog`, so cross-clearance leak checks see
  all levels at once (the CI smoke job asserts the trail is leak-free
  under 200 concurrent clients).
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable

from repro.errors import (
    BudgetExceededError,
    DataCorruptionError,
    FaultInjectedError,
    JournalError,
    LatticeError,
    MultiLogSyntaxError,
    PlanVerificationError,
    ProtocolError,
    ReproError,
    SessionBusyError,
)
from repro.multilog.ast import MultiLogDatabase
from repro.multilog.session import MultiLogSession
from repro.obs.audit import AuditLog
from repro.obs.budget import EvaluationBudget
from repro.obs.context import ObsContext
from repro.obs.context import use as use_obs
from repro.obs.export import prometheus_family
from repro.obs.histogram import HistogramSet
from repro.obs.trace import (
    Span,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.resilience import PartialResult, ResilientExecutor
from repro.serving.breaker import CircuitBreaker
from repro.serving.pool import SessionPool
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    decode_request,
    encode_message,
    error_response,
    ok_response,
)
from repro.serving.requestlog import AccessLog, SlowLog, SLOTracker

#: backoff hint (seconds) sent with transient rejections (shed/quota/
#: draining) -- matches the HTTP shim's ``Retry-After: 1``.
RETRY_AFTER_S = 1.0

#: budget applied to degraded asks when the config leaves it unset: deep
#: enough for the paper-scale workloads, shallow enough that an overload
#: cannot pin a worker thread for long.
DEFAULT_SHED_BUDGET = EvaluationBudget(max_derived_rows=200_000,
                                       max_rounds=500, timeout_s=2.0)


@dataclass
class ServerConfig:
    """Tunables of one :class:`MultiLogServer` (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off ``server.address``
    clearance: str | None = None
    backend: str | None = None
    journal: str | None = None
    engine: str = "operational"
    #: hard admission cap: requests past this many in flight are shed.
    max_inflight: int = 64
    #: fraction of ``max_inflight`` past which asks run degraded
    #: (budgeted, partial answers allowed) instead of full evaluations.
    degrade_at: float = 0.75
    #: budget for degraded asks (``None`` -> :data:`DEFAULT_SHED_BUDGET`).
    shed_budget: EvaluationBudget | None = None
    #: worker threads the blocking engine calls run on.  The engine is
    #: pure Python (GIL-bound), so a handful is plenty; more threads buy
    #: fairness between requests, not throughput.
    workers: int = 8
    audit: bool = True
    max_line_bytes: int = MAX_LINE_BYTES
    #: server-side default deadline applied when neither the request nor
    #: the connection ``hello`` named one (``None`` = no deadline).
    default_timeout_s: float | None = None
    #: per-clearance admission quotas layered *under* ``max_inflight``:
    #: ``{"u": 16}`` caps unclassified traffic at 16 in flight while
    #: other levels still share the global cap.  ``None``/missing level
    #: = no per-level cap.
    clearance_quotas: dict[str, int] | None = None
    #: consecutive server-side failures of one op before its circuit
    #: breaker opens.
    breaker_threshold: int = 8
    #: seconds an open breaker waits before admitting a half-open probe.
    breaker_reset_s: float = 5.0
    #: checkpoint the journal after this many clause records since the
    #: last snapshot (``None`` disables the record threshold).
    checkpoint_records: int | None = 1000
    #: ... or once the journal file exceeds this many bytes.
    checkpoint_bytes: int | None = 4 * 1024 * 1024
    #: how long :meth:`MultiLogServer.drain` waits for inflight requests.
    drain_timeout_s: float = 10.0
    #: request-scoped tracing: every ask/assert runs under a root span
    #: (``request[op]``) carrying the client's ``traceparent`` ids, with
    #: the engine's span tree grafted beneath it.  Off by default -- the
    #: serving bench gates the overhead at <5% p95.
    trace: bool = False
    #: sink each request's root span streams to as it closes (a
    #: :class:`~repro.obs.export.TelemetrySink`: ``JsonlSpanSink`` for
    #: disk, ``ListSink`` for tests).  Only consulted when ``trace``.
    trace_sink: object | None = None
    #: structured JSONL access log path (one line per request; ``None``
    #: disables).  Implies per-request breakdown accounting.
    access_log: str | None = None
    access_log_max_bytes: int = 8 * 1024 * 1024
    access_log_max_files: int = 3
    #: slow-query capture: ok requests slower than this (seconds) -- and
    #: every errored request -- keep their span tree + EXPLAIN sketch in
    #: a bounded ring.  ``None`` disables capture entirely.
    slow_threshold_s: float | None = None
    #: ring-buffer capacity of the slow log.
    slow_capacity: int = 64
    #: SLO target (good-request fraction) behind the per-op burn-rate
    #: gauges; 0.99 = a 1% error budget.
    slo_target: float = 0.99
    #: latency objective: an ok answer slower than this still counts
    #: *bad* for the SLO (``None`` = outcome-only SLO).
    slo_latency_s: float | None = None

    def degrade_threshold(self) -> int:
        return max(1, int(self.max_inflight * self.degrade_at))

    def checkpoint_due(self, records: int, size_bytes: int) -> bool:
        """Has the journal crossed either checkpoint threshold?

        The thresholds are disjunctive; ``None`` disables one, and with
        both disabled no checkpoint is ever due.
        """
        return ((self.checkpoint_records is not None
                 and records >= self.checkpoint_records)
                or (self.checkpoint_bytes is not None
                    and size_bytes >= self.checkpoint_bytes))


class ServingStats:
    """The serving dashboard: counters + per-op latency histograms."""

    COUNTERS = (
        ("accepted_total", "Requests admitted past admission control."),
        ("completed_total", "Requests finished with an ok response."),
        ("shed_total", "Requests dropped by admission control (overload)."),
        ("quota_shed_total", "Requests dropped by a per-clearance quota."),
        ("degraded_total", "Asks served degraded (budget-partial answers)."),
        ("deadline_total", "Requests aborted by their timeout_s deadline."),
        ("cancelled_total", "Asks cancelled after the client disconnected."),
        ("breaker_rejected_total", "Requests rejected by an open breaker."),
        ("errors_total", "Requests answered with an error response."),
        ("asks_total", "Ask operations served."),
        ("asserts_total", "Assert operations applied."),
        ("connections_total", "Client connections accepted."),
        ("disconnects_total", "Connections dropped mid-request by the peer."),
        ("checkpoints_total", "Journal checkpoints taken."),
        ("checkpoint_failures_total", "Journal checkpoints that failed."),
    )

    # counter slots (one per COUNTERS row, created in __init__); declared
    # so incrementing them as plain attributes typechecks
    accepted_total: int
    completed_total: int
    shed_total: int
    quota_shed_total: int
    degraded_total: int
    deadline_total: int
    cancelled_total: int
    breaker_rejected_total: int
    errors_total: int
    asks_total: int
    asserts_total: int
    connections_total: int
    disconnects_total: int
    checkpoints_total: int
    checkpoint_failures_total: int

    def __init__(self) -> None:
        for name, _help in self.COUNTERS:
            setattr(self, name, 0)
        self.inflight = 0
        self.connections = 0
        self.inflight_by_clearance: dict[str, int] = {}
        self.histograms = HistogramSet()
        #: per-op SLO monitors (attached by the server when configured).
        self.slo: SLOTracker | None = None

    def observe(self, op: str, seconds: float) -> None:
        """Feed the per-op latency histogram.

        ``op`` must be a protocol op or the ``invalid`` pseudo-op the
        server files undecodable requests under -- anything else is
        normalized to ``invalid`` so attacker-chosen op strings cannot
        mint unbounded histogram families (label-cardinality hygiene).
        """
        if op not in OPS and op != "invalid":
            op = "invalid"
        self.histograms.observe(f"serve[{op}]", seconds)

    def observe_pool_wait(self, seconds: float) -> None:
        """Session-pool checkout wait (blocked on the per-clearance cap)."""
        self.histograms.observe("pool[wait]", seconds)

    def observe_lock_wait(self, side: str, seconds: float) -> None:
        """RW-lock acquisition wait (``side`` is ``read`` or ``write``)."""
        self.histograms.observe(f"lock[{side}]", seconds)

    def snapshot(self) -> dict:
        out = {name: getattr(self, name) for name, _help in self.COUNTERS}
        out["inflight"] = self.inflight
        out["connections"] = self.connections
        out["inflight_by_clearance"] = dict(self.inflight_by_clearance)
        out["latency"] = self.histograms.to_dict()
        return out

    def render_prometheus(self, namespace: str = "multilog_serving",
                          pool: SessionPool | None = None,
                          breakers: dict[str, CircuitBreaker] | None = None,
                          write_queue_depth: int | None = None,
                          ) -> str:
        """Prometheus text exposition of the serving dashboard."""
        lines: list[str] = []

        def family(name: str, kind: str, help_text: str,
                   samples: Iterable[tuple[dict, Any]]) -> None:
            lines.extend(prometheus_family(f"{namespace}_{name}", kind,
                                           help_text, samples))

        for name, help_text in self.COUNTERS:
            family(name, "counter", help_text, [({}, getattr(self, name))])
        for name, help_text in (("inflight", "Requests currently in flight."),
                                ("connections", "Open client connections.")):
            family(name, "gauge", help_text, [({}, getattr(self, name))])
        if self.inflight_by_clearance:
            family("inflight_by_clearance", "gauge",
                   "Requests in flight per clearance.",
                   [({"clearance": level}, self.inflight_by_clearance[level])
                    for level in sorted(self.inflight_by_clearance)])
        if breakers:
            ops = sorted(breakers)
            family("breaker_state", "gauge",
                   "Circuit breaker state per op "
                   "(0=closed, 1=half-open, 2=open).",
                   [({"op": op}, breakers[op].state_code) for op in ops])
            family("breaker_opened_total", "counter",
                   "Times each breaker tripped open.",
                   [({"op": op}, breakers[op].opened_total) for op in ops])
        if pool is not None:
            family("pool_sessions", "gauge",
                   "Pooled sessions per clearance and state.",
                   [({"clearance": level, "state": state}, counts[state])
                    for level, counts in pool.stats().items()
                    for state in ("busy", "free")])
        if write_queue_depth is not None:
            family("write_queue_depth", "gauge",
                   "Writers waiting on the RW lock.", [({}, write_queue_depth)])
        # Histogram families are fed as ``serve[op]``, ``pool[wait]`` and
        # ``lock[side]``; the bracketed part becomes the label, if any.
        for prefix, label, name, help_text in (
                ("serve[", "op", "request_seconds",
                 "Request latency per operation."),
                ("pool[", None, "pool_wait_seconds",
                 "Session-pool checkout wait."),
                ("lock[", "side", "lock_wait_seconds",
                 "RW-lock acquisition wait per side.")):
            samples = [({label: key[len(prefix):-1]} if label else {},
                        self.histograms.histograms[key])
                       for key in self.histograms.families()
                       if key.startswith(prefix)]
            if samples:
                family(name, "histogram", help_text, samples)
        if self.slo is not None:
            family("slo_target", "gauge",
                   "Good-request fraction the SLO monitors aim for.",
                   [({}, self.slo.target)])
            rates = self.slo.burn_rates()
            if rates:
                family("slo_burn_rate", "gauge",
                       "Error-budget burn rate per op and window "
                       "(1.0 = spending the budget exactly).",
                       [({"op": op, "window": window}, rate)
                        for op, windows in rates.items()
                        for window, rate in sorted(windows.items())])
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _ErrorRule:
    """How one exception from a data op's executor hop is answered."""

    exc: type[Exception] | tuple[type[Exception], ...]
    code: str
    #: ``str.format`` template over ``exc``, ``kind`` (its class name)
    #: and ``timeout_s`` (the request's deadline).
    message: str = "{exc}"
    #: :class:`ServingStats` counter bumped besides ``errors_total``.
    counter: str | None = None
    #: a server-side failure: counts against the op's circuit breaker.
    breaker: bool = False
    #: the one op the row applies to (``None``: both).
    op: str | None = None
    #: the :class:`~repro.errors.BudgetExceededError` reason it applies to;
    #: ``deadline`` is a ``timeout`` under a request deadline.
    reason: str | None = None


#: Exception -> error response for ``ask`` and ``assert``; first match
#: wins.  Client-attributable failures -- the request's own budget or
#: deadline, a bad query or clearance -- never count against a breaker.
_ERRORS = (
    _ErrorRule(BudgetExceededError, "cancelled",
               "client disconnected mid-ask; evaluation cancelled",
               counter="cancelled_total", op="ask", reason="cancelled"),
    _ErrorRule(BudgetExceededError, "deadline",
               "deadline of {timeout_s}s passed: {exc}",
               counter="deadline_total", op="ask", reason="deadline"),
    _ErrorRule(MultiLogSyntaxError, "bad-query"),
    _ErrorRule(LatticeError, "bad-clearance"),
    # Should be impossible behind the pool's exclusive checkout; if it
    # surfaces, its own code keeps it visible.
    _ErrorRule(SessionBusyError, "busy"),
    # Durability failing (full disk, fsync fault) is a server problem:
    # repeated failures start failing fast instead of grinding every
    # client through the same broken disk.
    _ErrorRule(JournalError, "internal", breaker=True, op="assert"),
    # So is a fault in the engine itself -- an injected one, detected
    # corruption that outlived its retries, or a generated plan that
    # failed verification -- whether or not the server is loaded.
    _ErrorRule((FaultInjectedError, DataCorruptionError,
                PlanVerificationError), "internal", breaker=True),
    _ErrorRule(ReproError, "rejected"),
    _ErrorRule(Exception, "internal", "{kind}: {exc}", breaker=True),
)


def _error_rule(op: str, exc: Exception, timeout_s: float | None) -> _ErrorRule:
    """The first :data:`_ERRORS` row matching ``exc`` raised by ``op``."""
    reason = exc.reason if isinstance(exc, BudgetExceededError) else None
    if reason == "timeout" and timeout_s is not None:
        reason = "deadline"
    for rule in _ERRORS:
        if (isinstance(exc, rule.exc) and rule.op in (None, op)
                and rule.reason in (None, reason)):
            return rule
    return _ERRORS[-1]


class _ReadWriteLock:
    """Write-preferring asyncio read-write lock.

    Any number of readers proceed together; a writer waits for in-flight
    readers to drain and excludes everything while it runs.  A *waiting*
    writer blocks new readers, so sustained reads cannot starve writes.
    """

    def __init__(self) -> None:
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0
        self._cond = asyncio.Condition()

    @property
    def waiting_writers(self) -> int:
        """Writers parked behind readers right now (queue-depth gauge)."""
        return self._waiting_writers

    @asynccontextmanager
    async def read(self):
        async with self._cond:
            while self._writer or self._waiting_writers:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @asynccontextmanager
    async def write(self):
        async with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer = False
                self._cond.notify_all()


@dataclass
class _Connection:
    """Per-connection state (the ``hello``-pinned defaults)."""

    clearance: str | None = None
    peer: str = ""
    requests: int = 0
    closing: bool = field(default=False)
    #: default deadline pinned by ``hello`` (per-request override wins).
    timeout_s: float | None = None


def _cancel_on_hang_up(cancel: threading.Event,
                       read_ahead: "asyncio.Future[bytes]") -> None:
    """Read-ahead done callback: flip ``cancel`` if the peer hung up.

    ``read_ahead`` is the connection loop's read of the *next* request;
    it ending at EOF or in a connection error while the current request
    is served means the client is gone.  ``LimitOverrunError`` and
    ``ValueError`` say only that the next pipelined line is oversized or
    unframed: the peer is still owed the current response, and the loop
    answers ``line-too-long`` after it.  A cancelled read flips nothing.
    """
    if read_ahead.cancelled():
        return
    exc = read_ahead.exception()
    # IncompleteReadError is an EOFError; ConnectionResetError and
    # BrokenPipeError are OSErrors -- all mean the peer is gone.
    if (isinstance(exc, (EOFError, OSError))
            or (exc is None and not read_ahead.result())):
        cancel.set()


class _RequestScope:
    """Per-request observability state: trace ids, root span, breakdown.

    Built by :meth:`MultiLogServer._begin_scope` when tracing, the
    access log or the slow log is enabled -- ``None`` otherwise, so the
    bare serving hot path allocates nothing per request.  The breakdown
    dict accrues the resource waits (``admission_s``, ``lock_wait_s``,
    ``pool_wait_s``, ``engine_s``) the data pipeline measures around its
    awaits; :meth:`MultiLogServer._finish_scope` folds everything into
    the root span, the access log and (when it qualifies) the slow log.
    """

    __slots__ = ("op", "level", "started", "trace_id", "span_id",
                 "parent_span_id", "root", "breakdown",
                 "query", "engine", "run_stats")

    def __init__(self, op: str, level: str) -> None:
        self.op = op
        self.level = level
        self.started = perf_counter()
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_span_id: str | None = None
        self.root: Span | None = None
        self.breakdown: dict[str, float] = {}
        self.query: str | None = None
        self.engine: str | None = None
        self.run_stats: dict | None = None

    def mark(self, key: str, since: float) -> None:
        self.breakdown[key] = perf_counter() - since


def _ask_run_stats(ask, want_explain: bool) -> dict | None:
    """One request's engine counts + EXPLAIN sketch for the slow log.

    ``ask`` is the served ask's own collector
    (``MultiLogSession.last_ask_metrics()``), so its counters are this
    request's alone.  The firings scan and the EXPLAIN sketch (top five
    rules by firing count -- enough to see which join went quadratic
    without retaining the whole derivation) are only consumed by the
    slow log, so ``want_explain=False`` keeps the traced hot path down
    to a few integer reads.
    """
    if ask is None:
        return None
    rows = sum(ask.rows_derived.values())
    probes = ask.join_probes + ask.batch_probes
    if not want_explain:
        return {"rows": rows, "probes": probes}
    fired = sorted(((count, label) for label, count in ask.rule_firings.items()),
                   reverse=True)
    lines = [f"{count}x {label if len(label) <= 96 else label[:93] + '...'}"
             for count, label in fired[:5]]
    lines.append(f"rows={rows} probes={probes}")
    return {"rows": rows, "probes": probes, "explain": "\n".join(lines)}


class MultiLogServer:
    """Serve one shared MultiLog database to many concurrent clients."""

    def __init__(self, source: str | MultiLogDatabase | MultiLogSession,
                 config: ServerConfig | None = None, **overrides):
        self.config = config if config is not None else ServerConfig()
        for key, value in overrides.items():
            if not hasattr(self.config, key):
                raise TypeError(f"unknown server config field {key!r}")
            setattr(self.config, key, value)
        if isinstance(source, MultiLogSession):
            self.root = source
        else:
            self.root = MultiLogSession(source, self.config.clearance,
                                        backend=self.config.backend)
        if self.config.journal is not None and self.root.journal is None:
            self.root.attach_journal(self.config.journal)
        self.audit: AuditLog | None = None
        if self.config.audit:
            self.audit = self.root.enable_audit()
        self.stats = ServingStats()
        self.stats.slo = SLOTracker(target=self.config.slo_target)
        self.access_log: AccessLog | None = None
        if self.config.access_log is not None:
            self.access_log = AccessLog(
                self.config.access_log,
                max_bytes=self.config.access_log_max_bytes,
                max_files=self.config.access_log_max_files)
        self.slow_log: SlowLog | None = None
        if self.config.slow_threshold_s is not None:
            self.slow_log = SlowLog(
                capacity=self.config.slow_capacity,
                threshold_s=self.config.slow_threshold_s,
                lattice=self.root.lattice, audit=self.audit)
        #: request scopes exist when any per-request surface is on; the
        #: plain hot path (no tracing, no logs) allocates none of it.
        self._scoped = (self.config.trace or self.access_log is not None
                        or self.slow_log is not None)
        self.pool = SessionPool(
            self.root,
            on_create=self._setup_session,
            on_wait=self._observe_pool_wait)
        self._rw = _ReadWriteLock()
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="multilog-serve")
        self._shed_budget = (self.config.shed_budget
                             if self.config.shed_budget is not None
                             else DEFAULT_SHED_BUDGET)
        self._server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        #: open connection-handler tasks; ``stop()`` drains them so no
        #: handler is left to be cancelled noisily at loop shutdown.
        self._conn_tasks: set[asyncio.Task] = set()
        #: per-op circuit breakers (consecutive server-side failures).
        self._breakers: dict[str, CircuitBreaker] = {
            op: CircuitBreaker(threshold=self.config.breaker_threshold,
                               reset_s=self.config.breaker_reset_s)
            for op in ("ask", "assert")}
        #: graceful-shutdown flag: set by :meth:`drain`, checked by
        #: admission control and ``/healthz``.
        self._draining = False

    def _setup_session(self, session: MultiLogSession) -> None:
        """Wire a fresh pooled sibling into the server-wide observability."""
        if self.audit is not None:
            session.enable_audit(self.audit)

    def _observe_pool_wait(self, level: str, seconds: float) -> None:
        """Pool ``on_wait`` hook: checkout wait into the stats histogram."""
        self.stats.observe_pool_wait(seconds)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting framed-protocol connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=self.config.max_line_bytes + 2)
        return self.address

    async def start_http(self, host: str | None = None,
                         port: int = 0) -> tuple[str, int]:
        """Additionally serve the HTTP shim (see :mod:`repro.serving.http`)."""
        from repro.serving.http import handle_http_connection

        async def handler(reader, writer):
            task = asyncio.current_task()
            if task is not None:
                self._conn_tasks.add(task)
            try:
                await handle_http_connection(self, reader, writer)
            except asyncio.CancelledError:
                pass
            finally:
                if task is not None:
                    self._conn_tasks.discard(task)

        self._http_server = await asyncio.start_server(
            handler, host if host is not None else self.config.host, port,
            limit=self.config.max_line_bytes + 2)
        return self.http_address

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def http_address(self) -> tuple[str, int]:
        if self._http_server is None:
            raise RuntimeError("HTTP shim not started")
        sock = self._http_server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        server = self._server
        if server is None:  # pragma: no cover - start() always binds
            raise RuntimeError("server not started")
        await server.serve_forever()

    async def stop(self) -> None:
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._http_server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._threads.shutdown(wait=False, cancel_futures=True)
        if self.access_log is not None:
            self.access_log.close()

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: stop admitting, drain inflight, checkpoint.

        Sets the server ``draining`` (new requests are rejected with the
        ``draining`` code, ``/healthz`` turns 503), closes the listening
        sockets, waits up to ``timeout_s`` (default
        ``config.drain_timeout_s``) for inflight requests to finish, and
        takes a final journal checkpoint so a restart replays one
        snapshot instead of the whole history.  Returns ``True`` when
        everything in flight completed within the deadline.  The caller
        still owns :meth:`stop` for closing connections and threads.
        """
        if timeout_s is None:
            timeout_s = self.config.drain_timeout_s
        self._draining = True
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while self.stats.inflight and loop.time() < deadline:
            await asyncio.sleep(0.02)
        drained = self.stats.inflight == 0
        if self.root.journal is not None:
            await self.checkpoint()
        return drained

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def health(self) -> str:
        """``healthy``, ``degraded`` or ``draining`` (for ``/healthz``)."""
        if self._draining:
            return "draining"
        if self.stats.inflight >= self.config.degrade_threshold():
            return "degraded"
        if any(breaker.state != "closed"
               for breaker in self._breakers.values()):
            return "degraded"
        return "healthy"

    # -- checkpointing ------------------------------------------------
    def _compact(self, journal) -> bool:
        """Compact ``journal`` on a worker thread; False if it failed.

        Callers hold the write lock, so no assert is mid-flight while
        the journal is replaced -- SIGKILL at any instant leaves either
        the old journal or the new snapshot.  A failure is reported,
        never raised: the clauses it would have folded stay journaled.
        """
        try:
            journal.compact(self.root.database)
        except Exception:  # noqa: BLE001 -- checkpointing must not kill
            return False
        return True

    def _assert_clause(self, session: MultiLogSession, clause: str,
                       strict: bool) -> bool | None:
        """One assert on a worker thread, then the checkpoint it made due.

        Returns ``None`` when no checkpoint was due, else whether the
        compaction succeeded.  The checkpoint counter is read here, by
        the thread that just appended to it, under the write lock.
        """
        session.assert_clause(clause, strict=strict)
        journal = self.root.journal
        if journal is None or not self.config.checkpoint_due(
                *journal.checkpoint_stats()):
            return None
        return self._compact(journal)

    def _count_checkpoint(self, compacted: bool) -> None:
        if compacted:
            self.stats.checkpoints_total += 1
        else:
            self.stats.checkpoint_failures_total += 1

    async def checkpoint(self) -> bool:
        """Compact the journal now (under the write lock); True on success."""
        journal = self.root.journal
        if journal is None:
            return False
        loop = asyncio.get_running_loop()
        async with self._rw.write():
            compacted = await loop.run_in_executor(self._threads,
                                                   self._compact, journal)
        self._count_checkpoint(compacted)
        return compacted

    # -- framed-protocol connection handling ---------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # A task that *ends* cancelled trips asyncio.streams' done-callback
        # into logging a spurious "Exception in callback" on 3.11; ``stop``
        # cancels handlers on shutdown, so absorb that cancellation here.
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.stats.connections_total += 1
        self.stats.connections += 1
        conn = _Connection(peer=str(writer.get_extra_info("peername", "")))
        next_line: asyncio.Task | None = None
        try:
            while True:
                if next_line is None:
                    next_line = asyncio.ensure_future(reader.readline())
                try:
                    line = await next_line
                except (asyncio.LimitOverrunError, ValueError):
                    # Unframed or oversized input: answer once, hang up.
                    next_line = None
                    writer.write(encode_message(error_response(
                        None, "line-too-long",
                        f"request line exceeds {self.config.max_line_bytes} bytes")))
                    await writer.drain()
                    break
                next_line = None
                if not line:
                    break  # peer closed cleanly
                if not line.strip():
                    continue
                # Read ahead before serving: the pending readline is both
                # the pipelining queue (a client may send its next request
                # without waiting) and the disconnect probe -- it resolving
                # to EOF mid-request means the peer is gone, so its done
                # callback flips the cancel event and the evaluation aborts
                # inside the engine instead of burning a worker thread.
                next_line = asyncio.ensure_future(reader.readline())
                cancel = threading.Event()
                on_done = functools.partial(_cancel_on_hang_up, cancel)
                next_line.add_done_callback(on_done)
                try:
                    response = await self.handle_line(line, conn, cancel)
                finally:
                    next_line.remove_done_callback(on_done)
                writer.write(encode_message(response))
                await writer.drain()
                if conn.closing:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            # Mid-request disconnect: the request (if any) already ran to
            # completion and its session went back to the pool; all that
            # is lost is the response bytes.
            self.stats.disconnects_total += 1
        finally:
            if next_line is not None:
                next_line.cancel()
                await asyncio.gather(next_line, return_exceptions=True)
            if task is not None:
                self._conn_tasks.discard(task)
            self.stats.connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def handle_line(self, line: bytes, conn: _Connection | None = None,
                          cancel: threading.Event | None = None) -> dict:
        """Decode one framed request line and dispatch it."""
        started = perf_counter()
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self.stats.errors_total += 1
            # Undecodable requests must not be invisible in latency data:
            # they are filed under the ``invalid`` pseudo-op (a real op
            # label would let attackers mint histogram families).
            self.stats.observe("invalid", perf_counter() - started)
            return error_response(None, exc.code, str(exc))
        return await self.dispatch(request, conn, cancel)

    # -- dispatch ------------------------------------------------------
    def _request_timeout(self, request: dict,
                         conn: _Connection | None) -> float | None:
        """Effective deadline: request > connection hello > server default."""
        timeout = request.get("timeout_s")
        if timeout is None and conn is not None:
            timeout = conn.timeout_s
        if timeout is None:
            timeout = self.config.default_timeout_s
        return timeout

    async def dispatch(self, request: dict, conn: _Connection | None = None,
                       cancel: threading.Event | None = None) -> dict:
        """Serve one validated request (shared by framed and HTTP paths).

        Every path through here -- success, shed, quota, breaker,
        deadline, client error -- feeds the per-op latency histogram
        (the ``finally``) and, for the data ops, the SLO windows: error
        responses must not be invisible in latency or burn-rate data.
        """
        op = request["op"]
        request_id = request.get("id")
        if conn is not None:
            conn.requests += 1
        clearance = request.get("clearance")
        if clearance is None and conn is not None:
            clearance = conn.clearance
        started = perf_counter()
        response: dict | None = None
        try:
            response = await self._dispatch_op(op, request, request_id,
                                               clearance, conn, cancel)
            return response
        finally:
            elapsed = perf_counter() - started
            self.stats.observe(op, elapsed)
            slo = self.stats.slo
            if slo is not None and slo.tracks(op):
                ok = bool(response and response.get("ok"))
                objective = self.config.slo_latency_s
                slo.record(op, ok and (objective is None
                                       or elapsed <= objective))

    async def _dispatch_op(self, op: str, request: dict, request_id,
                           clearance, conn: _Connection | None,
                           cancel: threading.Event | None) -> dict:
        if op == "hello":
            if request.get("clearance") is not None and conn is not None:
                try:
                    self.root.lattice.check_level(request["clearance"])
                except LatticeError as exc:
                    self.stats.errors_total += 1
                    return error_response(request_id, "bad-clearance", str(exc))
                conn.clearance = request["clearance"]
            if request.get("timeout_s") is not None and conn is not None:
                conn.timeout_s = float(request["timeout_s"])
            return ok_response(
                request_id, server=PROTOCOL_VERSION,
                clearance=str(clearance or self.root.clearance),
                backend=self.root.backend,
                version=self.root.database.version,
                status=self.health,
                levels=sorted(str(level) for level
                              in self.root.lattice.levels))
        if op == "ping":
            return ok_response(request_id,
                               version=self.root.database.version,
                               status=self.health)
        if op == "metrics":
            return ok_response(request_id, text=self.metrics_text())
        if op == "audit":
            events = self.audit.to_dicts() if self.audit is not None else []
            return ok_response(request_id, events=events,
                               enabled=self.audit is not None)
        if op == "slowlog":
            return self._serve_slowlog(request, request_id, clearance)
        if op in ("ask", "assert"):
            return await self._serve_data(op, request, request_id, clearance,
                                          conn, cancel)
        self.stats.errors_total += 1
        return error_response(request_id, "unknown-op", f"unknown op {op!r}")

    def _serve_slowlog(self, request: dict, request_id, clearance) -> dict:
        """The slow-query ring, redacted at the requester's clearance."""
        if self.slow_log is None:
            return ok_response(request_id, enabled=False, entries=[],
                               captured_total=0)
        entries = self.slow_log.view(self._level_of(clearance))
        limit = request.get("limit")
        if isinstance(limit, int) and limit > 0:
            entries = entries[:limit]
        return ok_response(request_id, enabled=True, entries=entries,
                           threshold_s=self.slow_log.threshold_s,
                           captured_total=self.slow_log.captured_total)

    # -- request scopes (tracing / access log / slow log) ---------------
    def _begin_scope(self, op: str, request: dict,
                     level: str) -> _RequestScope | None:
        """Open the per-request observability scope (or ``None`` when off).

        The trace id comes from the client's ``traceparent`` when one
        rode the request (protocol field or HTTP header, already
        validated by the protocol layer) and is minted fresh otherwise;
        either way every request on a connection gets its own ids.  With
        ``config.trace`` the scope also opens the ``request[op]`` root
        span that the engine's span tree will graft under.
        """
        if not self._scoped:
            return None
        scope = _RequestScope(op, level)
        traceparent = request.get("traceparent")
        if isinstance(traceparent, str):
            try:
                scope.trace_id, scope.parent_span_id, _ = parse_traceparent(
                    traceparent)
            except ValueError:
                scope.trace_id = new_trace_id()
        else:
            scope.trace_id = new_trace_id()
        scope.span_id = new_span_id()
        if self.config.trace:
            # The root span is managed by hand (no per-request recorder):
            # nothing ever nests through a recorder stack here -- the
            # engine's span tree grafts in via ``parent.children`` from
            # the worker thread -- so a recorder would only add two
            # allocations and a push/pop to the hot path.
            attrs = {"op": op, "clearance": level,
                     "trace_id": scope.trace_id, "span_id": scope.span_id}
            if scope.parent_span_id is not None:
                attrs["parent_span_id"] = scope.parent_span_id
            root = Span(None, f"request[{op}]", attrs)
            root.started = perf_counter()
            scope.root = root
        return scope

    def _finish_scope(self, scope: _RequestScope | None,
                      response: dict) -> None:
        """Close the request scope: root span, access log, slow log.

        One exit point for every outcome of a data path -- ok, shed,
        quota, breaker, deadline, cancelled, internal -- so no error
        path can dodge the access log the way unobserved returns once
        dodged the latency histogram.
        """
        if scope is None:
            return
        elapsed = perf_counter() - scope.started
        ok = bool(response.get("ok"))
        outcome = "ok" if ok else str(response.get("code", "internal"))
        degraded = bool(response.get("degraded"))
        breakdown = {key: round(value, 6)
                     for key, value in scope.breakdown.items()}
        root = scope.root
        if root is not None:
            root.elapsed_s = elapsed - (root.started - scope.started)
            attrs = root.attrs
            attrs["outcome"] = outcome
            attrs.update(breakdown)
            if degraded:
                attrs["degraded"] = True
            if scope.run_stats is not None:
                attrs["rows"] = scope.run_stats["rows"]
                attrs["probes"] = scope.run_stats["probes"]
            answers = response.get("answers")
            if isinstance(answers, list):
                attrs["answers"] = len(answers)
            if outcome in ("cancelled", "deadline"):
                # The evaluation was aborted mid-flight; the exception
                # was already caught (it became the response), so stamp
                # the abort on the root explicitly.
                attrs["aborted"] = True
            sink = self.config.trace_sink
            if sink is not None:
                sink.write_span(root)
        if scope.trace_id is not None:
            response.setdefault("trace_id", scope.trace_id)
        if self.access_log is not None:
            answers = response.get("answers")
            self.access_log.record({
                "ts": round(time.time(), 3),
                "trace_id": scope.trace_id,
                "op": scope.op,
                "clearance": scope.level,
                "outcome": outcome,
                "elapsed_s": round(elapsed, 6),
                "breakdown": breakdown,
                "degraded": degraded,
                "shed": outcome in ("shed", "quota"),
                "breaker": outcome == "breaker-open",
                "engine": scope.engine,
                "version": response.get("version"),
                "answers": len(answers) if isinstance(answers, list) else None,
            })
        if (self.slow_log is not None
                and self.slow_log.should_capture(elapsed, ok)):
            spans = [scope.root.to_dict()] if scope.root is not None else []
            run_stats = scope.run_stats or {}
            self.slow_log.capture(
                trace_id=scope.trace_id, op=scope.op, level=scope.level,
                outcome=outcome, elapsed_s=elapsed, breakdown=breakdown,
                query=scope.query, engine=scope.engine,
                explain=run_stats.get("explain"), spans=spans,
                degraded=degraded)

    # -- the data-op pipeline (ask, assert) ----------------------------
    def _level_of(self, clearance) -> str:
        return str(clearance if clearance is not None else self.root.clearance)

    def _admit(self, level: str) -> dict | None:
        """Admission control: count the request in, or explain the drop.

        Returns ``None`` on admission (caller owns :meth:`_release`) or
        ``{"code", "message", "retry_after"}`` describing the rejection.
        Order: draining beats the global cap beats per-clearance quotas,
        so a drained server reports *why* uniformly.
        """
        if self._draining:
            return {"code": "draining",
                    "message": "server is draining for shutdown; "
                               "retry against another replica",
                    "retry_after": RETRY_AFTER_S}
        if self.stats.inflight >= self.config.max_inflight:
            self.stats.shed_total += 1
            return {"code": "shed",
                    "message": f"server at capacity "
                               f"({self.config.max_inflight} in flight); "
                               "retry after backoff",
                    "retry_after": RETRY_AFTER_S}
        quotas = self.config.clearance_quotas
        if quotas is not None:
            cap = quotas.get(level)
            if (cap is not None
                    and self.stats.inflight_by_clearance.get(level, 0) >= cap):
                self.stats.quota_shed_total += 1
                return {"code": "quota",
                        "message": f"clearance {level!r} at its admission "
                                   f"quota ({cap} in flight); retry after "
                                   "backoff",
                        "retry_after": RETRY_AFTER_S}
        self.stats.inflight += 1
        self.stats.inflight_by_clearance[level] = (
            self.stats.inflight_by_clearance.get(level, 0) + 1)
        self.stats.accepted_total += 1
        return None

    def _release(self, level: str) -> None:
        self.stats.inflight -= 1
        left = self.stats.inflight_by_clearance.get(level, 0) - 1
        if left > 0:
            self.stats.inflight_by_clearance[level] = left
        else:
            self.stats.inflight_by_clearance.pop(level, None)

    def _combine_budget(self, base: EvaluationBudget | None,
                        timeout_s: float | None,
                        cancel: threading.Event | None,
                        ) -> EvaluationBudget | None:
        """The request's effective budget: base caps + deadline + cancel."""
        if base is None:
            if timeout_s is None and cancel is None:
                return None
            base = EvaluationBudget()
        limit = base.timeout_s
        if timeout_s is not None:
            limit = timeout_s if limit is None else min(limit, timeout_s)
        return dataclasses.replace(
            base, timeout_s=limit,
            cancelled=cancel.is_set if cancel is not None else base.cancelled)

    async def _serve_data(self, op: str, request: dict, request_id,
                          clearance, conn: _Connection | None,
                          cancel: threading.Event | None) -> dict:
        """Serve one ``ask`` or ``assert`` inside its request scope."""
        level = self._level_of(clearance)
        scope = self._begin_scope(op, request, level)
        response = await self._data_path(op, request, request_id, clearance,
                                         level, conn, cancel, scope)
        self._finish_scope(scope, response)
        return response

    async def _data_path(self, op: str, request: dict, request_id,
                         clearance, level: str, conn: _Connection | None,
                         cancel: threading.Event | None,
                         scope: _RequestScope | None) -> dict:
        """The one data-op pipeline, shared by ``ask`` and ``assert``.

        Breaker, probe, admission, scope marks, the RW lock (read side
        for an ask, write side for an assert), pool lease, executor hop,
        success accounting; admission and the probe are released on
        every exit, and an exception from the hop becomes an error
        response through :data:`_ERRORS`.
        """
        breaker = self._breakers[op]
        if not breaker.allow():
            self.stats.breaker_rejected_total += 1
            return error_response(
                request_id, "breaker-open",
                f"{op} circuit breaker is {breaker.state} after "
                f"{breaker.threshold} consecutive failures",
                retry_after=round(breaker.retry_after(), 3))
        # If allow() just claimed the half-open probe slot, every exit
        # below must resolve it: record_success/record_failure do, and
        # the finally releases it on verdict-less paths (admission
        # denial, client errors, deadlines) so the slot cannot leak and
        # wedge the breaker half-open forever.
        probe = breaker.probing
        denied = self._admit(level)
        if denied is not None:
            if probe:
                breaker.release_probe()
            return error_response(request_id, denied["code"],
                                  denied["message"],
                                  retry_after=denied["retry_after"])
        ask = op == "ask"
        engine = (request.get("engine") or self.config.engine) if ask else None
        if scope is not None:
            scope.mark("admission_s", scope.started)
            scope.query = request["query"] if ask else request["clause"]
            scope.engine = engine
        timeout_s = self._request_timeout(request, conn)
        degrade = ask and self.stats.inflight >= self.config.degrade_threshold()
        loop = asyncio.get_running_loop()
        try:
            lock_started = perf_counter()
            async with self._rw.read() if ask else self._rw.write():
                self.stats.observe_lock_wait(
                    "read" if ask else "write", perf_counter() - lock_started)
                if scope is not None:
                    scope.mark("lock_wait_s", lock_started)
                # Deadlines gate asserts only *before* the engine runs: an
                # assert is never cancelled mid-flight, because by the time
                # the deadline could trip, the journal may already hold the
                # record -- and an acknowledged-on-disk but
                # reported-dead-to-the-client write is the worst outcome.
                if (not ask and timeout_s is not None
                        and perf_counter() - lock_started > timeout_s):
                    self.stats.errors_total += 1
                    self.stats.deadline_total += 1
                    return error_response(
                        request_id, "deadline",
                        f"deadline of {timeout_s}s passed while waiting "
                        "for the write lock; clause not applied")
                # Writers are excluded while an ask holds the read side, so
                # the version is the snapshot every answer is computed at.
                version = self.root.database.version
                pool_started = perf_counter()
                async with self.pool.lease(clearance) as session:
                    if scope is not None:
                        scope.mark("pool_wait_s", pool_started)
                    if ask:
                        run = functools.partial(
                            self._run_ask, session, request["query"], engine,
                            degrade, timeout_s, cancel, scope)
                        if scope is not None and scope.root is not None:
                            # run_in_executor does NOT copy contextvars: copy
                            # the context holding the request's parent span
                            # here, so the session's per-ask recorder grafts
                            # its engine spans under our root.
                            with use_obs(ObsContext(parent_span=scope.root)):
                                run_ctx = contextvars.copy_context()
                            run = functools.partial(run_ctx.run, run)
                    else:
                        run = functools.partial(
                            self._assert_clause, session, request["clause"],
                            bool(request.get("strict")))
                    engine_started = perf_counter()
                    result = await loop.run_in_executor(self._threads, run)
                    if scope is not None:
                        scope.mark("engine_s", engine_started)
                if not ask:
                    # The write side drained every reader; the bump is the
                    # next snapshot readers will see.
                    version = self.root.database.version
            self.stats.completed_total += 1
            breaker.record_success()
            if not ask:
                self.stats.asserts_total += 1
                if result is not None:
                    self._count_checkpoint(result)
                return ok_response(request_id, version=version)
            self.stats.asks_total += 1
            answers, complete, degraded = result
            if degraded is None:
                return ok_response(request_id, answers=answers, version=version,
                                   complete=True, engine=engine)
            self.stats.degraded_total += 1
            return ok_response(request_id, answers=answers, version=version,
                               complete=complete, degraded=degraded,
                               engine=engine)
        except Exception as exc:  # noqa: BLE001 -- server must not die
            rule = _error_rule(op, exc, timeout_s)
            self.stats.errors_total += 1
            if rule.counter is not None:
                setattr(self.stats, rule.counter,
                        getattr(self.stats, rule.counter) + 1)
            if rule.breaker:
                breaker.record_failure()
            return error_response(request_id, rule.code, rule.message.format(
                exc=exc, kind=type(exc).__name__, timeout_s=timeout_s))
        finally:
            self._release(level)
            if probe:
                breaker.release_probe()

    def _run_ask(self, session, query: str, engine: str, degrade: bool,
                 timeout_s: float | None, cancel: threading.Event | None,
                 scope: _RequestScope | None = None):
        """One ask on a worker thread, under the request's budget.

        Every ask runs through one :class:`~repro.resilience.
        ResilientExecutor`: transient faults are retried, anything else
        raises.  ``degrade`` only picks the budget (the shed budget
        instead of the session's) and whether an ask that budget cuts is
        salvaged.  Returns ``(answers, complete, degraded)``:
        ``degraded`` is ``None`` for a complete answer, else the
        ``plan:budget-reason`` string of a run the shed budget cut.  An
        ask that ends past its deadline -- cut by it, or retried beyond
        it -- raises, and so does one its client hung up on.  The
        session's budget is swapped for the combined request budget
        (deadline + disconnect probe) for the duration -- the pool's
        exclusive checkout makes that safe.

        With a ``scope``, the request's engine counts (rows, probes, top
        rule firings) are read off the served ask's own collector and
        stashed on the scope for the root span and the slow log's
        EXPLAIN sketch.  Writing to the scope from this worker
        thread is safe: the serving coroutine is parked on the executor
        future until we return.
        """
        saved = session.budget
        session.budget = self._combine_budget(
            self._shed_budget if degrade else saved, timeout_s, cancel)
        started = perf_counter()
        try:
            executor = ResilientExecutor(allow_partial=degrade)
            result = executor.ask(session, query, engine=engine)
            if timeout_s is not None and perf_counter() - started >= timeout_s:
                # Each try's budget meter starts afresh, so retries can
                # finish past the request's deadline; and a partial the
                # deadline, not the shed cap, timed out is no answer.
                raise BudgetExceededError(
                    f"ask finished after {executor.last_outcome.attempts} "
                    "attempt(s)", reason="timeout")
            if isinstance(result, PartialResult):
                if result.reason == "budget-cancelled":
                    # The client hung up: nobody is left to take a partial.
                    raise BudgetExceededError("client gone", reason="cancelled")
                answers, complete = result.answers or [], False
                degraded = executor.last_outcome.degraded
            else:
                answers, complete, degraded = result, True, None
            if scope is not None:
                scope.run_stats = _ask_run_stats(
                    session.last_ask_metrics(),
                    want_explain=self.slow_log is not None)
            return answers, complete, degraded
        finally:
            session.budget = saved

    # -- dashboard -----------------------------------------------------
    def metrics_text(self) -> str:
        """The serving dashboard in Prometheus text exposition format."""
        return self.stats.render_prometheus(
            pool=self.pool, breakers=self._breakers,
            write_queue_depth=self._rw.waiting_writers)


async def serve(source, config: ServerConfig | None = None,
                http: bool = False, **overrides) -> MultiLogServer:
    """Convenience: build and start a server; caller owns ``stop()``."""
    server = MultiLogServer(source, config, **overrides)
    await server.start()
    if http:
        await server.start_http()
    return server
