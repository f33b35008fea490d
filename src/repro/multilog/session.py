"""The high-level MultiLog API: sessions bound to a clearance.

A :class:`MultiLogSession` wraps one database at one database level
(Definition 5.5) and exposes querying through either semantics:

>>> from repro.multilog import MultiLogSession
>>> session = MultiLogSession('''
...     level(u). level(s). order(u, s).
...     u[acct(alice : balance -u-> 100)].
...     s[acct(alice : balance -s-> 900)].
... ''', clearance="s")
>>> session.ask("s[acct(alice : balance -C-> B)] << cau")
[{'B': 900, 'C': 's'}]

Queries default to the operational engine; ``engine="reduction"`` runs
the same query through the tau translation and the Datalog back-end
(Theorem 6.1 says the answers agree -- the test suite checks it).

Every ``ask`` runs under an observation context: spans, per-rule firing
counts and cache hit rates are collected into :meth:`MultiLogSession.
last_stats` (cumulative counters, per-ask span tree).  An optional
:class:`~repro.obs.budget.EvaluationBudget` bounds each ask; overruns
raise :class:`~repro.errors.BudgetExceededError` with partial metrics
attached.

Sessions sharing one database stay coherent: cached engines are keyed on
``database.version``, so a sibling created by :meth:`with_clearance`
sees clauses asserted through any other session (the pre-fix behaviour
served stale answers from the sibling's cached engine).

Sessions are thin: the admissibility context of one database version,
and the operational engine and the tau-translated program of one
``(version, clearance, backend)``, are immutable snapshots built once and
shared by every session over the database that can use them (Theorem 6.1
lets one least model serve every reader at a clearance).
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from contextlib import contextmanager
from pathlib import Path

from repro.cache import VersionedMemo
from repro.datalog.storage import resolve_backend
from repro.datalog.terms import Constant
from repro.errors import (
    BudgetExceededError,
    ConsistencyError,
    MultiLogError,
    RecoveryError,
    ReproError,
    SessionBusyError,
    UnknownModeError,
)
from repro.multilog.admissibility import (
    LatticeContext,
    admit_clause,
    check_admissibility,
)
from repro.multilog.ast import Clause, LAtom, MultiLogDatabase, Query
from repro.multilog.consistency import ConsistencyReport, check_consistency
from repro.multilog.parser import parse_clause, parse_database, parse_query
from repro.multilog.proof import (
    BUILTIN_MODES,
    CellRow,
    OperationalEngine,
    ProofTree,
    Prover,
)
from repro.multilog.reduction import ReducedProgram, translate
from repro.obs.audit import AuditLog
from repro.obs.budget import EvaluationBudget
from repro.obs.context import ObsContext, current as _current_obs, use as _use_obs
from repro.obs.explain import explain_program
from repro.obs.histogram import HistogramSet
from repro.obs.metrics import EngineMetrics, MetricsCollector
from repro.obs.trace import TraceRecorder

#: Level injected when a program declares no lattice at all -- the
#: degenerate Datalog case of Proposition 6.1 ("perhaps system").
SYSTEM_LEVEL = "system"

#: per-database snapshots shared by sibling sessions: the admissibility
#: context of a version, keyed :data:`_CONTEXT_KEY` (it depends on Lambda
#: alone, so every clearance and backend shares it), and (a weak
#: reference to) the operational engine of one ``(version, clearance,
#: backend)``, keyed ``("engine", clearance, backend)``.  The reduced
#: program is shared the same way through the tau-translation memo.
_SNAPSHOTS = VersionedMemo("session-snapshots")
_CONTEXT_KEY = ("context",)


class MultiLogSession:
    """One user's view of a MultiLog database at a fixed clearance."""

    def __init__(self, source: str | MultiLogDatabase, clearance: str | None = None,
                 budget: EvaluationBudget | None = None, lint: bool = False,
                 journal=None, backend: str | None = None):
        if isinstance(source, str):
            self.database = parse_database(source)
        else:
            self.database = source
        #: storage backend for the reduction engine's least model,
        #: resolved once at construction (explicit > ``MULTILOG_BACKEND``
        #: env var > ``dict``); it picks the semi-naive plan.  Answers are
        #: identical across backends.
        self.backend = resolve_backend(backend)
        if not self.database.lattice_clauses:
            self.database.add(Clause(LAtom(Constant(SYSTEM_LEVEL))))
        self.context: LatticeContext = _SNAPSHOTS.get_or_compute(
            self.database, self.database.version, _CONTEXT_KEY,
            lambda: check_admissibility(self.database))
        if clearance is None:
            tops = sorted(self.context.lattice.tops())
            if len(tops) != 1:
                raise MultiLogError(
                    "clearance not given and the lattice has no unique top; "
                    f"choose one of {tops}"
                )
            clearance = tops[0]
        self.clearance = self.context.lattice.check_level(clearance)
        #: per-ask limits; ``None`` means unbounded.
        self.budget = budget
        self._engine: OperationalEngine | None = None
        self._reduced: ReducedProgram | None = None
        #: database version the caches (engine, reduced, context) were
        #: built against; siblings over the same database compare it to
        #: spot mutations made through *other* sessions.
        self._cache_version = self.database.version
        #: totals across served asks; each ask counts into its own
        #: collector first (:meth:`_ask_locked`).
        self._metrics = MetricsCollector()
        self._last_recorder: TraceRecorder | None = None
        self._last_metrics: MetricsCollector | None = None
        self._last_stats: EngineMetrics | None = None
        self._last_query: str | Query | None = None
        #: single-flight guard: a session is *not* reentrant -- ``ask``/
        #: ``assert_clause``/``analyze`` hold this for their whole run and
        #: a second concurrent entry raises :class:`SessionBusyError`
        #: instead of corrupting the first caller's per-ask state.
        #: Concurrent callers hold sessions exclusively (one sibling per
        #: worker, or the serving layer's pool checkout).  The resilience
        #: executor holds it across its retries and lends it to one
        #: :meth:`ask` per attempt (:meth:`_lent_ask`).
        self._flight_lock = threading.Lock()
        #: ``(thread id, executor outcome)`` while a loan is open.
        self._loan = None
        #: telemetry (off by default): latency histograms per span family
        #: and an optional streaming sink.
        self._histograms: HistogramSet | None = None
        self._sink = None
        #: security-audit trail (off by default; :meth:`enable_audit`).
        self._audit: AuditLog | None = None
        #: armed :class:`~repro.resilience.FaultPlan` (chaos testing); asks
        #: also honour a plan on the ambient ObsContext.
        self._fault_plan = None
        #: write-ahead journal; ``assert_clause`` appends-and-fsyncs here
        #: *after* validation, *before* acknowledging.
        self.journal = None
        #: Definition 5.4 report computed by :meth:`recover` (else ``None``).
        self.recovery_report: ConsistencyReport | None = None
        #: full journal-level :class:`~repro.resilience.RecoveryReport`
        #: from :meth:`recover` -- what replayed, what was quarantined.
        self.journal_recovery = None
        if journal is not None:
            self.attach_journal(journal)
        if lint:
            report = self.analyze()
            if not report.ok:
                from repro.errors import AnalysisError
                raise AnalysisError(report.render_text(), report)

    # ------------------------------------------------------------------
    @contextmanager
    def _single_flight(self, op: str):
        """Assert exclusive use of this session for the ``with`` body."""
        if not self._flight_lock.acquire(blocking=False):
            raise SessionBusyError(
                f"concurrent {op}() on one MultiLogSession: sessions are "
                "not reentrant; hold a session exclusively per caller "
                "(with_clearance() siblings, or a serving SessionPool)")
        try:
            yield
        finally:
            self._flight_lock.release()

    def _revalidate(self) -> None:
        """Drop cached engines when the shared database has moved on.

        ``assert_clause`` through any session over the same database
        bumps ``database.version``; comparing against the version our
        caches were built at keeps every sibling session coherent.  The
        fresh context comes from the shared snapshot of the new version
        (computed by the first sibling to need it, or published by the
        assert that made the version).

        Ordering matters: the stale caches are dropped *first* and the
        version is committed *last*, only after a fresh context is in
        place.  A failure mid-revalidation (inadmissible interleaved
        state, an injected fault in ``check_admissibility``) then leaves
        the session still marked stale -- the next ask retries the whole
        rebuild -- instead of a bumped ``_cache_version`` pinning an
        engine that was never rebuilt against the new database.
        """
        version = self.database.version
        if version != self._cache_version:
            self._engine = None
            self._reduced = None
            self.context = _SNAPSHOTS.get_or_compute(
                self.database, version, _CONTEXT_KEY,
                lambda: check_admissibility(self.database))
            self._cache_version = version

    @property
    def lattice(self):
        return self.context.lattice

    @property
    def engine(self) -> OperationalEngine:
        self._revalidate()
        if self._engine is None:
            self._engine = self._shared_engine()
        return self._engine

    def _shared_engine(self) -> OperationalEngine:
        """The operational engine of this session's snapshot.

        The memo holds it weakly and the sessions using it hold it: an
        engine references its database, and a strong entry in a memo keyed
        weakly on that database would keep the database alive forever.
        """
        built: list[OperationalEngine] = []

        def build():
            built.append(OperationalEngine(self.database, self.clearance, self.context))
            return weakref.ref(built[0])

        key = ("engine", self.clearance, self.backend)
        engine = _SNAPSHOTS.get_or_compute(self.database, self._cache_version, key, build)()
        if engine is None:  # every session that used it has let it go
            engine = OperationalEngine(self.database, self.clearance, self.context)
            _SNAPSHOTS.put(self.database, self._cache_version, key, weakref.ref(engine))
        return engine

    @property
    def reduced(self) -> ReducedProgram:
        """The tau-translated Datalog program (Section 6), shared."""
        self._revalidate()
        if self._reduced is None:
            self._reduced = translate(self.database, self.clearance, self.context,
                                      backend=self.backend)
        return self._reduced

    @property
    def modes(self) -> frozenset[str]:
        return self.engine.modes

    def with_clearance(self, clearance: str) -> "MultiLogSession":
        """A sibling session over the same database at another level.

        The sibling shares the journal too: an assert through *any*
        session over this database must be as durable as through the one
        the journal was attached to.  The **resolved** storage backend is
        propagated explicitly as well -- a sibling must never re-resolve
        from the ``MULTILOG_BACKEND`` environment variable, or a pool of
        siblings could silently mix dict and columnar engines over one
        database when the environment changes between checkouts.
        """
        return MultiLogSession(self.database, clearance, budget=self.budget,
                               journal=self.journal, backend=self.backend)

    # ------------------------------------------------------------------
    def attach_journal(self, journal) -> None:
        """Start journaling this database's updates to ``journal``.

        ``journal`` is a :class:`~repro.resilience.SessionJournal` or a
        path.  A fresh (empty) journal is seeded with a snapshot of the
        current database, so recovery rebuilds the whole state, not just
        the clauses asserted after attachment.
        """
        from repro.resilience.journal import SessionJournal

        if not isinstance(journal, SessionJournal):
            journal = SessionJournal(journal)
        self.journal = journal
        if not journal.path.exists() or journal.path.stat().st_size == 0:
            journal.snapshot(self.database)

    @classmethod
    def recover(cls, path, clearance: str | None = None,
                budget: EvaluationBudget | None = None,
                require_consistent: bool = False,
                backend: str | None = None) -> "MultiLogSession":
        """Rebuild a session from a journal after a crash.

        Replays the journal (latest snapshot + subsequent clauses) and
        re-checks the paper's update guarantees on the recovered
        database: Definition 5.3 (admissibility) is enforced -- an
        inadmissible replay raises :class:`~repro.errors.RecoveryError`
        -- and the Definition 5.4 consistency checks are run and stored
        on the returned session as ``recovery_report``.  Consistency is
        *reported* rather than enforced by default because Def 5.4 is a
        property many valid databases never had (e.g. no key cells);
        ``require_consistent=True`` turns a failing report into a
        :class:`~repro.errors.RecoveryError` for callers whose database
        is supposed to stay consistent across crashes.  The returned
        session keeps journaling to the same file.

        A torn or corrupt journal *tail* (the residue of a crash
        mid-append) is quarantined into the journal's sidecar file and
        accounted in the session's ``journal_recovery``
        :class:`~repro.resilience.RecoveryReport` -- never silently
        dropped; corruption anywhere before intact records raises
        :class:`~repro.errors.JournalError`.
        """
        from repro.resilience.journal import SessionJournal

        journal = path if isinstance(path, SessionJournal) else SessionJournal(path)
        if not journal.path.exists():
            raise RecoveryError(f"no journal at {journal.path}")
        database, journal_report = journal.replay_with_report()
        try:
            # ``backend`` is propagated explicitly (not left to re-resolve
            # from ``MULTILOG_BACKEND`` at construction time) so a caller
            # recovering on behalf of an existing deployment -- the CLI's
            # ``recover --backend``, the serving layer -- gets the same
            # storage backend the crashed process ran on.
            session = cls(database, clearance, budget=budget, backend=backend)
        except ReproError as exc:
            raise RecoveryError(
                f"recovered database fails admissibility (Def 5.3): {exc}"
            ) from exc
        report = session.check_consistency()
        session.recovery_report = report
        journal_report.consistency = report
        session.journal_recovery = journal_report
        if require_consistent and not report.ok:
            raise RecoveryError(
                "recovered database fails consistency (Def 5.4):\n"
                + "\n".join(report.all_messages()), report)
        session.journal = journal
        return session

    # ------------------------------------------------------------------
    def arm_faults(self, plan) -> None:
        """Arm a :class:`~repro.resilience.FaultPlan` for this session's
        asks (chaos testing); :meth:`disarm_faults` removes it."""
        self._fault_plan = plan

    def disarm_faults(self) -> None:
        self._fault_plan = None

    # ------------------------------------------------------------------
    def ask(self, query: str | Query, engine: str = "operational") -> list[dict[str, object]]:
        """Answer a query; one ``{variable: value}`` dict per answer.

        Runs under a fresh trace recorder and a fresh metrics collector,
        folded into this session's totals once the ask is served; inspect
        the result with :meth:`last_stats` / :meth:`last_trace` /
        :meth:`last_ask_metrics`.  When the session has a budget, an overrun
        raises :class:`~repro.errors.BudgetExceededError` carrying the
        partial :class:`~repro.obs.metrics.EngineMetrics`.

        Asks are **single-flight** per session: all per-ask state (the
        recorder, the collector, the query) lives in locals until
        :meth:`_finish_ask` publishes it, and a second caller entering
        concurrently raises :class:`~repro.errors.SessionBusyError`
        rather than racing the engine caches.
        """
        loan = self._loan
        if loan is not None and loan[0] == threading.get_ident():
            # One attempt of a resilience-executor ask, on the flight the
            # executor holds.  A loan serves one call, so an ask nested
            # inside this one finds the flight taken like any other.
            self._loan = None
            return self._ask_locked(query, engine, loan[1])
        with self._single_flight("ask"):
            return self._ask_locked(query, engine)

    def _lent_ask(self, query: str | Query, engine: str, outcome
                  ) -> list[dict[str, object]]:
        """One attempt of a resilience-executor ask, through :meth:`ask`.

        The executor holds the flight for all its tries and lends it to
        one :meth:`ask` call per attempt, so every attempt is an ordinary
        ask to whatever wraps or times ``ask``, and ``outcome`` (the
        executor's :class:`~repro.resilience.executor.Outcome`) reaches
        :meth:`_finish_ask`.
        """
        self._loan = (threading.get_ident(), outcome)
        try:
            return self.ask(query, engine)
        finally:
            self._loan = None

    def _ask_locked(self, query: str | Query, engine: str, outcome=None
                    ) -> list[dict[str, object]]:
        """One ask under its own recorder and its own metrics collector.

        The ask-local collector is what the engines count into; it
        reaches the session totals only through :meth:`_finish_ask`, so
        a failed ask cannot leak its firings or probes into them.
        ``outcome`` is the resilience executor's
        :class:`~repro.resilience.executor.Outcome` when this is one of
        its attempts.
        """
        if engine not in ("operational", "reduction"):
            raise MultiLogError(f"unknown engine {engine!r}; use 'operational' or 'reduction'")
        # The ambient context is consulted for cross-cutting concerns the
        # caller threaded around the public signature: an armed fault
        # plan, and (serving) the request span this ask should parent
        # its trace under -- the server copies its contextvars into the
        # executor offload precisely so this read sees them.
        ambient = _current_obs()
        recorder = TraceRecorder(histograms=self._histograms, sink=self._sink,
                                 parent=ambient.parent_span)
        meter = self.budget.meter() if self.budget is not None else None
        faults = self._fault_plan if self._fault_plan is not None \
            else ambient.faults
        metrics = MetricsCollector()
        metrics.count_ask()
        ctx = ObsContext(recorder, metrics, meter, faults, audit=self._audit)
        # ctx.recorder is the fault-wrapped view of ``recorder`` (identical
        # when no plan is armed): session-level spans must announce through
        # it so ``query``/``parse`` are injectable fault points too.
        spans = ctx.recorder
        try:
            with _use_obs(ctx):
                with spans.span("query", engine=engine) as span:
                    with spans.span("parse"):
                        parsed = parse_query(query) if isinstance(query, str) else query
                    if engine == "operational":
                        answers = self.engine.solve(parsed)
                    else:
                        reduced = self.reduced
                        answers = reduced.query(parsed)
                        if ctx.audit.enabled:
                            # The reduction derives its cross-level reads
                            # as Datalog facts, so the trail is projected
                            # off the model: once per snapshot and log.
                            reduced.audit_once(ctx.audit)
                    span.set(answers=len(answers))
        except BudgetExceededError as exc:
            self._finish_ask(recorder, metrics, query, outcome,
                             budget_exceeded=exc.reason)
            exc.metrics = self._last_stats
            raise
        except Exception:
            # Any other failure (injected fault, engine error) must still
            # leave the partial forest renderable: the spans the exception
            # unwound through are already closed ``aborted=True``, so
            # snapshot them before propagating -- ``:trace`` and
            # ``last_trace()`` then show where the ask died.
            self._finish_ask(recorder, metrics, query, served=False)
            raise
        self._finish_ask(recorder, metrics, query, outcome)
        return answers

    def _finish_ask(self, recorder, metrics: MetricsCollector,
                    query: str | Query | None = None, outcome=None,
                    budget_exceeded: str | None = None,
                    served: bool = True) -> None:
        """Publish one ask's state onto the session, in one place.

        Per-ask state is ask-local until here.  A served ask's collector
        -- a budget abort serves its partial work -- is folded into the
        session totals; a failed one is dropped, and only its
        ``attempts`` ordinal is kept.  Publishing atomically at the end
        (success and every failure path) is what lets the single-flight
        guard make ``last_stats``/``last_trace``/``explain()`` coherent
        for exclusive holders.  An executor attempt that is served ends
        the executor's tries: its retries count into the session's
        resilience totals, and ``last_stats()`` names the plan and the
        attempt that served the answers.
        """
        totals = self._metrics
        rung = attempt = None
        if not served:
            totals.attempts += metrics.attempts
        else:
            totals.merge(metrics)
            if outcome is not None:
                totals.retries += outcome.retries
                rung, attempt = outcome.rung, outcome.attempts
        self._last_recorder = recorder
        self._last_metrics = metrics if served else None
        if query is not None:
            self._last_query = query
        self._last_stats = totals.snapshot(
            recorder, budget_exceeded=budget_exceeded, rung=rung,
            attempt=attempt)

    def _mark_degraded(self, outcome) -> None:
        """Flag the ask the resilience executor just served degraded.

        The ask counts into the session's ``degraded_asks``, and
        ``degraded="plan:reason"`` is stamped on ``last_stats()`` and
        ``degraded``/``rung`` on the ask's root span, so ``:stats`` and
        ``:trace`` show that it came from a budget-truncated run.
        """
        totals = self._metrics
        totals.degraded_asks += 1
        stats = self._last_stats
        spans = stats.spans
        roots = getattr(self._last_recorder, "roots", None)
        if roots:
            roots[-1].set(degraded=True, rung=outcome.rung)
            spans = tuple(self._last_recorder.to_dicts())
        self._last_stats = dataclasses.replace(
            stats, degraded=outcome.degraded, spans=spans,
            degraded_asks=totals.degraded_asks)

    def last_stats(self) -> EngineMetrics | None:
        """Metrics snapshot taken at the end of the most recent ask.

        Counters (firings, probes, rounds, asks) are cumulative across
        this session's lifetime; ``spans`` is the most recent ask's trace.
        ``None`` before the first ask.
        """
        return self._last_stats

    def last_trace(self) -> TraceRecorder | None:
        """The span recorder of the most recent ask (``None`` before one)."""
        return self._last_recorder

    def last_ask_metrics(self) -> MetricsCollector | None:
        """The most recent ask's own collector, if that ask was served.

        Unlike :meth:`last_stats`, whose counters are cumulative, it
        holds only what that one ask counted: the serving layer reads a
        request's rows, probes and top rule firings here.  ``None``
        before the first ask and after an ask that failed (its collector
        was dropped).  Read it, do not write it.
        """
        return self._last_metrics

    # ------------------------------------------------------------------
    def enable_telemetry(self, sink=None) -> HistogramSet:
        """Switch on latency histograms (and optionally a span sink).

        Every subsequent ask feeds per-span-family histograms readable via
        :attr:`histograms` / :meth:`metrics_text`.  ``sink`` is a
        :class:`~repro.obs.export.TelemetrySink` receiving each ask's
        root span.
        """
        if self._histograms is None:
            self._histograms = HistogramSet()
        self._sink = sink
        return self._histograms

    @property
    def histograms(self) -> HistogramSet | None:
        """Per-span-family latency histograms (``None`` until enabled)."""
        return self._histograms

    def metrics_text(self) -> str:
        """This session's counters + histograms in Prometheus text format."""
        from repro.obs.export import render_prometheus

        stats = self._last_stats if self._last_stats is not None \
            else self._metrics.snapshot()
        return render_prometheus(stats, self._histograms)

    def enable_audit(self, log: AuditLog | None = None) -> AuditLog:
        """Switch on the MLS security-audit trail for subsequent asks.

        Returns the (idempotently created) :class:`~repro.obs.audit.
        AuditLog`; read it back with :meth:`audit_log`.  Pass ``log`` to
        share one trail across sessions -- the serving layer funnels every
        pooled session into a single server-wide AuditLog so leak checks
        see all clearances at once.  When the session was built by
        :meth:`recover`, the recovery itself is the first entry (kind
        ``recover``) so the trail starts at the journal replay, not at
        the first post-crash query.
        """
        if self._audit is None or (log is not None and log is not self._audit):
            self._audit = log if log is not None else AuditLog()
            if self.recovery_report is not None:
                self._audit.emit(
                    "recover", subject=str(self.clearance),
                    consistent=self.recovery_report.ok,
                    journal=str(self.journal.path) if self.journal is not None else "",
                )
        return self._audit

    def audit_log(self) -> AuditLog | None:
        """The session's audit trail (``None`` until :meth:`enable_audit`)."""
        return self._audit

    # ------------------------------------------------------------------
    def explain(self, query: str | Query | None = None,
                answer: dict[str, object] | None = None) -> str:
        """EXPLAIN the compiled plans, or a paper-style answer provenance.

        With no arguments: the reduced program's compiled join plans
        (unchanged behaviour).  With ``answer`` (and optionally
        ``query``, defaulting to the most recent ask): the provenance of
        that answer -- the Figure 9-11 rule chain, the believed base
        cells it rests on, and an indented proof sketch.  ``answer={}``
        explains every answer of the query.
        """
        if query is None and answer is None:
            return explain_program(self.reduced.program, backend=self.backend)
        from repro.obs.provenance import AnswerProvenance

        target = query if query is not None else self._last_query
        if target is None:
            raise MultiLogError("no query to explain: pass query= or ask first")
        parsed = parse_query(target) if isinstance(target, str) else target
        proofs = Prover(self.engine).prove_query(parsed)
        if not proofs:
            return f"no answers (and so no provenance) for {parsed}"
        provenances = [
            AnswerProvenance.from_proof(bindings, tree, query=str(parsed))
            for bindings, tree in proofs
        ]
        if answer:
            provenances = [p for p in provenances if p.matches(answer)]
            if not provenances:
                raise MultiLogError(
                    f"{answer!r} is not an answer of {parsed} "
                    f"(answers: {[bindings for bindings, _ in proofs]})")
        return "\n\n".join(p.render() for p in provenances)

    def holds(self, query: str | Query, engine: str = "operational") -> bool:
        """True when the (possibly ground) query has at least one answer."""
        return bool(self.ask(query, engine))

    def prove(self, query: str | Query) -> ProofTree | None:
        """A Figure 11-style proof tree for the query, or ``None``."""
        parsed = parse_query(query) if isinstance(query, str) else query
        return Prover(self.engine).prove(parsed)

    def proofs(self, query: str | Query) -> list[tuple[dict[str, object], ProofTree]]:
        """All answers, each with a proof tree."""
        parsed = parse_query(query) if isinstance(query, str) else query
        return Prover(self.engine).prove_query(parsed)

    # ------------------------------------------------------------------
    def believed_cells(self, mode: str, level: str | None = None) -> list[CellRow]:
        """Cells believed in ``mode`` at ``level`` (default: own clearance)."""
        at = self.clearance if level is None else level
        if not self.lattice.leq(at, self.clearance):
            raise MultiLogError(
                f"no read-up: cannot ask for beliefs at {at!r} from clearance "
                f"{self.clearance!r}"
            )
        if mode not in self.modes:
            raise UnknownModeError(f"unknown belief mode {mode!r}; have {sorted(self.modes)}")
        if mode in BUILTIN_MODES:
            return self.engine.believed_cells(mode, at)
        rows = []
        for (pred, args), _round in self.engine.pfacts().items():
            if pred == "bel" and len(args) == 7 and args[5] == at and args[6] == mode:
                rows.append((args[0], args[1], args[2], args[3], args[4], at))
        return rows

    def cells(self) -> list[CellRow]:
        """Every m-cell derivable at this session's clearance."""
        return sorted(self.engine.cells(), key=repr)

    def check_consistency(self) -> ConsistencyReport:
        """Run the Definition 5.4 checks over ``[[Sigma]]``."""
        return check_consistency(self.database, self.context)

    def analyze(self):
        """Run the compile-time analyzer over this session's database.

        Returns the :class:`~repro.analysis.AnalysisReport` with every
        finding (safety, arity, stratification, security flows, dead
        code) at this session's clearance.  The pass runs under its own
        trace recorder, so ``last_trace()`` / ``:trace`` afterwards show
        the ``analyze`` span -- and the reductions it stratifies stay in
        the translate memo for the next ``ask``.
        """
        from repro.analysis import analyze_database

        with self._single_flight("analyze"):
            self._revalidate()
            recorder = TraceRecorder(histograms=self._histograms, sink=self._sink)
            metrics = MetricsCollector()
            ctx = ObsContext(recorder, metrics, audit=self._audit)
            with _use_obs(ctx):
                report = analyze_database(self.database, self.clearance)
            self._finish_ask(recorder, metrics)
            return report

    def run_stored_queries(self, engine: str = "operational") -> list[tuple[Query, list[dict[str, object]]]]:
        """Answer every query stored in the database's Q component.

        Definition 5.1 makes queries part of the database
        ``<Lambda, Sigma, Pi, Q>``; this evaluates them all at the session
        clearance, in order.
        """
        return [
            (query, self.ask(query, engine=engine))
            for query in self.database.queries
        ]

    # ------------------------------------------------------------------
    def assert_clause(self, clause: str | Clause, strict: bool = False) -> None:
        """Atomically add a clause and invalidate the cached engines.

        The update is all-or-nothing: the clause is validated first
        (Definition 5.3 admissibility; with ``strict`` also the
        Definition 5.4 consistency checks, run on a candidate copy of
        the database that also holds it), then journaled
        (append-and-fsync, when a journal is attached), and only then
        appended to the shared database.  A rejected clause never
        reaches the database or the journal, so ``database.version``
        names committed content only, never goes down, and ``ask()``
        answers are byte-identical before and after a failed assert.

        Sibling sessions over the same database invalidate lazily via
        :meth:`_revalidate` (the shared ``database.version`` moved on).

        Like :meth:`ask`, single-flight per session: concurrent writers
        must serialize (the serving layer holds a global write lock);
        a second entry raises :class:`~repro.errors.SessionBusyError`.
        """
        with self._single_flight("assert_clause"):
            self._assert_clause_locked(clause, strict)

    def _assert_clause_locked(self, clause: str | Clause, strict: bool) -> None:
        parsed = parse_clause(clause) if isinstance(clause, str) else clause
        database = self.database
        # Only a Lambda clause can change [[Lambda]]; any other clause is
        # checked alone against the lattice of the pre-add version.
        if parsed.kind() in ("l", "h"):
            context = check_admissibility(database.with_clause(parsed))
        else:
            self._revalidate()
            context = admit_clause(self.context, parsed)
        if strict:
            report = check_consistency(database.with_clause(parsed), context)
            if not report.ok:
                raise ConsistencyError(
                    "clause would make the database inconsistent "
                    "(Definition 5.4):\n" + "\n".join(report.all_messages()))
        if self.journal is not None:
            # Write-ahead: durable before appended and acknowledged.
            # Validation already passed, so replaying this record is
            # always safe.
            self.journal.append_clause(str(parsed), database.version + 1)
        database.add(parsed)
        _SNAPSHOTS.put(database, database.version, _CONTEXT_KEY, context)
        self.context = context
        self._engine = None
        self._reduced = None
        self._cache_version = database.version
        if self._audit is not None:
            head = parsed.head
            level = getattr(head, "level", None)
            subject = str(level.value) if isinstance(level, Constant) else str(self.clearance)
            pred = getattr(head, "pred", None) or type(head).__name__
            self._audit.emit("assert", subject=subject, predicate=str(pred),
                             clause=str(parsed), version=database.version)
