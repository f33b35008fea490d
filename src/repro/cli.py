"""An interactive MultiLog shell.

Run ``python -m repro.cli [program.mlog] [--clearance LEVEL]`` (or the
``multilog`` console script) and type clauses, queries and commands::

    mlog(s)> u[acct(alice : balance -u-> 100)].
    asserted.
    mlog(s)> ?- u[acct(K : balance -C-> B)] << cau.
    K = alice, C = u, B = 100
    mlog(s)> :prove u[acct(alice : balance -u-> 100)] << opt
    (BELIEF) ...
    mlog(s)> :clearance u

Commands: ``:help``, ``:load FILE``, ``:clearance LEVEL``, ``:engine
operational|reduction``, ``:modes``, ``:lattice``, ``:cells``,
``:believe MODE [LEVEL]``, ``:consistency``, ``:lint``, ``:prove
QUERY``, ``:stats``, ``:explain``, ``:trace on|off``, ``:faults ...``,
``:quit``.

Serving: ``multilog serve FILE --port 7979`` starts the async
multi-tenant server (newline-framed JSON protocol; ``--http-port``
adds the HTTP shim) with admission control and load shedding -- see
docs/SERVING.md.

Resilience: ``multilog run FILE`` evaluates a program's stored queries
non-interactively through the :class:`~repro.resilience.
ResilientExecutor` (``--retries``, ``--timeout``, ``--allow-partial``),
``multilog recover JOURNAL`` rebuilds a database from a write-ahead
journal (re-checking Definitions 5.3/5.4), ``--journal`` arms
crash-safe journaling on a shell session, and ``:faults`` arms or
disarms a fault-injection plan (see docs/RESILIENCE.md).

Static analysis: ``multilog lint FILE...`` runs the compile-time
analyzer (:mod:`repro.analysis`) over MultiLog sources (or plain
Datalog ``.dl`` files) without evaluating them -- ``--strict`` fails on
warnings, ``--format=json`` emits machine-readable diagnostics, and
``--workload d1|mission`` lints the built-in workloads.  The shell's
``--lint-only`` flag analyzes the program and exits non-zero on any
error-severity finding instead of starting a REPL.

Observability: ``--trace`` (or ``:trace on``) prints the span tree after
each query, ``--trace-out=FILE.{json,chrome,jsonl}`` dumps it (a
``.chrome`` file opens in Perfetto), ``:stats`` shows the session's
cumulative engine metrics, ``:metrics`` / ``multilog metrics FILE``
emit Prometheus text exposition, ``:audit`` / ``multilog audit FILE``
print the MLS security-audit trail (cross-level reads, overrides,
filter suppressions, surprise stories), and ``--explain`` / ``:explain
[QUERY]`` dump the compiled join plans -- or, with a query, the
paper-style provenance of its answers.

The shell logic lives in :class:`Shell` with a pure
``execute_line(text) -> str`` interface so it is fully unit-testable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.datalog.storage import BACKENDS
from repro.errors import ReproError
from repro.multilog.ast import MultiLogDatabase
from repro.multilog.session import MultiLogSession
from repro.reporting.tables import render_table

PROMPT = "mlog({level})> "

_HELP = """\
Enter MultiLog clauses (ending with '.') to assert them, or queries
('?- goal.' or a bare goal) to evaluate them.  Commands:
  :help                     this text
  :load FILE                assert every clause/query in FILE
  :clearance LEVEL          switch the session clearance
  :engine NAME              'operational' (default) or 'reduction'
  :modes                    list available belief modes
  :lattice                  show the security lattice
  :cells                    list every derivable m-cell
  :believe MODE [LEVEL]     show the believed cells in MODE
  :consistency              run the Definition 5.4 checks
  :lint                     run the static analyzer over the database
  :prove QUERY              print a proof tree for QUERY
  :stats                    cumulative engine metrics for this session
  :explain [QUERY]          compiled join plans; with QUERY, the
                            paper-style provenance of its answers
  :metrics                  Prometheus text of counters + histograms
                            (enables latency histograms on first use)
  :audit [jsonl|clear]      the MLS security-audit trail (enables the
                            trail on first use)
  :trace on|off             print the span tree after each query
  :faults                   show the armed fault-injection plan
  :faults raise POINT [transient|permanent]
  :faults delay POINT SECONDS
  :faults corrupt POINT     arm a fault at a span point (e.g. stratum[*])
  :faults off               disarm all faults
  :quit                     leave"""


class ShellExit(Exception):
    """Raised by ``:quit`` so the surrounding loop can stop."""


class Shell:
    """State + command dispatch for the interactive shell."""

    def __init__(self, source: str | MultiLogDatabase = "", clearance: str | None = None,
                 trace: bool = False, journal: str | None = None,
                 trace_out: str | None = None, backend: str | None = None):
        self.session = MultiLogSession(source or "level(system).", clearance,
                                       journal=journal, backend=backend)
        self.engine_name = "operational"
        self.trace = trace
        #: dump each query's span forest here (.json/.chrome/.jsonl).
        self.trace_out = trace_out
        self._pristine = not source

    @property
    def clearance(self) -> str:
        return self.session.clearance

    # ------------------------------------------------------------------
    def execute_line(self, line: str) -> str:
        """Process one input line and return the text to display."""
        text = line.strip()
        if not text or text.startswith("%"):
            return ""
        try:
            if text.startswith(":"):
                return self._command(text[1:])
            if text.startswith("?-"):
                return self._query(text)
            if text.endswith("."):
                self.session.assert_clause(text)
                return "asserted."
            return self._query(text)
        except ShellExit:
            raise
        except ReproError as exc:
            return f"error: {exc}"

    # ------------------------------------------------------------------
    def _command(self, text: str) -> str:
        parts = text.split(None, 1)
        name = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        if name in ("q", "quit", "exit"):
            raise ShellExit
        if name == "help":
            return _HELP
        if name == "load":
            return self._load(argument)
        if name == "clearance":
            if not argument:
                return f"clearance is {self.clearance!r}"
            plan = self.session._fault_plan
            previous = self.session
            self.session = self.session.with_clearance(argument)
            self._carry_obs(previous)
            if plan is not None:
                self.session.arm_faults(plan)
            return f"clearance set to {argument!r}"
        if name == "engine":
            if argument not in ("operational", "reduction"):
                return "error: engine must be 'operational' or 'reduction'"
            self.engine_name = argument
            return f"engine set to {argument!r}"
        if name == "modes":
            return ", ".join(sorted(self.session.modes))
        if name == "lattice":
            lattice = self.session.lattice
            pairs = ", ".join(f"{lo} < {hi}" for lo, hi in sorted(lattice.cover_pairs))
            return f"levels: {', '.join(sorted(lattice.levels))}\norders: {pairs or '(none)'}"
        if name == "cells":
            rows = [list(row) for row in self.session.cells()]
            if not rows:
                return "(no derivable cells)"
            return render_table(["pred", "key", "attr", "value", "class", "level"], rows)
        if name == "believe":
            return self._believe(argument)
        if name == "consistency":
            report = self.session.check_consistency()
            if report.ok:
                return "consistent (Definition 5.4 satisfied)."
            return "\n".join(report.all_messages())
        if name == "lint":
            return self.session.analyze().render_text()
        if name == "prove":
            tree = self.session.prove(argument)
            return tree.pretty() if tree is not None else "no proof."
        if name == "stats":
            stats = self.session.last_stats()
            if stats is None:
                return "(no stats yet: ask a query first)"
            return stats.summary()
        if name == "explain":
            if argument:
                return self.session.explain(query=argument, answer={})
            return self.session.explain()
        if name == "metrics":
            if self.session.histograms is None:
                self.session.enable_telemetry()
            return self.session.metrics_text().rstrip("\n")
        if name == "audit":
            log = self.session.enable_audit()
            if argument == "clear":
                log.clear()
                return "audit trail cleared"
            if argument == "jsonl":
                return log.to_jsonl() or "(no audit events yet)"
            if argument:
                return "error: usage :audit [jsonl|clear]"
            return log.render() or "(no audit events yet)"
        if name == "trace":
            if argument not in ("on", "off"):
                return "error: usage :trace on|off"
            self.trace = argument == "on"
            return f"trace {argument}"
        if name == "faults":
            return self._faults(argument)
        return f"error: unknown command :{name} (try :help)"

    def _faults(self, argument: str) -> str:
        """Arm/disarm the session's fault-injection plan (chaos testing)."""
        from repro.resilience import FaultPlan

        parts = argument.split()
        if not parts:
            plan = self.session._fault_plan
            return plan.describe() if plan is not None else "(no faults armed)"
        verb = parts[0].lower()
        if verb == "off":
            self.session.disarm_faults()
            return "faults disarmed"
        plan = self.session._fault_plan
        if plan is None:
            plan = FaultPlan()
        try:
            if verb == "raise":
                if len(parts) < 2:
                    return "error: usage :faults raise POINT [transient|permanent]"
                error = parts[2] if len(parts) > 2 else "transient"
                spec = plan.arm(parts[1], action="raise", error=error)
            elif verb == "delay":
                if len(parts) < 3:
                    return "error: usage :faults delay POINT SECONDS"
                spec = plan.arm(parts[1], action="delay", delay_s=float(parts[2]))
            elif verb == "corrupt":
                if len(parts) < 2:
                    return "error: usage :faults corrupt POINT"
                spec = plan.arm(parts[1], action="corrupt")
            else:
                return f"error: unknown :faults verb {verb!r} (raise|delay|corrupt|off)"
        except ValueError as exc:
            return f"error: {exc}"
        self.session.arm_faults(plan)
        return f"armed: {spec.describe()}"

    def _load(self, argument: str) -> str:
        if not argument:
            return "error: usage :load FILE"
        path = Path(argument)
        if not path.exists():
            return f"error: no such file {argument!r}"
        source = path.read_text()
        from repro.multilog.parser import parse_database

        loaded = parse_database(source)
        journal = self.session.journal
        plan = self.session._fault_plan
        previous = self.session
        backend = self.session.backend
        if self._pristine:
            # Nothing asserted yet: adopt the file wholesale, including
            # its lattice, and re-derive the clearance from its top.
            self.session = MultiLogSession(parse_database(source), backend=backend)
            self._pristine = False
        else:
            database = self.session.database
            database.add_clauses(loaded.clauses())  # one version bump
            for query in loaded.queries:
                database.add_query(query)
            self.session = MultiLogSession(database, self.clearance,
                                           backend=backend)
        self._carry_obs(previous)
        if journal is not None:
            # A load bypasses assert_clause, so bring the journal back in
            # step with one atomic snapshot of the post-load database.
            journal.compact(self.session.database)
            self.session.journal = journal
        if plan is not None:
            self.session.arm_faults(plan)
        counts = (f"{len(loaded.lattice_clauses)} lattice, "
                  f"{len(loaded.secured_clauses)} secured, "
                  f"{len(loaded.plain_clauses)} plain clause(s)")
        lines = [f"loaded {counts} from {argument}"]
        for query in loaded.queries:
            lines.append(f"{query}")
            lines.append(self._query(str(query)))
        return "\n".join(lines)

    def _believe(self, argument: str) -> str:
        if not argument:
            return "error: usage :believe MODE [LEVEL]"
        parts = argument.split()
        mode = parts[0]
        level = parts[1] if len(parts) > 1 else None
        rows = [list(row) for row in self.session.believed_cells(mode, level)]
        if not rows:
            return "(nothing believed)"
        return render_table(["pred", "key", "attr", "value", "class", "source"], rows)

    def _carry_obs(self, previous: MultiLogSession) -> None:
        """Carry telemetry/audit state across a session swap.

        ``:clearance`` and ``:load`` rebuild the session; the shell's
        histograms, sink and audit trail are user-visible state
        that must survive the swap (the audit trail in particular is one
        continuous record of the shell's cross-level reads).
        """
        self.session._histograms = previous._histograms
        self.session._sink = previous._sink
        self.session._audit = previous._audit

    def _query(self, text: str) -> str:
        try:
            answers = self.session.ask(text, engine=self.engine_name)
        except ReproError as exc:
            # The ask died mid-evaluation; the session still snapshotted
            # the partial forest (spans are closed ``aborted=True``), so
            # :trace / --trace-out render where it stopped.
            lines = [f"error: {exc}"]
            self._append_trace(lines)
            return "\n".join(lines)
        if not answers:
            lines = ["no."]
        else:
            lines = []
            for answer in answers:
                if not answer:
                    lines.append("yes.")
                else:
                    lines.append(", ".join(f"{k} = {v}" for k, v in sorted(answer.items())))
        self._append_trace(lines)
        return "\n".join(lines)

    def _append_trace(self, lines: list[str]) -> None:
        recorder = self.session.last_trace()
        if recorder is None:
            return
        if self.trace:
            rendered = recorder.pretty()
            if rendered:
                lines.append(rendered)
        if self.trace_out:
            from repro.obs.export import write_trace

            write_trace(recorder, self.trace_out)


def _analyze_text(name: str, text: str, clearance: str | None):
    """Analyze one source text; *any* failure becomes an ML000 diagnostic.

    The lint subcommand promises a report per input -- in particular
    ``--format=json`` must emit a well-formed envelope even when the
    program does not parse -- so crashes of any flavour (syntax errors,
    recursion blowups on hostile input) are folded into the report
    instead of escaping as a traceback.
    """
    from repro.analysis import AnalysisReport, analyze_database, analyze_program
    from repro.analysis.diagnostics import fingerprint

    try:
        if name.endswith(".dl"):
            from repro.datalog.parse import parse_program

            return analyze_program(parse_program(text))
        from repro.multilog.parser import parse_database

        return analyze_database(parse_database(text), clearance)
    except ReproError as exc:
        report = AnalysisReport()
        report.program_hash = fingerprint(text)
        report.add("ML000", str(exc), location=name,
                   hint="fix the syntax error; nothing else was checked")
        return report
    except (RecursionError, ValueError, TypeError) as exc:
        report = AnalysisReport()
        report.program_hash = fingerprint(text)
        report.add("ML000",
                   f"analysis crashed: {type(exc).__name__}: {exc}",
                   location=name,
                   hint="the input is malformed beyond what the parser "
                        "reports cleanly")
        return report


def _lint_inputs(args) -> list[tuple[str, object]]:
    """``(name, report)`` per input file / workload, in argument order."""
    from repro.analysis import AnalysisReport

    reports: list[tuple[str, object]] = []
    for path_arg in args.paths:
        path = Path(path_arg)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            report = AnalysisReport()
            if not path.exists():
                report.add("ML000", f"no such file: {path_arg}",
                           location=path_arg)
            else:
                report.add("ML000", f"cannot read {path_arg}: {exc}",
                           location=path_arg,
                           hint="lint inputs must be UTF-8 text files")
            reports.append((path_arg, report))
            continue
        reports.append(
            (path_arg, _analyze_text(path_arg, text, args.clearance)))
    for workload in args.workload:
        from repro.analysis import analyze_database
        from repro.workloads import d1_database, mission_multilog

        db = d1_database() if workload == "d1" else mission_multilog()
        reports.append((f"workload:{workload}",
                        analyze_database(db, args.clearance)))
    if getattr(args, "lint_self", False):
        from repro.analysis import analyze_async_safety

        reports.append(("self:serving", analyze_async_safety()))
    return reports


def lint_main(argv: list[str]) -> int:
    """``multilog lint``: analyze sources without evaluating them."""
    parser = argparse.ArgumentParser(
        prog="multilog lint",
        description="Run the compile-time analyzer (stratification, safety, "
                    "arity, security-flow and dead-code lint) over MultiLog "
                    "sources or plain Datalog .dl files.")
    parser.add_argument("paths", nargs="*",
                        help="source files (.mlog/.dl) to analyze")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too, not just errors")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="diagnostic output format")
    parser.add_argument("--clearance", default=None,
                        help="analyze at this clearance (default: lattice tops)")
    parser.add_argument("--workload", action="append", default=[],
                        choices=("d1", "mission"),
                        help="also lint a built-in workload (repeatable)")
    parser.add_argument("--self", dest="lint_self", action="store_true",
                        help="run the async-safety lint (ML020/ML021) over "
                             "this installation's serving layer")
    args = parser.parse_args(argv)
    if not args.paths and not args.workload and not args.lint_self:
        parser.error("nothing to lint: give at least one file, --workload "
                     "or --self")

    reports = _lint_inputs(args)
    exit_code = 0
    if args.format == "json":
        import json

        from repro.analysis import ANALYZER_VERSION

        payload = {
            "analyzer": ANALYZER_VERSION,
            "inputs": {name: report.to_dicts() for name, report in reports},
            "ok": all(report.clean(args.strict) for _, report in reports),
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, report in reports:
            print(f"== {name} ==")
            print(report.render_text())
    for _, report in reports:
        exit_code = max(exit_code, report.exit_code(args.strict))
    return exit_code


def run_main(argv: list[str]) -> int:
    """``multilog run``: evaluate a program's stored queries resiliently.

    Every stored query (the Q component of Definition 5.1) runs through a
    :class:`~repro.resilience.ResilientExecutor`: transient faults are
    retried ``--retries`` times, evaluation is bounded by ``--timeout``
    seconds, and with ``--allow-partial`` a budget overrun prints the
    partial answers flagged ``(partial: ...)`` instead of failing.
    """
    parser = argparse.ArgumentParser(
        prog="multilog run",
        description="Evaluate a MultiLog program's stored queries through "
                    "the resilience layer (retry, then degrade).")
    parser.add_argument("program", help="MultiLog source file")
    parser.add_argument("--clearance", default=None,
                        help="session clearance (default: lattice top)")
    parser.add_argument("--engine", choices=("operational", "reduction"),
                        default="operational")
    parser.add_argument("--retries", type=int, default=2,
                        help="max retries of a transient fault per query")
    parser.add_argument("--backoff", type=float, default=0.0,
                        help="base retry backoff in seconds (doubles per retry)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget per query in seconds")
    parser.add_argument("--allow-partial", action="store_true",
                        help="serve flagged partial answers on budget overrun "
                             "instead of failing")
    parser.add_argument("--journal", default=None,
                        help="arm write-ahead journaling to this path")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="storage backend for the reduced program "
                             "(default: $MULTILOG_BACKEND or 'dict'; "
                             "'columnar' evaluates vectorized)")
    args = parser.parse_args(argv)

    from repro.obs import EvaluationBudget
    from repro.resilience import PartialResult, ResilientExecutor, RetryPolicy

    budget = (EvaluationBudget(timeout_s=args.timeout)
              if args.timeout is not None else None)
    try:
        session = MultiLogSession(Path(args.program).read_text(), args.clearance,
                                  budget=budget, journal=args.journal,
                                  backend=args.backend)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    executor = ResilientExecutor(
        retry=RetryPolicy(max_retries=args.retries, base_delay_s=args.backoff),
        allow_partial=args.allow_partial)
    exit_code = 0
    for query in session.database.queries:
        print(query)
        try:
            result = executor.ask(session, query, engine=args.engine)
        except ReproError as exc:
            print(f"  error: {exc}")
            exit_code = 1
            continue
        if isinstance(result, PartialResult):
            answers = result.answers or []
            print(f"  (partial: {result.reason}, rung={result.rung}, "
                  f"{len(answers)} answer(s) so far)")
        else:
            answers = result
        if not answers:
            print("  no.")
        for answer in answers:
            if not answer:
                print("  yes.")
            else:
                print("  " + ", ".join(f"{k} = {v}" for k, v in sorted(answer.items())))
    return exit_code


def serve_main(argv: list[str]) -> int:
    """``multilog serve``: the async multi-tenant server (docs/SERVING.md).

    Serves one shared database to concurrent clients over the
    newline-framed JSON protocol (and, with ``--http-port``, the HTTP
    shim).  Reads are snapshot-isolated, writes are serialized through
    the write-ahead journal when ``--journal`` is given, and overload
    degrades (budgeted partial answers) then sheds instead of queuing.
    """
    parser = argparse.ArgumentParser(
        prog="multilog serve",
        description="Serve a MultiLog database to concurrent clients "
                    "(newline-framed JSON protocol + optional HTTP shim).")
    parser.add_argument("program", nargs="?", default=None,
                        help="MultiLog source file (default: empty database)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7979,
                        help="framed-protocol port (0 = ephemeral)")
    parser.add_argument("--http-port", type=int, default=None,
                        help="also serve the HTTP shim on this port")
    parser.add_argument("--clearance", default=None,
                        help="server/root clearance (default: lattice top)")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="storage backend (default: $MULTILOG_BACKEND or "
                             "'dict')")
    parser.add_argument("--journal", default=None,
                        help="write-ahead journal path for asserted clauses")
    parser.add_argument("--engine", choices=("operational", "reduction"),
                        default="operational",
                        help="default engine for asks that do not name one")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="admission cap; requests past it are shed")
    parser.add_argument("--degrade-at", type=float, default=0.75,
                        help="fraction of --max-inflight past which asks run "
                             "degraded (budgeted, partial answers)")
    parser.add_argument("--shed-timeout", type=float, default=2.0,
                        help="wall-clock budget per degraded ask in seconds")
    parser.add_argument("--timeout", type=float, default=None,
                        help="default deadline per request in seconds "
                             "(clients may override per request)")
    parser.add_argument("--quota", action="append", default=None,
                        metavar="LEVEL=N",
                        help="per-clearance admission quota (repeatable), "
                             "e.g. --quota u=16 --quota c=32")
    parser.add_argument("--checkpoint-records", type=int, default=1000,
                        help="checkpoint the journal after this many clause "
                             "records since the last snapshot (0 disables)")
    parser.add_argument("--checkpoint-bytes", type=int, default=4 * 1024 * 1024,
                        help="... or once the journal exceeds this many bytes "
                             "(0 disables)")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds SIGTERM waits for inflight requests "
                             "before stopping anyway")
    parser.add_argument("--no-audit", action="store_true",
                        help="disable the server-wide MLS audit trail")
    parser.add_argument("--trace", action="store_true",
                        help="open a root span per request and thread it "
                             "through the engine (docs/OBSERVABILITY.md)")
    parser.add_argument("--access-log", default=None, metavar="FILE",
                        help="size-rotated JSONL request log (one line per "
                             "request; never contains query text)")
    parser.add_argument("--slow-threshold", type=float, default=None,
                        metavar="SECONDS",
                        help="capture requests slower than this (or errored) "
                             "into the slow log, served via the slowlog op "
                             "and GET /v1/debug/slow")
    parser.add_argument("--slo-target", type=float, default=0.99,
                        help="availability target the burn-rate gauges "
                             "measure against (default 0.99)")
    args = parser.parse_args(argv)

    import asyncio
    import signal

    from repro.obs import EvaluationBudget
    from repro.serving import MultiLogServer, ServerConfig

    try:
        source = Path(args.program).read_text() if args.program else ""
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    quotas = None
    if args.quota:
        quotas = {}
        for spec in args.quota:
            level, sep, cap = spec.partition("=")
            if not sep or not cap.isdigit():
                print(f"error: bad --quota {spec!r} (expected LEVEL=N)",
                      file=sys.stderr)
                return 2
            quotas[level] = int(cap)
    config = ServerConfig(
        host=args.host, port=args.port, clearance=args.clearance,
        backend=args.backend, journal=args.journal, engine=args.engine,
        max_inflight=args.max_inflight, degrade_at=args.degrade_at,
        shed_budget=EvaluationBudget(timeout_s=args.shed_timeout),
        default_timeout_s=args.timeout, clearance_quotas=quotas,
        checkpoint_records=args.checkpoint_records or None,
        checkpoint_bytes=args.checkpoint_bytes or None,
        drain_timeout_s=args.drain_timeout,
        audit=not args.no_audit,
        trace=args.trace, access_log=args.access_log,
        slow_threshold_s=args.slow_threshold, slo_target=args.slo_target)

    async def _serve() -> int:
        try:
            server = MultiLogServer(source, config)
            host, port = await server.start()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"multilog serving on {host}:{port} "
              f"(backend={server.root.backend}, "
              f"clearance={server.root.clearance}, "
              f"max_inflight={config.max_inflight})")
        if args.http_port is not None:
            http_host, http_port = await server.start_http(port=args.http_port)
            print(f"HTTP shim on http://{http_host}:{http_port} "
                  f"(POST /v1/ask, GET /metrics, GET /healthz)")
        # SIGTERM drains gracefully: stop accepting, finish inflight,
        # final checkpoint, then exit -- the rollout story for the
        # million-user deployment (docs/SERVING.md).
        terminated = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, terminated.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal handler support
        serve_task = asyncio.ensure_future(server.serve_forever())
        term_task = asyncio.ensure_future(terminated.wait())
        try:
            await asyncio.wait({serve_task, term_task},
                               return_when=asyncio.FIRST_COMPLETED)
            if terminated.is_set():
                print("SIGTERM: draining...")
                drained = await server.drain()
                print("drained cleanly" if drained
                      else "drain timed out with requests in flight")
        except asyncio.CancelledError:
            pass
        finally:
            for task in (serve_task, term_task):
                task.cancel()
            await asyncio.gather(serve_task, term_task,
                                 return_exceptions=True)
            await server.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserver stopped")
        return 0


def _telemetry_session(parser: argparse.ArgumentParser, args
                       ) -> MultiLogSession | None:
    """A session over ``args.program`` or ``--workload`` (telemetry CLIs)."""
    if args.program:
        try:
            source = Path(args.program).read_text()
            return MultiLogSession(source, args.clearance)
        except (OSError, ReproError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
    if args.workload:
        from repro.workloads import d1_database, mission_multilog

        db = d1_database() if args.workload == "d1" else mission_multilog()
        return MultiLogSession(db, args.clearance)
    parser.error("nothing to run: give a program file or --workload")
    return None


def metrics_main(argv: list[str]) -> int:
    """``multilog metrics``: run stored queries, print Prometheus text.

    Evaluates the program's stored queries (Definition 5.1's Q component)
    with latency histograms enabled, then emits every counter and
    per-span-family histogram in the Prometheus text exposition format on
    stdout -- pipe it to a file for the node_exporter textfile collector.
    """
    parser = argparse.ArgumentParser(
        prog="multilog metrics",
        description="Evaluate a program's stored queries and emit the "
                    "session's telemetry in Prometheus text format.")
    parser.add_argument("program", nargs="?", help="MultiLog source file")
    parser.add_argument("--clearance", default=None)
    parser.add_argument("--engine", choices=("operational", "reduction"),
                        default="operational")
    parser.add_argument("--workload", choices=("d1", "mission"), default=None,
                        help="run a built-in workload instead of a file")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="also dump the last query's span forest "
                             "(.json/.chrome/.jsonl by suffix)")
    args = parser.parse_args(argv)
    session = _telemetry_session(parser, args)
    if session is None:
        return 2
    session.enable_telemetry()
    exit_code = 0
    for query in session.database.queries:
        try:
            session.ask(query, engine=args.engine)
        except ReproError as exc:
            print(f"# query failed: {exc}", file=sys.stderr)
            exit_code = 1
    print(session.metrics_text(), end="")
    if args.trace_out and session.last_trace() is not None:
        from repro.obs.export import write_trace

        write_trace(session.last_trace(), args.trace_out)
    return exit_code


def audit_main(argv: list[str]) -> int:
    """``multilog audit``: run stored queries under the MLS audit trail.

    Every cross-level read, cautious override, filter suppression and
    surprise story the evaluation implies is printed afterwards --
    ``--format jsonl`` emits one JSON object per distinct event for log
    shipping.
    """
    parser = argparse.ArgumentParser(
        prog="multilog audit",
        description="Evaluate a program's stored queries with the MLS "
                    "security-audit trail enabled and print the trail.")
    parser.add_argument("program", nargs="?", help="MultiLog source file")
    parser.add_argument("--clearance", default=None)
    parser.add_argument("--engine", choices=("operational", "reduction"),
                        default="operational")
    parser.add_argument("--workload", choices=("d1", "mission"), default=None,
                        help="run a built-in workload instead of a file")
    parser.add_argument("--format", choices=("text", "jsonl"), default="text")
    args = parser.parse_args(argv)
    session = _telemetry_session(parser, args)
    if session is None:
        return 2
    log = session.enable_audit()
    exit_code = 0
    for query in session.database.queries:
        try:
            session.ask(query, engine=args.engine)
        except ReproError as exc:
            print(f"# query failed: {exc}", file=sys.stderr)
            exit_code = 1
    if args.format == "jsonl":
        text = log.to_jsonl()
        if text:
            print(text)
    else:
        print(log.render() or "(no audit events)")
    return exit_code


def slowlog_main(argv: list[str]) -> int:
    """``multilog slowlog``: fetch a running server's slow-query log.

    Connects over the framed protocol and prints the captured
    slow/errored requests, redacted by the server at the requesting
    clearance -- a LOW operator sees timings and outcomes for HIGH
    captures but never their query text (docs/OBSERVABILITY.md).
    """
    parser = argparse.ArgumentParser(
        prog="multilog slowlog",
        description="Print the slow-query captures of a running multilog "
                    "server, redacted at the requesting clearance.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7979,
                        help="framed-protocol port of the server")
    parser.add_argument("--clearance", default=None,
                        help="view the log at this clearance "
                             "(default: the server's root clearance)")
    parser.add_argument("--limit", type=int, default=None,
                        help="newest N captures only")
    parser.add_argument("--format", choices=("text", "jsonl"), default="text")
    args = parser.parse_args(argv)

    import asyncio
    import json

    from repro.serving import ServingClient

    async def _fetch() -> dict:
        client = await ServingClient.connect(args.host, args.port,
                                             clearance=args.clearance)
        try:
            return await client.slowlog(limit=args.limit)
        finally:
            await client.close()

    try:
        response = asyncio.run(_fetch())
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not response.get("enabled"):
        print("slow log disabled on this server "
              "(start it with --slow-threshold)", file=sys.stderr)
        return 1
    entries = response.get("entries", [])
    if args.format == "jsonl":
        for entry in entries:
            print(json.dumps(entry, separators=(",", ":"), default=repr))
        return 0
    print(f"{len(entries)} capture(s) "
          f"(threshold {response.get('threshold_s')}s, "
          f"{response.get('captured_total')} total)")
    for entry in entries:
        line = (f"  {entry['trace_id']}  {entry['op']:<6} "
                f"level={entry['level']} outcome={entry['outcome']} "
                f"{entry['elapsed_ms']:.1f}ms")
        if entry.get("redacted"):
            line += "  [redacted]"
        print(line)
        if not entry.get("redacted") and entry.get("query"):
            print(f"    query: {entry['query']}")
            if entry.get("explain"):
                for row in str(entry["explain"]).splitlines():
                    print(f"    | {row}")
    return 0


def recover_main(argv: list[str]) -> int:
    """``multilog recover``: rebuild a database from a journal."""
    parser = argparse.ArgumentParser(
        prog="multilog recover",
        description="Replay a write-ahead journal, re-check Definitions "
                    "5.3/5.4 on the recovered database, and report.")
    parser.add_argument("journal", help="journal file written by a journaled session")
    parser.add_argument("--clearance", default=None)
    parser.add_argument("--compact", action="store_true",
                        help="compact the journal to one snapshot after recovery")
    parser.add_argument("--require-consistent", action="store_true",
                        help="fail recovery when the replayed database does "
                             "not satisfy Definition 5.4")
    parser.add_argument("--shell", action="store_true",
                        help="drop into an interactive shell on the recovered session")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="storage backend for the recovered session "
                             "(default: $MULTILOG_BACKEND or 'dict')")
    args = parser.parse_args(argv)

    try:
        session = MultiLogSession.recover(
            args.journal, args.clearance,
            require_consistent=args.require_consistent,
            backend=args.backend)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    db = session.database
    print(f"recovered {len(db.lattice_clauses)} lattice, "
          f"{len(db.secured_clauses)} secured, "
          f"{len(db.plain_clauses)} plain clause(s) at version {db.version}")
    if session.journal_recovery is not None:
        print(session.journal_recovery.summary())
    else:
        print("admissibility (Def 5.3): ok")
        report = session.recovery_report
        print(f"consistency (Def 5.4): {'ok' if report.ok else 'VIOLATED'}")
        if not report.ok:
            for message in report.all_messages():
                print(f"  {message}")
    if args.compact:
        session.journal.compact(db)
        print(f"compacted journal to {args.journal}")
    if args.shell:
        shell = Shell(db, session.clearance, backend=session.backend)
        shell.session.journal = session.journal
        return _repl(shell)
    return 0


def _repl(shell: "Shell") -> int:
    """The interactive read-eval-print loop over a prepared shell."""
    print("MultiLog shell -- :help for commands")
    while True:
        try:
            line = input(PROMPT.format(level=shell.clearance))
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            output = shell.execute_line(line)
        except ShellExit:
            return 0
        if output:
            print(output)


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``multilog`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "recover":
        return recover_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "metrics":
        return metrics_main(argv[1:])
    if argv and argv[0] == "audit":
        return audit_main(argv[1:])
    if argv and argv[0] == "slowlog":
        return slowlog_main(argv[1:])
    parser = argparse.ArgumentParser(description="Interactive MultiLog shell")
    parser.add_argument("program", nargs="?", help="MultiLog source file to load")
    parser.add_argument("--clearance", help="session clearance (default: lattice top)")
    parser.add_argument("--trace", action="store_true",
                        help="print the span tree after each query")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="dump each query's span forest to FILE "
                             "(.json / .chrome / .jsonl by suffix)")
    parser.add_argument("--explain", action="store_true",
                        help="dump the compiled join plans of the reduced "
                             "program and exit")
    parser.add_argument("--lint-only", action="store_true",
                        help="run the static analyzer over the program and "
                             "exit (non-zero on any error-severity finding)")
    parser.add_argument("--journal", default=None,
                        help="arm crash-safe write-ahead journaling of "
                             "asserted clauses to this path")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="storage backend for the reduced program "
                             "(default: $MULTILOG_BACKEND or 'dict'; "
                             "'columnar' evaluates vectorized)")
    args = parser.parse_args(argv)

    source = Path(args.program).read_text() if args.program else ""
    if args.lint_only:
        report = _analyze_text(args.program or "<empty>", source, args.clearance)
        print(report.render_text())
        return report.exit_code(strict=False)
    shell = Shell(source, args.clearance, trace=args.trace, journal=args.journal,
                  trace_out=args.trace_out, backend=args.backend)
    if args.explain:
        print(shell.session.explain())
        return 0
    return _repl(shell)


if __name__ == "__main__":
    sys.exit(main())
