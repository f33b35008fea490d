"""Metrics snapshots: ``last_stats()``, the ambient context and EXPLAIN."""

import json

from repro.datalog import evaluate, parse_program
from repro.datalog.engine import native_plan
from repro.multilog import MultiLogSession
from repro.obs import (
    NULL_METRICS,
    MetricsCollector,
    explain_program,
    observe,
    use,
)

SOURCE = """
level(u). level(s). order(u, s).
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
u[acct(bob : balance -u-> 55)].
"""

QUERY = "s[acct(alice : balance -C-> B)] << cau"


class TestSessionStats:
    def test_no_stats_before_first_ask(self):
        session = MultiLogSession(SOURCE, clearance="s")
        assert session.last_stats() is None
        assert session.last_trace() is None

    def test_last_stats_populated_after_operational_ask(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY)
        stats = session.last_stats()
        assert stats.asks == 1
        assert stats.total_firings > 0
        assert stats.rounds.get("operational-inner", 0) >= 1
        assert stats.spans and stats.spans[0]["name"] == "query"
        assert "beta-views" in stats.cache or "tau-translations" in stats.cache

    def test_last_stats_populated_after_reduction_ask(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY, engine="reduction")
        stats = session.last_stats()
        assert stats.join_probes > 0
        assert any(scope.startswith("stratum[") for scope in stats.rounds)
        # The reduction's spans include the translation and the fixpoint.
        names = json.dumps(list(stats.spans))
        assert "tau-translate" in names and "evaluate" in names

    def test_counters_are_cumulative_across_asks(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY)
        first = session.last_stats()
        session.ask(QUERY)
        second = session.last_stats()
        assert second.asks == 2
        assert second.total_firings >= first.total_firings

    def test_cached_ask_still_snapshots(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY, engine="reduction")
        session.ask(QUERY, engine="reduction")  # cache-hit ask
        stats = session.last_stats()
        assert stats.asks == 2
        assert stats.spans  # fresh trace even when the model was cached

    def test_summary_and_json_render(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY)
        stats = session.last_stats()
        summary = stats.summary()
        assert "asks: 1" in summary and "rule firings" in summary
        assert json.loads(stats.to_json())["asks"] == 1

    def test_traces_are_per_ask(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY)
        first = session.last_trace()
        session.ask(QUERY)
        assert session.last_trace() is not first


    def test_rule_labels_stay_bounded_over_distinct_asks(self):
        """Goal rules carry the query's constants; labelling them by their
        text grew the collector by one label per distinct query."""
        session = MultiLogSession(SOURCE, clearance="s")
        for index in range(500):
            session.ask(f"s[acct(k{index} : balance -C-> B)] << cau",
                        engine="reduction")
        labels = session.last_stats().rule_firings
        assert len(labels) <= len(session.reduced.program.rules) + 1
        assert labels["__answer"] == 500


class TestAmbientContext:
    def test_evaluate_reports_into_installed_context(self):
        program = parse_program(
            "edge(a, b). edge(b, c). path(X, Y) :- edge(X, Y). "
            "path(X, Z) :- path(X, Y), edge(Y, Z)."
        )
        ctx = observe()
        with use(ctx):
            evaluate(program)
        metrics = ctx.metrics.snapshot(ctx.recorder)
        assert metrics.total_firings > 0
        # Each semi-naive plan counts its probes in its own counter.
        probes = {"compiled": metrics.join_probes,
                  "vectorized": metrics.batch_probes}
        assert probes[native_plan()] > 0
        assert ctx.recorder.find("evaluate") and ctx.recorder.find("stratify")
        assert ctx.recorder.find("stratum[0]")

    def test_default_context_is_disabled(self):
        import contextvars

        from repro.obs.context import current

        # Run in a fresh contextvars context: the *default* must be the
        # disabled null context even when the surrounding test process
        # (e.g. the CI trace-artifact plugin) observes ambiently.
        def probe():
            ctx = current()
            return ctx.enabled, ctx.metrics

        enabled, metrics = contextvars.Context().run(probe)
        assert not enabled
        assert metrics is NULL_METRICS

    def test_collector_reset(self):
        collector = MetricsCollector()
        collector.rule_fired("r", 3)
        collector.add_probes(5)
        collector.reset()
        assert collector.snapshot().total_firings == 0
        assert collector.snapshot().join_probes == 0


class TestExplain:
    def test_explain_program_lists_access_paths(self):
        program = parse_program(
            "edge(a, b). edge(b, c). path(X, Y) :- edge(X, Y). "
            "path(X, Z) :- path(X, Y), edge(Y, Z)."
        )
        text = explain_program(program)
        assert "stratum[0]" in text
        assert "index probe" in text
        assert "full scan" in text
        assert "delta-specialized variants: path" in text

    def test_explain_renders_guards_and_anti_joins(self):
        program = parse_program(
            "n(1). n(2). m(1). small(X) :- n(X), not m(X), X < 2."
        )
        text = explain_program(program)
        assert "anti-join" in text
        assert "guard" in text

    def test_session_explain_covers_the_reduction(self):
        session = MultiLogSession(SOURCE, clearance="s")
        text = session.explain()
        assert "plan for" in text
        assert "dominate" in text
