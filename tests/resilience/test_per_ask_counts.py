"""Per-ask collectors: each ask counts into its own collector, which is
folded into the session totals only when the ask is served, and every
retried attempt runs under the ask's budget."""

import pytest

from repro.datalog.engine import native_plan
from repro.errors import FaultInjectedError
from repro.multilog import MultiLogSession
from repro.obs import EvaluationBudget, MetricsCollector
from repro.resilience import FaultPlan, PartialResult, ResilientExecutor

MLOG = """
level(u). level(s). order(u, s).
u[acct(alice : name -u-> alice)].
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""

QUERY = "s[acct(alice : balance -C-> B)] << cau"


class TestMerge:
    def test_merge_adds_every_engine_counter(self):
        totals = MetricsCollector()
        totals.rule_fired("r", 2)
        totals.record_rounds("stratum[0]", 1)
        ask = MetricsCollector()
        ask.count_ask()
        ask.rule_fired("r", 3)
        ask.rule_fired("q", 1)
        ask.record_rounds("stratum[0]", 2)
        ask.add_probes(4)
        ask.add_candidate_calls(5)
        ask.add_batch_ops(6, 7, 8)
        totals.merge(ask)
        stats = totals.snapshot()
        assert stats.rule_firings == {"r": 2, "q": 1}
        assert stats.rows_derived == {"r": 5, "q": 1}
        assert stats.rounds == {"stratum[0]": 3}
        assert (stats.join_probes, stats.candidate_calls) == (4, 5)
        assert (stats.batch_probes, stats.batch_builds,
                stats.batch_dedup_rows) == (6, 7, 8)
        assert (stats.asks, stats.attempt) == (1, 1)


class TestFailedAskDropsItsCounts:
    def test_failed_plain_ask_does_not_leak_into_totals(self):
        session = MultiLogSession(MLOG, clearance="s")
        plan = FaultPlan()
        # Fires after the fixpoint has counted its firings and probes.
        plan.arm("answer-rules", error="permanent", times=None)
        session.arm_faults(plan)
        with pytest.raises(FaultInjectedError):
            session.ask(QUERY, engine="reduction")
        stats = session.last_stats()
        assert stats.asks == 0
        assert stats.total_firings == 0
        assert stats.join_probes == 0
        assert stats.attempt == 1
        assert session.last_ask_metrics() is None
        session.disarm_faults()
        session.ask(QUERY, engine="reduction")
        stats = session.last_stats()
        assert stats.asks == 1
        assert stats.attempt == 2
        served = session.last_ask_metrics()
        assert sum(served.rule_firings.values()) == stats.total_firings

    def test_served_ask_collector_holds_only_that_ask(self):
        session = MultiLogSession(MLOG, clearance="s")
        session.ask(QUERY, engine="reduction")
        first = session.last_stats()
        session.ask(QUERY, engine="reduction")
        second = session.last_stats()
        ask = session.last_ask_metrics()
        assert ask.asks == 1
        assert (sum(ask.rows_derived.values())
                == second.total_rows_derived - first.total_rows_derived)
        assert ask.join_probes == second.join_probes - first.join_probes


class TestRetryBudget:
    def test_retried_attempt_runs_under_the_budget(self):
        session = MultiLogSession(MLOG, clearance="s",
                                  budget=EvaluationBudget(max_rounds=1))
        plan = FaultPlan()
        plan.arm("rule-fire", error="transient")  # fails the first try
        session.arm_faults(plan)
        executor = ResilientExecutor(allow_partial=True)
        result = executor.ask(session, QUERY, engine="reduction")
        assert isinstance(result, PartialResult)
        assert result.rung == native_plan(session.backend)
        assert result.reason == "budget-rounds"
        assert executor.last_outcome.retries == 1
        assert session.last_stats().degraded \
            == f"{native_plan(session.backend)}:budget-rounds"
