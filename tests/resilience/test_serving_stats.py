"""Serving-attempt stats: after the resilience executor settles an ask,
``last_stats()`` reports the counters of the attempt that produced the
answers -- aborted tries are rolled back, not merged in -- stamped with
``attempt``/``rung`` and the cumulative resilience counters."""

import pytest

from repro.datalog.engine import native_plan
from repro.errors import BudgetExceededError, FaultInjectedError
from repro.multilog import MultiLogSession
from repro.obs import EvaluationBudget
from repro.resilience import FaultPlan, ResilientExecutor

MLOG = """
level(u). level(s). order(u, s).
u[acct(alice : name -u-> alice)].
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""

QUERY = "s[acct(alice : balance -C-> B)] << cau"


def clean_stats():
    session = MultiLogSession(MLOG, clearance="s")
    ResilientExecutor().ask(session, QUERY)
    return session.last_stats()


class TestServingAttempt:
    def test_fault_free_ask_is_attempt_one(self):
        stats = clean_stats()
        assert stats.attempt == 1
        assert stats.rung == native_plan()
        assert stats.retries == 0
        assert f"served by: attempt 1 on rung {native_plan()}" in stats.summary()

    def test_retried_ask_reports_only_the_serving_attempt(self):
        baseline = clean_stats()
        session = MultiLogSession(MLOG, clearance="s")
        plan = FaultPlan()
        plan.arm("query", error="transient", times=2)
        session.arm_faults(plan)
        ResilientExecutor().ask(session, QUERY)
        stats = session.last_stats()
        assert stats.attempt == 3
        assert stats.retries == 2
        # The two aborted attempts were rolled back: engine counters
        # match a fault-free run, not three runs merged.
        assert stats.total_firings == baseline.total_firings
        assert stats.join_probes == baseline.join_probes
        assert stats.asks == 1
        assert f"served by: attempt 3 on rung {native_plan()}" in stats.summary()

    def test_failed_ask_claims_no_serving_plan(self):
        session = MultiLogSession(MLOG, clearance="s")
        plan = FaultPlan()
        plan.arm("stratum[*]", error="permanent")
        session.arm_faults(plan)
        with pytest.raises(FaultInjectedError):
            ResilientExecutor().ask(session, QUERY, engine="reduction")
        stats = session.last_stats()
        assert (stats.rung, stats.degraded, stats.asks) == (None, None, 0)
        assert stats.degraded_asks == 0
        assert "served by:" not in stats.summary()

    def test_partial_budget_keeps_the_aborted_attempts_counters(self):
        session = MultiLogSession(MLOG, clearance="s",
                                  budget=EvaluationBudget(max_rounds=1))
        executor = ResilientExecutor(allow_partial=True)
        answers = executor.ask(session, QUERY)
        assert getattr(answers, "complete", True) is False
        stats = session.last_stats()
        # The budget-aborted attempt IS the serving one: its partial
        # counters survive (no rollback) so :stats shows where it died.
        assert stats.degraded_asks == 1
        assert stats.budget_exceeded is not None or stats.degraded

    def test_budget_raise_still_attaches_serving_metrics(self):
        session = MultiLogSession(MLOG, clearance="s",
                                  budget=EvaluationBudget(max_rounds=1))
        with pytest.raises(BudgetExceededError) as err:
            ResilientExecutor().ask(session, QUERY)
        assert err.value.metrics is not None
        assert session.last_stats() is not None

    def test_counters_accumulate_across_asks(self):
        session = MultiLogSession(MLOG, clearance="s")
        plan = FaultPlan()
        plan.arm("query", error="transient", times=1)
        session.arm_faults(plan)
        executor = ResilientExecutor()
        executor.ask(session, QUERY)
        session.disarm_faults()
        executor.ask(session, QUERY)
        stats = session.last_stats()
        # retries is cumulative across the session's lifetime; the
        # second, clean ask is attempt 1 of its own ladder.
        assert stats.retries == 1
        assert stats.asks == 2
        assert stats.attempt == 1
