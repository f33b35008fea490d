"""ResilientExecutor unit tests: retry, then partial degradation."""

import pytest

from repro.datalog import evaluate, parse_program
from repro.datalog.engine import native_plan
from repro.errors import (
    BudgetExceededError,
    FaultInjectedError,
    TransientFaultError,
    UnsafeRuleError,
)
from repro.multilog import MultiLogSession
from repro.obs import EvaluationBudget, ObsContext, use
from repro.resilience import (
    FaultPlan,
    PartialResult,
    ResilientExecutor,
    RetryPolicy,
)

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d). edge(d, e).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
"""

MLOG = """
level(u). level(s). order(u, s).
u[acct(alice : name -u-> alice)].
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""

QUERY = "s[acct(alice : balance -C-> B)] << cau"


def baseline_rows():
    return evaluate(parse_program(PROGRAM)).rows("path")


class TestRetry:
    def test_transient_fault_is_retried_to_identical_answers(self):
        plan = FaultPlan()
        plan.arm("stratum[*]", error="transient")
        executor = ResilientExecutor()
        with use(ObsContext(faults=plan)):
            db = executor.evaluate(parse_program(PROGRAM))
        assert db.rows("path") == baseline_rows()
        outcome = executor.last_outcome
        assert outcome.retries == 1
        assert outcome.rung == native_plan()
        assert outcome.degraded is None

    def test_corruption_is_retried_too(self):
        plan = FaultPlan()
        plan.arm("rule-fire", action="corrupt")
        executor = ResilientExecutor()
        with use(ObsContext(faults=plan)):
            db = executor.evaluate(parse_program(PROGRAM))
        assert db.rows("path") == baseline_rows()
        assert executor.last_outcome.retries == 1

    def test_retries_are_capped(self):
        plan = FaultPlan()
        plan.arm("evaluate", error="transient", times=None)  # never heals
        executor = ResilientExecutor(retry=RetryPolicy(max_retries=1))
        with use(ObsContext(faults=plan)):
            with pytest.raises(TransientFaultError):
                executor.evaluate(parse_program(PROGRAM))
        # 2 attempts (1 retry) on the requested plan, then the raise.
        assert executor.last_outcome.attempts == 2
        assert executor.last_outcome.retries == 1

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_retries=5, base_delay_s=0.1, max_delay_s=0.35)
        assert [policy.delay_for(n) for n in range(4)] == [0.1, 0.2, 0.35, 0.35]
        # And the executor actually sleeps those delays.
        slept = []
        plan = FaultPlan()
        plan.arm("evaluate", error="transient", times=2)
        executor = ResilientExecutor(
            retry=RetryPolicy(max_retries=2, base_delay_s=0.1, max_delay_s=0.35),
            sleep=slept.append)
        with use(ObsContext(faults=plan)):
            db = executor.evaluate(parse_program(PROGRAM))
        assert db.rows("path") == baseline_rows()
        assert slept == [0.1, 0.2]

    def test_permanent_fault_propagates_immediately(self):
        plan = FaultPlan()
        plan.arm("evaluate", error="permanent")
        executor = ResilientExecutor()
        with use(ObsContext(faults=plan)):
            with pytest.raises(FaultInjectedError):
                executor.evaluate(parse_program(PROGRAM))
        assert executor.last_outcome.attempts == 1

    def test_real_program_errors_propagate(self):
        executor = ResilientExecutor()
        with pytest.raises(UnsafeRuleError):
            executor.evaluate(parse_program("p(X) :- not q(X)."))


def exhaust_retries(**options):
    """Run PROGRAM under a transient fault that outlasts the retry budget."""
    plan = FaultPlan()
    # Heals after 4 firings: one more than 1 + 2 retries.
    plan.arm("stratum[*]", error="transient", times=4)
    executor = ResilientExecutor()
    with use(ObsContext(faults=plan)):
        with pytest.raises(TransientFaultError):
            executor.evaluate(parse_program(PROGRAM), **options)
    outcome = executor.last_outcome
    return outcome.rung, outcome.attempts, outcome.retries


class TestOnePlan:
    def test_exhausted_retries_raise_on_the_requested_plan(self):
        # The default plan is retried to exhaustion and then raises.
        assert exhaust_retries() == (native_plan(), 3, 2)

    def test_only_the_requested_plan_runs(self):
        # No other plan is tried: not even the naive oracle.
        assert exhaust_retries(backend="dict") == ("compiled", 3, 2)
        assert exhaust_retries(backend="columnar") == ("vectorized", 3, 2)
        assert exhaust_retries(naive=True) == ("naive", 3, 2)

    def test_plan_fault_is_an_error_not_another_plans_answer(self):
        # rule-fire opens only in the shared semi-naive driver: the naive
        # oracle would not fail, and it is still not consulted.
        plan = FaultPlan()
        plan.arm("rule-fire", error="permanent", times=None)
        executor = ResilientExecutor(allow_partial=True)
        with use(ObsContext(faults=plan)):
            with pytest.raises(FaultInjectedError):
                executor.evaluate(parse_program(PROGRAM))
        assert executor.last_outcome.attempts == 1
        assert executor.last_outcome.degraded is None


class TestPartial:
    def test_budget_raises_without_opt_in(self):
        executor = ResilientExecutor(budget=EvaluationBudget(max_rounds=1))
        with pytest.raises(BudgetExceededError):
            executor.evaluate(parse_program(PROGRAM))

    def test_budget_degrades_to_partial_with_opt_in(self):
        executor = ResilientExecutor(allow_partial=True,
                                     budget=EvaluationBudget(max_rounds=1))
        result = executor.evaluate(parse_program(PROGRAM))
        assert isinstance(result, PartialResult)
        assert result.complete is False
        assert result.reason == "budget-rounds"
        assert result.rung == native_plan()
        # Negation-free: the partial model is a subset of the true model.
        assert result.database is not None
        assert result.database.rows("path") < baseline_rows()
        assert executor.last_outcome.degraded == f"{native_plan()}:budget-rounds"

    def test_partial_ask_flags_and_salvages(self):
        session = MultiLogSession(MLOG, clearance="s",
                                  budget=EvaluationBudget(max_rounds=1))
        executor = ResilientExecutor(allow_partial=True)
        result = executor.ask(session, QUERY, engine="reduction")
        assert isinstance(result, PartialResult)
        assert result.complete is False
        # Degradation is surfaced through the session's observability.
        assert session.last_stats().degraded \
            == f"{native_plan(session.backend)}:budget-rounds"
        root = session.last_trace().roots[-1]
        assert root.attrs.get("degraded") is True

    def test_complete_results_are_never_wrapped(self):
        session = MultiLogSession(MLOG, clearance="s")
        executor = ResilientExecutor(allow_partial=True)
        answers = executor.ask(session, QUERY)
        assert answers == [{"B": 900, "C": "s"}]
        assert session.last_stats().degraded is None


class TestAskResilience:
    def test_transient_ask_is_retried_to_identical_answers(self):
        session = MultiLogSession(MLOG, clearance="s")
        expected = session.ask(QUERY)
        plan = FaultPlan()
        plan.arm("query", error="transient")
        session.arm_faults(plan)
        executor = ResilientExecutor()
        assert executor.ask(session, QUERY) == expected
        assert executor.last_outcome.retries == 1

    def test_permanent_plan_fault_fails_the_ask(self):
        # Fresh session so the ask actually evaluates (a cached reduced
        # model would never reach the faulted stratum spans).
        session = MultiLogSession(MLOG, clearance="s")
        plan = FaultPlan()
        plan.arm("stratum[*]", error="permanent", times=None)
        session.arm_faults(plan)
        executor = ResilientExecutor(allow_partial=True)
        with pytest.raises(FaultInjectedError):
            executor.ask(session, QUERY, engine="reduction")
        assert executor.last_outcome.attempts == 1
        assert session.last_ask_metrics() is None
        # The session is not wedged: once the fault is gone, it serves.
        session.disarm_faults()
        assert executor.ask(session, QUERY, engine="reduction") \
            == MultiLogSession(MLOG, clearance="s").ask(QUERY, engine="reduction")

    def test_armed_session_faults_hit_plain_asks(self):
        session = MultiLogSession(MLOG, clearance="s")
        plan = FaultPlan()
        plan.arm("query", error="permanent")
        session.arm_faults(plan)
        with pytest.raises(FaultInjectedError):
            session.ask(QUERY)
        session.disarm_faults()
        assert session.ask(QUERY) == [{"B": 900, "C": "s"}]
