"""Evaluation budgets interrupt runaway evaluations with partial metrics.

The canonical adversarial input is a transitive closure over a long
chain: every plan derives O(n^2) path facts over O(n) rounds, so a
small row or round cap trips mid-fixpoint.
"""

import pytest

from repro.datalog import evaluate, parse_program
from repro.errors import BudgetExceededError
from repro.multilog import MultiLogSession
from repro.obs import EvaluationBudget, observe, use

#: test id -> evaluate() options: the naive oracle, the semi-naive plan
#: the (environment's) backend picks, and each backend's native plan.
PLANS = {
    "naive": {"naive": True},
    "seminaive": {},
    "compiled": {"backend": "dict"},
    "vectorized": {"backend": "columnar"},
}


def chain_tc(n: int) -> str:
    facts = " ".join(f"edge({i}, {i + 1})." for i in range(n))
    return facts + " path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."


class TestDatalogBudgets:
    @pytest.mark.parametrize("plan", PLANS)
    def test_row_cap_interrupts(self, plan):
        program = parse_program(chain_tc(30))
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, **PLANS[plan],
                     budget=EvaluationBudget(max_derived_rows=50))
        exc = info.value
        assert exc.reason == "rows"
        assert exc.spent["rows"] > 50

    @pytest.mark.parametrize("plan", PLANS)
    def test_round_cap_interrupts(self, plan):
        program = parse_program(chain_tc(30))
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, **PLANS[plan], budget=EvaluationBudget(max_rounds=3))
        exc = info.value
        assert exc.reason == "rounds"
        assert exc.spent["rounds"] == 4  # failed entering round cap+1

    @pytest.mark.parametrize("plan", PLANS)
    def test_timeout_interrupts(self, plan):
        program = parse_program(chain_tc(60))
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, **PLANS[plan], budget=EvaluationBudget(timeout_s=0.0))
        assert info.value.reason == "timeout"
        assert info.value.spent["elapsed_s"] > 0.0

    def test_generous_budget_does_not_interfere(self):
        program = parse_program(chain_tc(10))
        budget = EvaluationBudget(max_derived_rows=10_000, max_rounds=1_000,
                                  timeout_s=60.0)
        db = evaluate(program, budget=budget)
        assert len(db.rows("path")) == 10 * 11 // 2

    def test_partial_metrics_attached_when_collecting(self):
        program = parse_program(chain_tc(30))
        ctx = observe()
        with use(ctx):
            with pytest.raises(BudgetExceededError) as info:
                evaluate(program, budget=EvaluationBudget(max_rounds=2))
        metrics = info.value.metrics
        assert metrics is not None
        assert metrics.total_firings > 0
        assert metrics.spans  # the partial span tree is included

    def test_no_metrics_attached_without_collector(self):
        from repro.obs.context import DISABLED

        program = parse_program(chain_tc(30))
        with use(DISABLED):  # pin: ambient obs (e.g. CI tracing) must not leak in
            with pytest.raises(BudgetExceededError) as info:
                evaluate(program, budget=EvaluationBudget(max_rounds=2))
        assert info.value.metrics is None


SESSION_TC = """
level(u).
edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(5, 6).
edge(6, 7). edge(7, 8). edge(8, 9). edge(9, 10). edge(10, 1).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


class TestSessionBudgets:
    @pytest.mark.parametrize("engine", ("operational", "reduction"))
    def test_row_cap_interrupts_both_engines(self, engine):
        session = MultiLogSession(SESSION_TC,
                                  budget=EvaluationBudget(max_derived_rows=10))
        with pytest.raises(BudgetExceededError) as info:
            session.ask("path(1, X)", engine=engine)
        exc = info.value
        assert exc.reason == "rows"
        # The session attaches its cumulative snapshot, marked as exceeded.
        assert exc.metrics is not None
        assert exc.metrics.budget_exceeded == "rows"
        assert session.last_stats() is exc.metrics

    def test_timeout_interrupts_operational(self):
        session = MultiLogSession(SESSION_TC,
                                  budget=EvaluationBudget(timeout_s=0.0))
        with pytest.raises(BudgetExceededError) as info:
            session.ask("path(1, X)")
        assert info.value.reason == "timeout"

    def test_unbudgeted_session_answers(self):
        session = MultiLogSession(SESSION_TC)
        answers = session.ask("path(1, X)")
        assert len(answers) == 10  # full cycle closure

    def test_budget_is_per_ask(self):
        session = MultiLogSession(SESSION_TC,
                                  budget=EvaluationBudget(max_derived_rows=500))
        first = session.ask("path(1, X)")
        # A fresh meter per ask: repeated queries don't accumulate spend.
        for _ in range(3):
            assert session.ask("path(1, X)") == first


class TestCautiousBudget:
    def test_ambient_timeout_reaches_cautious(self):
        from repro.belief.beta import cautious
        from repro.workloads.mission import mission_relation

        relation, _tids = mission_relation()
        with use(observe(budget=EvaluationBudget(timeout_s=0.0))):
            with pytest.raises(BudgetExceededError) as info:
                cautious(relation, "t")
        assert info.value.reason == "timeout"

    def test_ambient_row_cap_reaches_cautious(self):
        from repro.belief.beta import cautious
        from repro.workloads.mission import mission_relation

        relation, _tids = mission_relation()
        with use(observe(budget=EvaluationBudget(max_derived_rows=1))):
            with pytest.raises(BudgetExceededError) as info:
                cautious(relation, "t")
        assert info.value.reason == "rows"
