"""Tracing must be observation-only: traced and untraced runs agree.

25 programs (random chains/trees/graphs plus negation and built-in
corner cases) evaluated twice per plan -- once under a fully enabled
observation context, once untraced -- must produce byte-identical least
models, and the traced run must actually have recorded spans.
"""

import pytest

from repro.datalog import evaluate, parse_program
from repro.obs import observe, use
from repro.workloads.generator import random_datalog_program

#: test id -> evaluate() options: the naive oracle, the semi-naive plan
#: the (environment's) backend picks, and each backend's native plan.
PLANS = {
    "naive": {"naive": True},
    "seminaive": {},
    "compiled": {"backend": "dict"},
    "vectorized": {"backend": "columnar"},
}


def full_model(db):
    return {p: db.rows(p) for p in db.predicates()}


CORNER_PROGRAMS = [
    "q(a, a). q(a, b). same(X) :- q(X, X).",
    "flag. p(a). gated(X) :- flag, p(X).",
    """
    node(a). node(b). node(c). edge(a, b).
    linked(X) :- edge(X, Y).
    linked(Y) :- edge(X, Y).
    isolated(X) :- node(X), not linked(X).
    """,
    "n(1). n(2). n(3). small(X) :- n(X), X < 3.",
    """
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), path(Z, Y).
    """,
    """
    base(1). succ(1, 2). succ(2, 3). succ(3, 4).
    even(1) :- base(1).
    odd(Y) :- even(X), succ(X, Y).
    even(Y) :- odd(X), succ(X, Y).
    """,
    """
    base(a). base(b). mark(a).
    unmarked(X) :- base(X), not mark(X).
    remarked(X) :- base(X), not unmarked(X).
    """,
]

# 18 random + 7 corner = 25 programs.
PROGRAMS = [
    random_datalog_program(6 + (seed % 9), shape, seed=seed)
    for shape in ("chain", "tree", "random")
    for seed in range(6)
] + CORNER_PROGRAMS

assert len(PROGRAMS) == 25


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
@pytest.mark.parametrize("plan", PLANS)
def test_traced_model_is_identical(index, plan):
    text = PROGRAMS[index]
    untraced = full_model(evaluate(parse_program(text), **PLANS[plan]))
    ctx = observe()
    with use(ctx):
        traced = full_model(evaluate(parse_program(text), **PLANS[plan]))
    assert traced == untraced
    assert ctx.recorder.find("evaluate")


def test_trace_records_rule_and_round_structure():
    text = (
        "edge(a, b). edge(b, c). edge(c, d). "
        "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."
    )
    ctx = observe()
    with use(ctx):
        evaluate(parse_program(text))
    (evaluate_span,) = ctx.recorder.find("evaluate")
    (stratum,) = ctx.recorder.find("stratum[0]")
    assert stratum in evaluate_span.children
    assert ctx.recorder.find("rule-fire")
    assert ctx.recorder.find("round[1]")
