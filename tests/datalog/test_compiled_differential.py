"""Differential tests: the native plans agree with the naive oracle.

The native plans (:mod:`repro.datalog.plan`) re-implement body matching
with generated code -- ``compiled`` row loops over slot environments and
composite indexes on ``dict``, ``vectorized`` batch pipelines on
``columnar``.  These tests pin both to the naive interpreter on random
programs and on the hand-written corner cases codegen is most likely to
get wrong, comparing every model.
"""

import pytest

from repro.datalog import evaluate, parse_program
from repro.workloads.generator import random_datalog_program

#: (label, evaluate() options): the naive oracle first, then each
#: backend's native plan.
PLANS = [
    ("naive", {"naive": True}),
    ("compiled", {"backend": "dict"}),
    ("vectorized", {"backend": "columnar"}),
]


def full_model(db):
    """Every derived row, keyed by predicate (total-model comparison)."""
    return {p: db.rows(p) for p in db.predicates()}


def assert_plans_agree(text):
    models = [full_model(evaluate(parse_program(text), **options))
              for _label, options in PLANS]
    for model, (label, _options) in zip(models[1:], PLANS[1:]):
        assert model == models[0], f"{label} diverged from naive"


# 27 random programs: 9 seeds x 3 shapes.
RANDOM_CASES = [
    (shape, seed)
    for shape in ("chain", "tree", "random")
    for seed in range(9)
]


@pytest.mark.parametrize("shape,seed", RANDOM_CASES)
def test_random_programs_agree(shape, seed):
    assert_plans_agree(random_datalog_program(6 + (seed % 9), shape, seed=seed))


CORNER_CASES = [
    # repeated variable inside one literal
    "q(a, a). q(a, b). same(X) :- q(X, X).",
    # constants in body literals (probe key folds them in)
    "e(a, b). e(a, c). e(b, c). from_a(Y) :- e(a, Y).",
    # constants in the head
    "p(x). tagged(lab, X) :- p(X).",
    # zero-arity predicates
    "flag. p(a). gated(X) :- flag, p(X).",
    # stratified negation
    """
    node(a). node(b). node(c). edge(a, b).
    linked(X) :- edge(X, Y).
    linked(Y) :- edge(X, Y).
    isolated(X) :- node(X), not linked(X).
    """,
    # ground negative literal (no enclosing loop in the generated code)
    "blocked(a). p(b). ok(X) :- p(X), not blocked(a).",
    # built-ins: comparisons and equality join
    "n(1). n(2). n(3). small(X) :- n(X), X < 3.",
    "a(1). b(1). both(X) :- a(X), b(Y), X = Y.",
    "p(a). p(b). distinct(X, Y) :- p(X), p(Y), X != Y.",
    # same predicate twice, both recursive (two delta variants)
    """
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), path(Z, Y).
    """,
    # mutual recursion through two predicates
    """
    base(1). succ(1, 2). succ(2, 3). succ(3, 4).
    even(1) :- base(1).
    odd(Y) :- even(X), succ(X, Y).
    even(Y) :- odd(X), succ(X, Y).
    """,
    # double negation across strata
    """
    base(a). base(b). mark(a).
    unmarked(X) :- base(X), not mark(X).
    remarked(X) :- base(X), not unmarked(X).
    """,
]


@pytest.mark.parametrize("text", CORNER_CASES)
def test_corner_cases_agree(text):
    assert_plans_agree(text)
