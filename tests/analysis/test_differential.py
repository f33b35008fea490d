"""Differential guarantee: analyzer-clean programs evaluate cleanly.

If the analyzer reports no errors, the naive oracle and the native plan
on both storage backends must accept and agree on the program; if it reports ML001/ML002/ML003, the engine's
own fail-fast guards must reject it too (the analyzer is neither more
lenient nor spuriously strict).
"""

import pytest

from repro.analysis import analyze_database, analyze_program
from repro.datalog import evaluate, parse_program
from repro.errors import DatalogError, ReproError
from repro.multilog.session import MultiLogSession
from repro.workloads import random_datalog_program, random_multilog_database

#: evaluate() options for {dict, columnar} x {native, naive}.
PLANS = [{"backend": backend, "naive": naive}
         for backend in ("dict", "columnar") for naive in (False, True)]

CLEAN_PROGRAMS = [
    "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z). "
    "edge(1, 2). edge(2, 3).",
    "p(X) :- q(X), not r(X). q(1). q(2). r(2).",
    "big(X) :- n(X), X > 1. n(1). n(2). n(3).",
]

BROKEN_PROGRAMS = [
    "win(X) :- move(X, Y), not win(Y). win(X) :- move(X, X), not win(X). "
    "move(1, 2).",
    "p(X, Y) :- q(X). q(1).",
    "p(X) :- q(X), not r(Y). q(1). r(2).",
]


@pytest.mark.parametrize("source", CLEAN_PROGRAMS)
def test_accepted_programs_run_under_every_strategy(source):
    program = parse_program(source)
    assert analyze_program(program).ok
    models = []
    for plan in PLANS:
        db = evaluate(program, **plan)
        models.append({(p, row) for p in db.predicates() for row in db.rows(p)})
    for model, plan in zip(models[1:], PLANS[1:]):
        assert model == models[0], plan


@pytest.mark.parametrize("source", BROKEN_PROGRAMS)
def test_rejected_programs_fail_in_the_engine_too(source):
    program = parse_program(source)
    report = analyze_program(program)
    assert not report.ok
    for plan in PLANS:
        with pytest.raises(DatalogError):
            evaluate(program, **plan)


def test_analyze_kwarg_reports_every_finding():
    program = parse_program("p(X, Y) :- q(X). r(A, B) :- q(A). q(1).")
    with pytest.raises(DatalogError) as exc:
        evaluate(program, analyze=True)
    text = str(exc.value)
    # Both unsafe rules appear, unlike the fail-fast default path.
    assert text.count("ML002") == 2


@pytest.mark.parametrize("seed", range(5))
def test_random_programs_agree_with_their_diagnosis(seed):
    program = parse_program(random_datalog_program(12, shape="random", seed=seed))
    report = analyze_program(program)
    if report.ok:
        for plan in PLANS:
            evaluate(program, **plan)
    else:
        with pytest.raises(ReproError):
            evaluate(program)


@pytest.mark.parametrize("seed", range(4))
def test_random_databases_analyze_clean_and_answer(seed):
    db = random_multilog_database(10, belief_rules=2, plain_facts=3, seed=seed)
    report = analyze_database(db)
    assert report.ok, report.render_text()
    # The analyzer accepted it: a session must evaluate it without error.
    session = MultiLogSession(db)
    session.cells()


def test_random_database_lint_gate_constructs(seed=0):
    db = random_multilog_database(8, seed=seed)
    MultiLogSession(db, lint=True)  # must not raise
