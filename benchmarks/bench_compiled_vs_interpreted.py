"""Ablation: the native semi-naive plans vs the naive interpreter.

``naive`` is the textbook baseline and the differential oracle
(generator recursion, substitution dicts, every rule refired every
round); the native plan is what the storage backend picks
(:func:`repro.datalog.engine.native_plan`): ``compiled`` codegen'd
nested loops with composite-index probes and delta-specialized refiring
on ``dict``, ``vectorized`` batch pipelines on ``columnar``.
"""

import pytest

from repro.datalog import evaluate, parse_program
from repro.workloads.generator import random_datalog_program

SIZES = [20, 60, 120]
#: (label, evaluate keyword arguments) of every evaluation measured.
PLANS = [
    ("naive", {"naive": True}),
    ("compiled", {"backend": "dict"}),
    ("vectorized", {"backend": "columnar"}),
]


@pytest.mark.parametrize("n_nodes", SIZES)
@pytest.mark.parametrize("plan", PLANS, ids=[label for label, _ in PLANS])
def test_chain_closure(benchmark, plan, n_nodes):
    program = parse_program(random_datalog_program(n_nodes, "chain"))
    db = benchmark(lambda: evaluate(program, **plan[1]))
    assert len(db.rows("path")) == n_nodes * (n_nodes - 1) // 2


@pytest.mark.parametrize("n_nodes", SIZES)
@pytest.mark.parametrize("plan", PLANS, ids=[label for label, _ in PLANS])
def test_random_graph_closure(benchmark, plan, n_nodes):
    program = parse_program(random_datalog_program(n_nodes, "random", seed=3))
    db = benchmark(lambda: evaluate(program, **plan[1]))
    assert db.rows("path")


@pytest.mark.parametrize("plan", PLANS, ids=[label for label, _ in PLANS])
def test_negation_workload(benchmark, plan):
    """Stratified negation keeps the delta machinery honest on every plan."""
    n = 80
    text = random_datalog_program(n, "random", seed=9) + (
        "\nnode(X) :- edge(X, Y)."
        "\nnode(Y) :- edge(X, Y)."
        "\nunreachable(X, Y) :- node(X), node(Y), not path(X, Y)."
    )
    program = parse_program(text)
    db = benchmark(lambda: evaluate(program, **plan[1]))
    assert db.rows("unreachable")
