"""Ablation: evaluation-strategy choices for the Datalog back-end.

CORAL performed magic rewriting and semi-naive iteration internally; this
bench reconstructs the design space on a bound transitive-closure query:

* naive vs semi-naive bottom-up (delta iteration pays off with depth):
  the naive oracle against the backend's native semi-naive plan;
* full bottom-up vs predicate-level demand (top-down) vs tuple-level
  demand (magic sets) when only one source node is asked for;
* the written join order (naive) vs the greedy most-bound-first order
  the native plans always use.
"""

import pytest

from repro.datalog import (
    TopDownEngine,
    answer_rows,
    evaluate,
    magic_query,
    parse_atom,
    parse_program,
)
from repro.workloads.generator import random_datalog_program

N_NODES = 40


@pytest.fixture(scope="module")
def chain_text():
    return random_datalog_program(N_NODES, "chain")


@pytest.fixture(scope="module")
def expected(chain_text):
    goal = parse_atom(f"path(n{N_NODES - 5}, X)")
    return answer_rows(evaluate(parse_program(chain_text)), goal)


def test_ablation_naive(benchmark, chain_text, expected):
    program = parse_program(chain_text)
    goal = parse_atom(f"path(n{N_NODES - 5}, X)")

    def run():
        return answer_rows(evaluate(program, naive=True), goal)

    assert benchmark(run) == expected


def test_ablation_native(benchmark, chain_text, expected):
    program = parse_program(chain_text)
    goal = parse_atom(f"path(n{N_NODES - 5}, X)")

    def run():
        return answer_rows(evaluate(program), goal)

    assert benchmark(run) == expected


def test_ablation_topdown(benchmark, chain_text, expected):
    goal = parse_atom(f"path(n{N_NODES - 5}, X)")

    def run():
        return TopDownEngine(parse_program(chain_text)).answer_rows(goal)

    assert benchmark(run) == expected


def test_ablation_magic(benchmark, chain_text, expected):
    goal = parse_atom(f"path(n{N_NODES - 5}, X)")

    def run():
        return magic_query(parse_program(chain_text), goal)

    assert benchmark(run) == expected


def test_magic_derives_fewer_facts(chain_text):
    """The point of demand: magic evaluation touches a fraction of the
    full closure when the goal is bound near the chain's end."""
    from repro.datalog import magic_transform
    program = parse_program(chain_text)
    goal = parse_atom(f"path(n{N_NODES - 5}, X)")
    magic = magic_transform(parse_program(chain_text), goal)
    magic_model = evaluate(magic.program)
    derived = sum(
        len(magic_model.rows(pred))
        for pred in magic_model.predicates() if pred.startswith("path__")
    )
    full = len(evaluate(program).rows("path"))
    assert derived < full / 10


def test_ablation_join_order_pessimal(benchmark):
    """A triangle rule written worst-first (three cross-producted scans
    before any join): the native plan's greedy most-bound-first ordering
    turns the cubic enumeration into index-driven joins."""
    text = _triangle_workload()

    def run():
        return evaluate(parse_program(text)).rows("triple")

    rows = benchmark(run)
    assert len(rows) == 58


def test_ablation_join_order_baseline(benchmark):
    """The same pessimal rule evaluated verbatim by the naive oracle,
    for comparison."""
    text = _triangle_workload()

    def run():
        return evaluate(parse_program(text), naive=True).rows("triple")

    rows = benchmark(run)
    assert len(rows) == 58


def _triangle_workload(n: int = 60) -> str:
    facts = "\n".join(f"person(p{i})." for i in range(n))
    facts += "\n" + "\n".join(f"likes(p{i}, p{i + 1})." for i in range(n - 1))
    return facts + """
    triple(A, B, C) :- person(A), person(B), person(C), likes(A, B), likes(B, C).
    """
