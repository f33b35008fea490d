"""Property tests: bottom-up (naive and native semi-naive), top-down and
magic-set evaluation agree on random programs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    TopDownEngine,
    answer_rows,
    evaluate,
    magic_query,
    parse_atom,
    parse_program,
)
from repro.workloads.generator import random_datalog_program


programs = st.builds(
    random_datalog_program,
    n_nodes=st.integers(min_value=2, max_value=14),
    shape=st.sampled_from(["chain", "tree", "random"]),
    seed=st.integers(min_value=0, max_value=5_000),
)


@given(programs)
@settings(max_examples=40, deadline=None)
def test_naive_equals_seminaive(text):
    prog = parse_program(text)
    expected = evaluate(prog, naive=True).rows("path")
    for backend in ("dict", "columnar"):
        assert evaluate(prog, backend=backend).rows("path") == expected


@given(programs)
@settings(max_examples=40, deadline=None)
def test_topdown_equals_bottomup(text):
    prog = parse_program(text)
    goal = parse_atom("path(X, Y)")
    assert TopDownEngine(prog).answer_rows(goal) == \
        answer_rows(evaluate(prog), goal)


@given(programs, st.integers(min_value=0, max_value=13))
@settings(max_examples=40, deadline=None)
def test_magic_equals_bottomup_on_bound_goal(text, start):
    prog = parse_program(text)
    goal = parse_atom(f"path(n{start}, X)")
    assert magic_query(parse_program(text), goal) == \
        answer_rows(evaluate(prog), goal)


@given(programs)
@settings(max_examples=30, deadline=None)
def test_fixpoint_is_idempotent(text):
    """Evaluating twice derives nothing new (the model is a fixpoint)."""
    prog = parse_program(text)
    db = evaluate(prog)
    for fact in list(db.as_atoms()):
        prog.add_fact(fact)
    assert evaluate(prog).rows("path") == db.rows("path")


@given(programs)
@settings(max_examples=30, deadline=None)
def test_model_is_supported(text):
    """Every derived path fact has a one-step derivation in the model."""
    prog = parse_program(text)
    db = evaluate(prog)
    edges = db.rows("edge")
    paths = db.rows("path")
    for x, y in paths:
        direct = (x, y) in edges
        composed = any((x, z) in paths and (z, y) in edges for z in
                       {row[1] for row in paths if row[0] == x})
        assert direct or composed
