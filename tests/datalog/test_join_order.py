"""Unit + property tests for the greedy join-order optimizer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    answer_rows,
    evaluate,
    greedy_join_order,
    parse_atom,
    parse_program,
    pos,
    neg,
)
from repro.workloads.generator import random_datalog_program


class TestGreedyOrder:
    def test_constant_bound_literal_first(self):
        body = (pos("big", "X", "Y"), pos("seed", "a", "X"))
        ordered = greedy_join_order(body)
        assert ordered[0].predicate == "seed"

    def test_binding_propagates(self):
        body = (pos("c", "Z"), pos("a", "X"), pos("b", "X", "Z"))
        ordered = greedy_join_order(body)
        # 'c' goes first (all-free tie, original order); binding Z makes
        # 'b' half-bound, so it beats the still-free 'a'.
        assert [l.predicate for l in ordered] == ["c", "b", "a"]

    def test_negatives_and_builtins_kept_at_end(self):
        body = (neg("n", "X"), pos("p", "X"), pos("<", "X", 5))
        ordered = greedy_join_order(body)
        assert ordered[0].predicate == "p"
        assert {l.predicate for l in ordered[1:]} == {"n", "<"}

    def test_zero_arity_literal(self):
        body = (pos("flag"), pos("p", "X"))
        ordered = greedy_join_order(body)
        assert len(ordered) == 2

    def test_stable_for_already_good_order(self):
        body = (pos("seed", "a", "X"), pos("big", "X", "Y"))
        assert greedy_join_order(body) == body


#: The native plans always run the greedy order; the naive oracle keeps
#: the written one.
BACKENDS = ("dict", "columnar")


class TestOptimizedEvaluation:
    BAD_ORDER = """
        person(p1). person(p2). person(p3). person(p4). person(p5).
        likes(p1, p2). likes(p2, p3).
        % body written worst-first: the cross product before the filter
        friend_of_p1(Y) :- person(X), person(Y), likes(X, Y), X = p1.
    """

    def test_same_answers(self):
        program_text = self.BAD_ORDER
        for backend in BACKENDS:
            written = evaluate(parse_program(program_text), naive=True,
                               backend=backend)
            greedy = evaluate(parse_program(program_text), backend=backend)
            assert written.rows("friend_of_p1") == greedy.rows("friend_of_p1") \
                == {("p2",)}

    def test_transitive_closure_unchanged(self):
        text = random_datalog_program(20, "chain")
        for backend in BACKENDS:
            written = evaluate(parse_program(text), naive=True, backend=backend)
            greedy = evaluate(parse_program(text), backend=backend)
            assert written.rows("path") == greedy.rows("path")


@given(
    st.builds(
        random_datalog_program,
        n_nodes=st.integers(min_value=2, max_value=12),
        shape=st.sampled_from(["chain", "tree", "random"]),
        seed=st.integers(min_value=0, max_value=2_000),
    )
)
@settings(max_examples=30, deadline=None)
def test_optimizer_preserves_semantics(text):
    goal = parse_atom("path(X, Y)")
    written = answer_rows(evaluate(parse_program(text), naive=True), goal)
    for backend in BACKENDS:
        greedy = answer_rows(evaluate(parse_program(text), backend=backend), goal)
        assert greedy == written
