"""Unit tests for the bottom-up engine (naive and semi-naive)."""

import pytest

from repro.datalog import (
    Program,
    Rule,
    answer_rows,
    atom,
    evaluate,
    neg,
    parse_atom,
    parse_program,
    pos,
    query,
    reorder_body,
)
from repro.errors import DatalogError


TRANSITIVE = """
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
"""


class TestBasics:
    def test_facts_only(self):
        db = evaluate(parse_program("p(a). p(b)."))
        assert db.rows("p") == {("a",), ("b",)}

    def test_single_join(self):
        db = evaluate(parse_program("q(a, b). r(b, c). s(X, Z) :- q(X, Y), r(Y, Z)."))
        assert db.rows("s") == {("a", "c")}

    def test_transitive_closure(self):
        db = evaluate(parse_program(TRANSITIVE))
        assert db.rows("path") == {
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        }

    def test_left_recursion_terminates(self):
        text = TRANSITIVE.replace("path(X, Z), edge(Z, Y)", "edge(X, Z), path(Z, Y)")
        assert len(evaluate(parse_program(text)).rows("path")) == 6

    def test_naive_equals_seminaive(self):
        prog = parse_program(TRANSITIVE)
        expected = evaluate(prog, naive=True).rows("path")
        for backend in ("dict", "columnar"):
            assert evaluate(prog, backend=backend).rows("path") == expected

    def test_positional_strategy_is_rejected(self):
        # The options are keyword-only: a stale strategy name must not be
        # read as a truthy ``naive``.
        with pytest.raises(TypeError):
            evaluate(parse_program("p(a)."), "compiled")

    def test_cycle_in_data(self):
        db = evaluate(parse_program("""
            edge(a, b). edge(b, a).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- path(X, Z), edge(Z, Y).
        """))
        assert db.rows("path") == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_mutual_recursion(self):
        db = evaluate(parse_program("""
            base(1). base(2). base(3). base(4).
            even(1) :- base(1).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
            succ(1, 2). succ(2, 3). succ(3, 4).
        """))
        assert db.rows("even") == {(1,), (3,)}
        assert db.rows("odd") == {(2,), (4,)}


class TestNegation:
    def test_stratified_negation(self):
        db = evaluate(parse_program("""
            node(a). node(b). node(c).
            edge(a, b).
            linked(X) :- edge(X, Y).
            linked(Y) :- edge(X, Y).
            isolated(X) :- node(X), not linked(X).
        """))
        assert db.rows("isolated") == {("c",)}

    def test_negation_before_binder_is_reordered(self):
        # 'not q(X)' written before p(X): reordering makes it evaluable.
        prog = Program([
            Rule(atom("r", "X"), (neg("q", "X"), pos("p", "X"))),
        ], [atom("p", "a"), atom("p", "b"), atom("q", "a")])
        assert evaluate(prog).rows("r") == {("b",)}

    def test_double_negation_strata(self):
        db = evaluate(parse_program("""
            base(a). base(b).
            mark(a).
            unmarked(X) :- base(X), not mark(X).
            remarked(X) :- base(X), not unmarked(X).
        """))
        assert db.rows("remarked") == {("a",)}


class TestBuiltins:
    def test_comparison_filter(self):
        db = evaluate(parse_program("n(1). n(2). n(3). small(X) :- n(X), X < 3."))
        assert db.rows("small") == {(1,), (2,)}

    def test_equality_join(self):
        db = evaluate(parse_program("a(1). b(1). both(X) :- a(X), b(Y), X = Y."))
        assert db.rows("both") == {(1,)}

    def test_inequality(self):
        db = evaluate(parse_program(
            "p(a). p(b). distinct(X, Y) :- p(X), p(Y), X != Y."))
        assert db.rows("distinct") == {("a", "b"), ("b", "a")}

    def test_incomparable_types_raise(self):
        with pytest.raises(DatalogError):
            evaluate(parse_program("n(1). n(a). bad(X) :- n(X), X < 2."))


class TestReorderBody:
    def test_positive_order_preserved(self):
        body = (pos("a", "X"), pos("b", "X"))
        assert reorder_body(body) == body

    def test_negative_deferred_until_bound(self):
        body = (neg("n", "X"), pos("p", "X"))
        reordered = reorder_body(body)
        assert reordered[0].predicate == "p"
        assert reordered[1].predicate == "n"

    def test_ground_negative_can_go_first(self):
        body = (neg("n", "a"), pos("p", "X"))
        assert reorder_body(body)[0].predicate == "n"

    def test_builtin_deferred(self):
        body = (pos("<", "X", "Y"), pos("p", "X"), pos("q", "Y"))
        reordered = reorder_body(body)
        assert reordered[-1].predicate == "<"


class TestQueryHelpers:
    def test_query_returns_substitutions(self):
        answers = query(parse_program(TRANSITIVE), parse_atom("path(a, X)"))
        values = {next(iter(s.values())).value for s in answers}
        assert values == {"b", "c", "d"}

    def test_answer_rows(self):
        db = evaluate(parse_program(TRANSITIVE))
        assert answer_rows(db, parse_atom("path(X, d)")) == {
            ("a", "d"), ("b", "d"), ("c", "d")}

    def test_ground_query(self):
        db = evaluate(parse_program(TRANSITIVE))
        assert answer_rows(db, parse_atom("path(a, d)")) == {("a", "d")}
        assert answer_rows(db, parse_atom("path(d, a)")) == set()


class TestDatabase:
    def test_index_consistency_after_adds(self):
        from repro.datalog import Database
        db = Database()
        db.add("p", ("a", 1))
        # Build the index, then add more rows: index must stay in sync.
        assert list(db.candidates(atom("p", "a", "X"), {})) == [("a", 1)]
        db.add("p", ("a", 2))
        assert len(list(db.candidates(atom("p", "a", "X"), {}))) == 2

    def test_candidates_without_bindings_scan_all(self):
        from repro.datalog import Database
        db = Database()
        db.add("p", ("a",))
        db.add("p", ("b",))
        assert len(list(db.candidates(atom("p", "X"), {}))) == 2

    def test_merge_and_copy(self):
        from repro.datalog import Database
        a = Database()
        a.add("p", ("x",))
        b = a.copy()
        b.add("p", ("y",))
        assert len(a) == 1
        a.merge(b)
        assert len(a) == 2


class TestReorderBodyErrors:
    """``reorder_body`` rejects non-range-restricted leftovers eagerly.

    The old behaviour appended unsafe negated/built-in literals to the
    end of the body, deferring the failure to a cryptic "not ground at
    evaluation time" error deep inside the match loop.
    """

    def test_unbound_negated_literal_raises_at_reorder_time(self):
        body = (pos("p", "X"), neg("q", "Y"))
        with pytest.raises(DatalogError, match="range-restricted"):
            reorder_body(body)

    def test_error_names_the_offending_literal_and_variables(self):
        body = (pos("p", "X"), neg("q", "X", "Y"))
        with pytest.raises(DatalogError, match=r"\['Y'\].*negated"):
            reorder_body(body)

    def test_error_names_the_rule_when_given(self):
        rule = Rule(atom("h", "X"), (pos("p", "X"), neg("q", "Z")))
        with pytest.raises(DatalogError, match="h\\(X\\)"):
            reorder_body(rule.body, rule)

    def test_unbound_builtin_raises(self):
        body = (pos("p", "X"), pos("<", "X", "Y"))
        with pytest.raises(DatalogError, match="built-in"):
            reorder_body(body)

    def test_safe_bodies_still_reorder(self):
        body = (neg("q", "X"), pos("p", "X"))
        ordered = reorder_body(body)
        assert [l.positive for l in ordered] == [True, False]
