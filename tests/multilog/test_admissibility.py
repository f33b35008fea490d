"""Unit tests for Definition 5.3 (admissibility)."""

import pytest

from repro.errors import AdmissibilityError
from repro.multilog import (
    check_admissibility,
    is_admissible,
    lambda_meaning,
    parse_database,
)


class TestLambdaMeaning:
    def test_basic_facts(self):
        db = parse_database("level(u). level(c). order(u, c).")
        context = lambda_meaning(db)
        assert context.lattice.leq("u", "c")
        assert ("u", "c") in context.order_rows

    def test_lambda_rules_evaluated(self):
        """Lambda clauses may have (l-/h-atom) bodies; [[Lambda]] is the
        least model, not the raw fact list."""
        db = parse_database("""
            level(u). level(c). level(s).
            order(u, c).
            order(c, s) :- order(u, c).
        """)
        context = lambda_meaning(db)
        assert context.lattice.leq("u", "s")

    def test_order_on_undeclared_level_rejected(self):
        db = parse_database("level(u). order(u, ghost).")
        with pytest.raises(AdmissibilityError, match="undeclared"):
            lambda_meaning(db)

    def test_cyclic_order_rejected(self):
        db = parse_database("level(u). level(c). order(u, c). order(c, u).")
        with pytest.raises(AdmissibilityError, match="partial order"):
            lambda_meaning(db)


class TestCondition1:
    def test_lambda_depending_on_p_atom_rejected(self):
        db = parse_database("""
            level(u).
            level(c) :- q(j).
            q(j).
        """)
        with pytest.raises(AdmissibilityError, match="non-lattice"):
            check_admissibility(db)

    def test_lambda_depending_on_m_atom_rejected(self):
        db = parse_database("""
            level(u).
            order(u, c) :- u[p(k : a -u-> v)].
            u[p(k : a -u-> v)].
        """)
        with pytest.raises(AdmissibilityError, match="non-lattice"):
            check_admissibility(db)


class TestCondition2:
    def test_undeclared_head_level_rejected(self):
        db = parse_database("level(u). s[p(k : a -u-> v)].")
        with pytest.raises(AdmissibilityError, match="not asserted"):
            check_admissibility(db)

    def test_undeclared_cell_class_rejected(self):
        db = parse_database("level(u). u[p(k : a -s-> v)].")
        with pytest.raises(AdmissibilityError, match="not asserted"):
            check_admissibility(db)

    def test_undeclared_label_in_body_rejected(self):
        db = parse_database("""
            level(u).
            u[p(k : a -u-> v)] :- s[q(k : a -u-> v)] << cau.
        """)
        with pytest.raises(AdmissibilityError):
            check_admissibility(db)

    def test_variable_levels_are_fine(self):
        db = parse_database("""
            level(u).
            u[p(k : a -u-> v)] :- L[q(K : a -C-> V)].
        """)
        assert is_admissible(db)


class TestHappyPath:
    def test_d1_admissible(self, d1):
        context = check_admissibility(d1)
        assert context.lattice.leq("u", "s")
        assert len(context.lattice) == 3

    def test_mission_admissible(self, mission_db):
        context = check_admissibility(mission_db)
        assert context.lattice.levels == {"u", "c", "s", "t"}

    def test_is_admissible_predicate(self, d1):
        assert is_admissible(d1)
        bad = parse_database("level(u). s[p(k : a -u-> v)].")
        assert not is_admissible(bad)


class TestPerClause:
    """An assert that adds no Lambda clause is checked alone against the
    lattice of the pre-add version (Definition 5.3, condition 2)."""

    def test_admit_clause_checks_the_new_labels(self, d1):
        from repro.multilog.admissibility import admit_clause
        from repro.multilog.parser import parse_clause

        context = check_admissibility(d1)
        assert admit_clause(context, parse_clause("u[p(k9 : a -u-> 9)].")) is context
        assert admit_clause(context, parse_clause("q(x).")) is context
        with pytest.raises(AdmissibilityError, match="condition 2"):
            admit_clause(context, parse_clause("x[p(k9 : a -u-> 9)]."))
        with pytest.raises(AdmissibilityError, match="Lambda"):
            admit_clause(context, parse_clause("level(x)."))

    def test_assert_without_lambda_clause_runs_no_full_check(self, monkeypatch):
        import repro.multilog.session as session_mod
        from repro.multilog import MultiLogSession

        session = MultiLogSession("level(u). level(s). order(u, s).",
                                  clearance="s")
        full_checks = []
        real = session_mod.check_admissibility
        monkeypatch.setattr(session_mod, "check_admissibility",
                            lambda db: full_checks.append(db) or real(db))
        session.assert_clause("s[p(k : a -s-> 1)].")
        assert full_checks == []
        with pytest.raises(AdmissibilityError, match="condition 2"):
            session.assert_clause("x[p(k : a -x-> 1)].")
        assert len(session.database.secured_clauses) == 1
        session.assert_clause("level(x).")
        assert len(full_checks) == 1
        session.assert_clause("x[p(k : a -x-> 1)].")
        assert len(full_checks) == 1
        assert "x" in session.lattice.levels
