"""Least-model reuse: repeated asks never re-run the Datalog fixpoint,
and any mutation invalidates every cached layer."""

from repro.multilog import MultiLogSession, translate
from repro.multilog.parser import parse_database

SOURCE = """
level(u). level(s). order(u, s).
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
u[acct(bob : balance -u-> 55)].
"""

QUERY = "s[acct(alice : balance -C-> B)] << cau"


class TestLeastModelReuse:
    def test_repeated_ask_runs_fixpoint_once(self):
        session = MultiLogSession(SOURCE, clearance="s")
        first = session.ask(QUERY, engine="reduction")
        assert session.reduced.fixpoint_runs == 1
        for _ in range(3):
            assert session.ask(QUERY, engine="reduction") == first
        assert session.reduced.fixpoint_runs == 1

    def test_different_queries_share_the_model(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY, engine="reduction")
        session.ask("u[acct(bob : balance -C-> B)] << fir", engine="reduction")
        assert session.reduced.fixpoint_runs == 1

    def test_mutation_invalidates_model(self):
        session = MultiLogSession(SOURCE, clearance="s")
        before = session.ask(QUERY, engine="reduction")
        reduced_before = session.reduced
        assert reduced_before.fixpoint_runs == 1
        session.assert_clause("s[acct(carol : balance -s-> 7)].")
        after = session.ask(QUERY, engine="reduction")
        assert after == before  # unrelated fact: same answers
        reduced_after = session.reduced
        assert reduced_after is not reduced_before
        assert reduced_after.fixpoint_runs == 1  # re-ran exactly once
        assert session.ask(
            "s[acct(carol : balance -C-> B)] << fir", engine="reduction"
        ) == [{"B": 7, "C": "s"}]

    def test_sessions_share_translation_per_clearance(self):
        db = parse_database(SOURCE)
        a = MultiLogSession(db, clearance="s")
        b = MultiLogSession(db, clearance="s")
        a.ask(QUERY, engine="reduction")
        b.ask(QUERY, engine="reduction")
        # Same database version + clearance: one ReducedProgram, one model.
        assert a.reduced is b.reduced
        assert a.reduced.fixpoint_runs == 1

    def test_concurrent_siblings_build_each_snapshot_once(self, monkeypatch):
        """Two siblings asking together: one builds the least model and
        the operational fixpoint, the other waits for it (a
        ``snapshot-wait`` span on its trace) and counts no firings."""
        import threading

        import repro.multilog.reduction as reduction

        db = parse_database(SOURCE)
        builder = MultiLogSession(db, clearance="s")
        waiter = builder.with_clearance("s")
        building, release = threading.Event(), threading.Event()
        real = reduction.evaluate

        def held_evaluate(*args, **kwargs):
            building.set()
            assert release.wait(10)
            return real(*args, **kwargs)

        monkeypatch.setattr(reduction, "evaluate", held_evaluate)
        results = {}
        thread = threading.Thread(target=lambda: results.setdefault(
            "builder", builder.ask(QUERY, engine="reduction")))
        thread.start()
        assert building.wait(10)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        answers = waiter.ask(QUERY, engine="reduction")
        thread.join(10)
        timer.join(10)
        assert not thread.is_alive()
        assert answers == results["builder"] == [{"B": 900, "C": "s"}]
        assert builder.reduced is waiter.reduced
        assert builder.reduced.fixpoint_runs == 1
        names = [span["name"] for span in waiter.last_trace().to_dicts()[0]["children"]]
        assert "snapshot-wait" in names
        assert "evaluate" not in names
        program_rules = {repr(rule) for rule in builder.reduced.program.rules}
        assert not program_rules & set(waiter.last_stats().rule_firings)
        assert program_rules & set(builder.last_stats().rule_firings)

        # The operational engine is shared and its fixpoint runs once too.
        assert builder.engine is waiter.engine
        builder.ask(QUERY)
        assert builder.engine._computed
        fired_before = dict(waiter.last_stats().rule_firings)
        waiter.ask(QUERY)
        assert {label: n for label, n in waiter.last_stats().rule_firings.items()
                if fired_before.get(label) != n} == {}

    def test_shared_engine_still_enforces_the_deadline(self):
        """A sibling that finds the fixpoint already built still answers
        ``timeout`` when its own deadline has passed."""
        import pytest

        from repro.errors import BudgetExceededError
        from repro.obs import EvaluationBudget

        first = MultiLogSession(parse_database(SOURCE), clearance="s")
        first.ask(QUERY)  # builds the shared operational engine
        late = first.with_clearance("s")
        late.budget = EvaluationBudget(timeout_s=1e-9)
        assert late.engine is first.engine
        for engine in ("operational", "reduction"):
            with pytest.raises(BudgetExceededError) as info:
                late.ask(QUERY, engine=engine)
            assert info.value.reason == "timeout"

    def test_dropped_sessions_free_their_database(self):
        """Shared snapshots are keyed weakly on the database: the engine
        refers back to its database, so the memo must not hold it
        strongly or no database would ever be freed."""
        import gc
        import weakref

        session = MultiLogSession(SOURCE, clearance="s")
        sibling = session.with_clearance("s")
        for engine in ("operational", "reduction"):
            session.ask(QUERY, engine=engine)
            sibling.ask(QUERY, engine=engine)
        assert session.engine is sibling.engine
        database = weakref.ref(session.database)
        del session, sibling
        gc.collect()
        assert database() is None

    def test_translate_memo_invalidated_by_version(self):
        db = parse_database(SOURCE)
        first = translate(db, "s")
        assert translate(db, "s") is first
        db.add(parse_database("u[acct(dan : balance -u-> 1)].").secured_clauses[0])
        assert translate(db, "s") is not first

    def test_reduction_still_matches_operational(self):
        session = MultiLogSession(SOURCE, clearance="s")
        for query in (QUERY, "u[acct(bob : balance -C-> B)] << opt"):
            operational = session.ask(query, engine="operational")
            reduction = session.ask(query, engine="reduction")
            assert sorted(operational, key=repr) == sorted(reduction, key=repr)


class TestSiblingSessionCoherence:
    """Regression: asserting through one session must invalidate siblings.

    ``with_clearance`` shares ``self.database``, but ``assert_clause``
    only nulled the *asserting* session's cached engines -- a sibling
    that had already materialized its fixpoint kept serving stale
    answers.  Caches are now keyed on ``database.version``.
    """

    def test_sibling_sees_assert_made_after_it_cached(self):
        high = MultiLogSession(SOURCE, clearance="s")
        low = high.with_clearance("u")
        # Both siblings materialize their engines before the mutation.
        assert high.ask("s[acct(carol : balance -C-> B)] << fir") == []
        assert low.ask("u[acct(carol : balance -C-> B)] << fir") == []
        low.assert_clause("u[acct(carol : balance -u-> 42)].")
        # The *other* session must see the new clause in both semantics.
        assert high.ask("u[acct(carol : balance -C-> B)] << fir") == \
            [{"B": 42, "C": "u"}]
        assert high.ask("u[acct(carol : balance -C-> B)] << fir",
                        engine="reduction") == [{"B": 42, "C": "u"}]

    def test_two_clearances_with_assert_in_between(self):
        base = MultiLogSession(SOURCE, clearance="s")
        low = base.with_clearance("u")
        mid = base.with_clearance("s")
        assert low.ask("u[acct(dora : balance -C-> B)] << fir") == []
        assert mid.ask("s[acct(dora : balance -C-> B)] << opt") == []
        base.assert_clause("u[acct(dora : balance -u-> 5)].")
        assert low.ask("u[acct(dora : balance -C-> B)] << fir") == \
            [{"B": 5, "C": "u"}]
        assert mid.ask("u[acct(dora : balance -C-> B)] << opt") == \
            [{"B": 5, "C": "u"}]

    def test_unchanged_database_keeps_caches(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY, engine="reduction")
        reduced = session.reduced
        engine = session.engine
        session.ask(QUERY, engine="operational")
        assert session.reduced is reduced
        assert session.engine is engine
