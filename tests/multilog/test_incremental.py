"""Incremental snapshots equal from-scratch builds.

A new database version's snapshot is built from its predecessor's:
admissibility checks only the asserted clause, tau extends the
predecessor's translation, and the least model is the predecessor's
copied model plus insert-only maintenance.  Each of these must be
invisible: after every assert, on both backends (dict/compiled and
columnar/vectorized), the session's least model equals the ``naive``
oracle's model of the same program, predicate by predicate, and the
snapshot's translation, model and audit trail equal those of a build
from scratch.  Each fallback to a full build is exercised and named on
the ``tau-translate`` and ``evaluate`` spans.
"""

import gc
import random
import weakref

import pytest

from repro.datalog import ColumnarDatabase, evaluate
from repro.multilog import MultiLogSession, translate
from repro.multilog.ast import MultiLogDatabase
from repro.obs.audit import AuditLog
from repro.workloads.generator import random_multilog_database

BACKENDS = ("dict", "columnar")
LEVELS = ("u", "c", "s", "t")
MODES = ("fir", "opt", "cau")

ACCOUNTS = """
level(u). level(s). order(u, s).
s[acct(alice : balance -s-> 900)].
u[acct(bob : balance -u-> 55)].
"""
QUERY = "s[acct(K : balance -C-> B)] << cau"


def scratch(db: MultiLogDatabase) -> MultiLogDatabase:
    """The same clauses in a database no memo has seen."""
    return MultiLogDatabase(list(db.lattice_clauses), list(db.secured_clauses),
                            list(db.plain_clauses))


def rows_by_predicate(model) -> dict:
    return {predicate: set(model.rows(predicate))
            for predicate in model.predicates()}


def trail(reduced) -> bytes:
    log = AuditLog()
    reduced.audit_model(log)
    return log.to_jsonl().encode()


def assert_equals_scratch(session: MultiLogSession) -> None:
    """The session's snapshot against the oracle and a scratch build."""
    reduced = session.reduced
    model = reduced.model()
    oracle = evaluate(reduced.program, naive=True)
    assert rows_by_predicate(model) == rows_by_predicate(oracle)
    fresh = translate(scratch(session.database), session.clearance,
                      backend=session.backend)
    assert sorted(map(repr, reduced.program.rules)) == \
        sorted(map(repr, fresh.program.rules))
    assert sorted(map(repr, reduced.program.facts)) == \
        sorted(map(repr, fresh.program.facts))
    assert rows_by_predicate(model) == rows_by_predicate(fresh.model())
    assert trail(reduced) == trail(fresh)


def built(session: MultiLogSession, span_name: str) -> dict:
    """Attributes of the named span of the session's last ask."""
    spans = session.last_trace().find(span_name)
    assert len(spans) == 1, [span.attrs for span in spans]
    return spans[0].attrs


def random_fact(rng: random.Random, index: int) -> str:
    """A new cell; a cell classified at its own level often outranks the
    cells an existing key's attribute already had, which takes cautious
    beliefs away (the insert-only model must then start over)."""
    level = rng.choice(LEVELS)
    cls = level if rng.random() < 0.5 else rng.choice(LEVELS[:LEVELS.index(level) + 1])
    key = f"key{rng.randrange(4)}" if rng.random() < 0.6 else f"new{index}"
    attr = rng.choice(("a1", "a2"))
    return f"{level}[p({key} : {attr} -{cls}-> w{rng.randrange(50)})]."


def random_ask(rng: random.Random) -> str:
    return (f"{rng.choice(LEVELS)}[p(K : {rng.choice(('a1', 'a2'))} -C-> V)]"
            f" << {rng.choice(MODES)}")


def canon(answers):
    return sorted(tuple(sorted(answer.items())) for answer in answers)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("belief_rules", [0, 2])
@pytest.mark.parametrize("seed", range(3))
def test_seeded_asserts_equal_scratch_builds(backend, belief_rules, seed):
    """Seeded assert/ask runs; belief rules make the database
    level-specialized."""
    rng = random.Random(f"incremental/{seed}/{belief_rules}")
    db = random_multilog_database(6, belief_rules=belief_rules, seed=seed)
    session = MultiLogSession(db, clearance="t", backend=backend)
    assert session.reduced.specialized == bool(belief_rules)
    session.ask(random_ask(rng), engine="reduction")
    incremental = 0
    for index in range(8):
        session.assert_clause(random_fact(rng, index))
        query = random_ask(rng)
        answers = session.ask(query, engine="reduction")
        incremental += built(session, "evaluate")["incremental"]
        assert built(session, "tau-translate")["incremental"]
        assert_equals_scratch(session)
        fresh = MultiLogSession(scratch(session.database), clearance="t",
                                backend=backend)
        assert canon(answers) == canon(fresh.ask(query, engine="reduction"))
    # Most new cells outrank nothing, so most versions extend the model.
    assert incremental >= 3


@pytest.mark.parametrize("backend", BACKENDS)
class TestFallbacks:
    """One assert per reason a snapshot is not extended; each still
    equals a build from scratch."""

    def ask_after(self, backend: str, clause: str) -> MultiLogSession:
        session = MultiLogSession(ACCOUNTS, clearance="s", backend=backend)
        session.ask(QUERY, engine="reduction")
        session.assert_clause(clause)
        session.ask(QUERY, engine="reduction")
        assert_equals_scratch(session)
        return session

    def test_fact_extends_translation_and_model(self, backend):
        session = self.ask_after(backend, "s[acct(carol : balance -s-> 7)].")
        assert built(session, "tau-translate")["incremental"] is True
        assert "reason" not in built(session, "tau-translate")
        assert built(session, "evaluate")["incremental"] is True
        assert "reason" not in built(session, "evaluate")

    def test_lattice(self, backend):
        session = self.ask_after(backend, "level(x).")
        assert built(session, "tau-translate")["incremental"] is False
        assert built(session, "tau-translate")["reason"] == "lattice"
        assert built(session, "evaluate")["reason"] == "lattice"

    def test_specialization(self, backend):
        session = self.ask_after(
            backend, "s[acct(K : seen -s-> V)] :- u[acct(K : balance -C-> V)] << fir.")
        assert session.reduced.specialized
        assert built(session, "tau-translate")["reason"] == "specialization"
        assert built(session, "evaluate")["reason"] == "specialization"

    def test_user_mode(self, backend):
        session = self.ask_after(
            backend, "bel(P, K, A, V, C, H, doubled) :- bel(P, K, A, V, C, H, fir).")
        assert built(session, "tau-translate")["reason"] == "user-mode"
        assert built(session, "evaluate")["reason"] == "user-mode"
        assert session.reduced.bel_rows("doubled", "u") == \
            {("acct", "bob", "balance", 55, "u")}

    def test_rule(self, backend):
        session = self.ask_after(
            backend, "s[acct(K : limit -s-> V)] :- u[acct(K : balance -u-> V)].")
        assert built(session, "tau-translate")["incremental"] is True
        assert built(session, "evaluate")["incremental"] is False
        assert built(session, "evaluate")["reason"] == "rule"

    def test_negation(self, backend):
        # A u cell for alice's balance is outranked by the s cell at s:
        # ``outranked`` gains a row, and cautious belief negates it.
        session = self.ask_after(backend, "u[acct(alice : balance -u-> 100)].")
        assert built(session, "tau-translate")["incremental"] is True
        assert built(session, "evaluate")["incremental"] is False
        assert built(session, "evaluate")["reason"] == "negation:outranked"
        assert ("acct", "alice", "balance", "u", "s") in \
            session.reduced.model().rows("outranked")

    def test_negation_on_a_specialized_program(self, backend):
        session = MultiLogSession(ACCOUNTS + """
            s[acct(K : seen -s-> V)] :- u[acct(K : balance -C-> V)] << fir.
        """, clearance="s", backend=backend)
        session.ask(QUERY, engine="reduction")
        session.assert_clause("u[acct(alice : balance -u-> 100)].")
        session.ask(QUERY, engine="reduction")
        assert_equals_scratch(session)
        assert built(session, "evaluate")["reason"] == "negation:outranked@s"


@pytest.mark.parametrize("backend", BACKENDS)
def test_predecessor_snapshot_is_collectable(backend):
    """Once the sessions have moved on, nothing holds the predecessor
    snapshot or its model: the new model is a copy, and the reference
    to the predecessor's model is dropped when it is built."""
    writer = MultiLogSession(ACCOUNTS, clearance="s", backend=backend)
    reader = writer.with_clearance("s")
    writer.ask(QUERY, engine="reduction")
    reader.ask(QUERY, engine="reduction")
    old = weakref.ref(writer.reduced)
    old_model = weakref.ref(writer.reduced.model())
    writer.assert_clause("s[acct(carol : balance -s-> 7)].")
    writer.ask(QUERY, engine="reduction")
    assert built(writer, "evaluate")["incremental"] is True
    reader.ask(QUERY, engine="reduction")
    assert reader.reduced is writer.reduced
    gc.collect()
    assert old() is None
    assert old_model() is None


def test_published_model_is_copied_not_edited():
    session = MultiLogSession(ACCOUNTS, clearance="s", backend="columnar")
    session.ask(QUERY, engine="reduction")
    before = session.reduced.model()
    snapshot = rows_by_predicate(before)
    session.assert_clause("s[acct(carol : balance -s-> 7)].")
    session.ask(QUERY, engine="reduction")
    after = session.reduced.model()
    assert after is not before
    assert isinstance(after, ColumnarDatabase)
    assert rows_by_predicate(before) == snapshot
    assert len(after) > len(before)
