"""Satellite regression: a rejected assert_clause leaves no trace.

After an admissibility (Def 5.3) or strict-consistency (Def 5.4)
rejection, the database version, clause content, journal bytes, session
caches, and -- the user-visible contract -- ``ask()`` answers must all be
byte-identical to the pre-assert state.
"""

import json

import pytest

from repro.errors import AdmissibilityError, ConsistencyError
from repro.multilog import MultiLogSession
from repro.resilience import database_source

SOURCE = """
level(u). level(s). order(u, s).
u[acct(alice : name -u-> alice)].
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""

QUERY = "s[acct(alice : balance -C-> B)] << cau"

# References level x, which [[Lambda]] never asserts: Def 5.3 rejects it.
INADMISSIBLE = "x[acct(alice : balance -x-> 7)]."
# Level t exists but the molecule (mallory, u) has no key cell: under
# strict=True, Def 5.4 entity integrity rejects it.
INCONSISTENT = "u[acct(mallory : balance -u-> 1)]."


def state(session):
    return (session.database.version, database_source(session.database))


class TestAtomicRejection:
    def test_inadmissible_clause_rolls_back_completely(self):
        session = MultiLogSession(SOURCE, clearance="s")
        answers_before = session.ask(QUERY)
        before = state(session)
        with pytest.raises(AdmissibilityError):
            session.assert_clause(INADMISSIBLE)
        assert state(session) == before
        assert session.ask(QUERY) == answers_before

    def test_rejection_preserves_warm_caches(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask(QUERY)  # warm the operational engine
        session.ask(QUERY, engine="reduction")  # warm the reduced model
        engine = session.engine
        reduced = session.reduced
        with pytest.raises(AdmissibilityError):
            session.assert_clause(INADMISSIBLE)
        # Version untouched -> the warm caches are still the live ones.
        assert session.engine is engine
        assert session.reduced is reduced

    def test_strict_consistency_rejection_is_atomic(self):
        session = MultiLogSession(SOURCE, clearance="s")
        before = state(session)
        with pytest.raises(ConsistencyError):
            session.assert_clause(INCONSISTENT, strict=True)
        assert state(session) == before
        # The same clause is accepted without strict (the paper's own D1
        # fails entity integrity, so 5.4 is opt-in).
        session.assert_clause(INCONSISTENT)
        assert state(session) != before

    def test_rejected_clause_never_reaches_the_journal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        session = MultiLogSession(SOURCE, clearance="s", journal=path)
        session.assert_clause("u[acct(bob : name -u-> bob)].")
        bytes_before = path.read_bytes()
        with pytest.raises(AdmissibilityError):
            session.assert_clause(INADMISSIBLE)
        assert path.read_bytes() == bytes_before

    def test_accepted_clause_is_fsynced_before_ack(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        session = MultiLogSession(SOURCE, clearance="s", journal=path)
        with pytest.raises(AdmissibilityError):
            session.assert_clause(INADMISSIBLE)
        session.assert_clause("u[acct(bob : name -u-> bob)].")
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["type"] == "clause"
        assert last["version"] == session.database.version
        recovered = MultiLogSession.recover(path, clearance="s")
        assert recovered.database.version == session.database.version

    def test_sibling_session_caches_survive_rejection(self):
        base = MultiLogSession(SOURCE, clearance="s")
        sibling = base.with_clearance("u")
        expected = sibling.ask("u[acct(alice : balance -C-> B)] << cau")
        with pytest.raises(AdmissibilityError):
            base.assert_clause(INADMISSIBLE)
        # Shared database, shared version counter: the sibling's memoized
        # state is still valid and still correct.
        assert sibling.ask("u[acct(alice : balance -C-> B)] << cau") == expected

    def test_accepted_clause_still_works_normally(self):
        session = MultiLogSession(SOURCE, clearance="s")
        version = session.database.version
        session.assert_clause("s[acct(bob : balance -s-> 500)].")
        assert session.database.version == version + 1
        assert session.ask("s[acct(bob : balance -C-> B)] << cau") == [
            {"B": 500, "C": "s"}]
