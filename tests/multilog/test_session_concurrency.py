"""Regression tests for the session concurrency fixes.

Four historical bugs, one test module:

* concurrent ``ask()`` on one session used to race the shared per-ask
  state (recorder, stats, engine caches) -- sessions are now
  single-flight and a second concurrent entry raises
  :class:`SessionBusyError`;
* siblings/recovery used to re-resolve the storage backend from the
  ``MULTILOG_BACKEND`` environment variable instead of inheriting the
  resolved one, silently mixing dict and columnar engines over one
  database;
* a failure between the version check and the cache rebuild used to
  leave ``_cache_version`` bumped past caches that were never rebuilt,
  pinning a stale engine forever.  Revalidation now commits the
  version *last*;
* an assert used to add its clause to the shared database on trial and
  take it back when validation failed, restoring the old version
  number: a sibling asking in between cached the rejected clause under
  a number the next committed clause then reused.  An assert now
  validates against a candidate copy and appends only what it admits.
"""

from __future__ import annotations

import threading

import pytest

import repro.multilog.session as session_mod
from repro.errors import AdmissibilityError, SessionBusyError
from repro.multilog.session import MultiLogSession
from repro.workloads.d1 import D1_SOURCE

ASK = "s[p(K : a -C-> V)] << cau"


def hold_session(monkeypatch, session, attr: str):
    """Park a worker thread inside ``session`` at the parse step.

    Returns ``(entered, release, thread, result)``: the worker holds the
    session's single-flight lock from the moment ``entered`` fires until
    ``release`` is set.
    """
    entered = threading.Event()
    release = threading.Event()
    real = getattr(session_mod, attr)

    def slow(text):
        # Only the first caller (the worker) parks; later calls -- a
        # sibling's own flight, the worker's retry -- pass straight
        # through to the real parser.
        if not entered.is_set():
            entered.set()
            assert release.wait(10), "test never released the parser"
        return real(text)

    monkeypatch.setattr(session_mod, attr, slow)
    result: dict = {}

    def work():
        try:
            if attr == "parse_query":
                result["answers"] = session.ask(ASK)
            else:
                session.assert_clause("u[p(k5 : a -u-> 5)].")
                result["asserted"] = True
        except Exception as exc:  # pragma: no cover - surfaced via result
            result["error"] = exc

    thread = threading.Thread(target=work)
    thread.start()
    assert entered.wait(10), "worker never entered the session"
    return entered, release, thread, result


# -- single-flight sessions ---------------------------------------------

def test_concurrent_ask_raises_session_busy(monkeypatch):
    session = MultiLogSession(D1_SOURCE, clearance="s")
    _entered, release, thread, result = hold_session(
        monkeypatch, session, "parse_query")
    try:
        with pytest.raises(SessionBusyError, match="not reentrant"):
            session.ask(ASK)
    finally:
        release.set()
        thread.join(10)
    assert result.get("answers"), result
    # The session is fully usable again once the first flight lands.
    assert session.ask(ASK) == result["answers"]


def test_concurrent_assert_and_ask_raise_session_busy(monkeypatch):
    session = MultiLogSession(D1_SOURCE, clearance="s")
    _entered, release, thread, result = hold_session(
        monkeypatch, session, "parse_clause")
    try:
        with pytest.raises(SessionBusyError):
            session.ask(ASK)
        with pytest.raises(SessionBusyError):
            session.assert_clause("u[p(k6 : a -u-> 6)].")
    finally:
        release.set()
        thread.join(10)
    assert result.get("asserted"), result


def test_siblings_are_independent_flights(monkeypatch):
    """Exclusive *siblings* may run concurrently; only reentry is barred."""
    session = MultiLogSession(D1_SOURCE, clearance="s")
    sibling = session.with_clearance("c")
    _entered, release, thread, result = hold_session(
        monkeypatch, session, "parse_query")
    try:
        # The sibling has its own flight lock: no SessionBusyError.
        assert sibling.ask("c[p(K : a -C-> V)] << opt")
    finally:
        release.set()
        thread.join(10)
    assert result.get("answers"), result


@pytest.mark.parametrize("outer", ["ask", "executor"])
def test_nested_ask_on_the_same_thread_raises_session_busy(monkeypatch,
                                                           outer):
    """Calling back into a session from inside its own ask (a trace sink,
    a callback) is refused as well, also when the resilience executor
    holds the flight across its tries."""
    from repro.resilience import ResilientExecutor

    session = MultiLogSession(D1_SOURCE, clearance="s")
    real = session_mod.parse_query
    refused = []

    def reenter(text):
        if not refused:  # once: a nested ask that got in would recurse
            try:
                session.ask(ASK)
            except SessionBusyError as exc:
                refused.append(exc)
            else:
                refused.append(None)
        return real(text)

    monkeypatch.setattr(session_mod, "parse_query", reenter)
    if outer == "ask":
        answers = session.ask(ASK)
    else:
        answers = ResilientExecutor().ask(session, ASK)
    assert answers
    assert len(refused) == 1 and isinstance(refused[0], SessionBusyError)
    assert "not reentrant" in str(refused[0])


def test_failed_ask_still_publishes_its_trace():
    session = MultiLogSession(D1_SOURCE, clearance="s")
    with pytest.raises(Exception):
        session.ask("p((")  # parse error inside the flight
    assert session.last_trace() is not None
    spans = session.last_trace().to_dicts()
    assert spans, "the aborted ask's span forest must be snapshotted"


# -- explicit backend propagation ---------------------------------------

def test_sibling_inherits_resolved_backend_despite_env(monkeypatch):
    session = MultiLogSession(D1_SOURCE, clearance="s", backend="columnar")
    # The environment changes between checkouts; the resolved backend
    # must ride along explicitly, not be re-resolved per sibling.
    monkeypatch.setenv("MULTILOG_BACKEND", "dict")
    sibling = session.with_clearance("u")
    assert sibling.backend == "columnar"
    grandchild = sibling.with_clearance("c")
    assert grandchild.backend == "columnar"


def test_recover_propagates_explicit_backend(tmp_path, monkeypatch):
    journal = tmp_path / "session.mlj"
    session = MultiLogSession(D1_SOURCE, clearance="s", backend="columnar",
                              journal=journal)
    session.assert_clause("u[p(k3 : a -u-> 3)].")
    before = session.ask(ASK)

    # The crashed process ran columnar; the recovering environment says
    # dict.  An explicit backend= must win over the env re-resolution.
    monkeypatch.setenv("MULTILOG_BACKEND", "dict")
    recovered = MultiLogSession.recover(journal, clearance="s",
                                        backend="columnar")
    assert recovered.backend == "columnar"
    assert recovered.ask(ASK) == before


def test_recover_without_backend_resolves_env(tmp_path, monkeypatch):
    journal = tmp_path / "session.mlj"
    MultiLogSession(D1_SOURCE, clearance="s", journal=journal)
    monkeypatch.setenv("MULTILOG_BACKEND", "columnar")
    recovered = MultiLogSession.recover(journal, clearance="s")
    assert recovered.backend == "columnar"


# -- version-last revalidation ------------------------------------------

def test_failed_revalidation_is_retried_not_pinned(monkeypatch):
    from repro.multilog.parser import parse_clause

    reader = MultiLogSession(D1_SOURCE, clearance="s")
    baseline = reader.ask(ASK)  # build and cache the reader's engine

    # A clause added to the database directly publishes no context, so
    # the reader must rebuild -- and that rebuild is what fails here.
    reader.database.add(parse_clause("u[p(k4 : a -u-> 4)]."))

    real = session_mod.check_admissibility
    calls = {"n": 0}

    def flaky(database):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected revalidation failure")
        return real(database)

    monkeypatch.setattr(session_mod, "check_admissibility", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        reader.ask(ASK)

    # The failure must leave the session still marked stale -- caches
    # dropped, version *not* committed -- so the next ask retries the
    # rebuild instead of serving the pre-assert engine forever.
    assert reader._cache_version != reader.database.version
    assert reader._engine is None
    assert reader._reduced is None

    after = reader.ask(ASK)
    assert any(answer.get("K") == "k4" for answer in after)
    assert len(after) == len(baseline) + 1
    assert reader._cache_version == reader.database.version


def test_same_clearance_reader_reuses_the_asserted_context(monkeypatch):
    """An assert publishes its validated context (after the journal
    append), so a sibling at the same clearance revalidates without
    re-running the admissibility check."""
    reader = MultiLogSession(D1_SOURCE, clearance="s")
    writer = reader.with_clearance("s")
    reader.ask(ASK)
    writer.assert_clause("u[p(k4 : a -u-> 4)].")

    def forbidden(database):
        raise AssertionError("the published context was not reused")

    monkeypatch.setattr(session_mod, "check_admissibility", forbidden)
    assert any(answer.get("K") == "k4" for answer in reader.ask(ASK))
    assert reader.context is writer.context
    assert reader._cache_version == reader.database.version


def test_one_admissibility_check_per_version(monkeypatch):
    """The admissibility context depends on Lambda alone: one check per
    database version serves every clearance and backend, including
    siblings made after the assert and siblings at other clearances."""
    real = session_mod.check_admissibility
    calls = []

    def counted(database):
        calls.append(database.version)
        return real(database)

    monkeypatch.setattr(session_mod, "check_admissibility", counted)
    top = MultiLogSession(D1_SOURCE, clearance="s")
    assert len(calls) == 1
    low = top.with_clearance("u")
    low.ask(ASK.replace("s[", "u["))
    assert len(calls) == 1

    top.assert_clause("u[p(k4 : a -u-> 4)].")  # publishes its context
    assert any(answer.get("K") == "k4"
               for answer in low.ask(ASK.replace("s[", "u[")))
    for clearance, backend in (("c", None), ("u", "columnar")):
        sibling = MultiLogSession(top.database, clearance=clearance,
                                  backend=backend)
        sibling.ask(ASK.replace("s[", f"{clearance}["))
    assert len(calls) == 1
    assert low.context is top.context


def test_rejected_assert_publishes_no_context(tmp_path, monkeypatch):
    """A rejected assert never reaches the database, so the context
    validated for it is never published: the next mutation takes the
    version the rejected clause would have had, and a reader at that
    version must see that mutation's lattice, not the rejected one's."""
    from repro.errors import JournalError
    from repro.multilog.parser import parse_clause

    reader = MultiLogSession(D1_SOURCE, clearance="s",
                             journal=tmp_path / "d1.mlj")
    writer = reader.with_clearance("s")
    reader.ask(ASK)

    def full_disk(text, version):
        raise JournalError("disk full")

    # Admissible, so a context is validated -- with level x in it --
    # and then the journal append rejects the clause.
    monkeypatch.setattr(writer.journal, "append_clause", full_disk)
    with pytest.raises(JournalError):
        writer.assert_clause("level(x).")
    # Another mutation takes the rejected clause's version number.
    reader.database.add(parse_clause("u[p(k4 : a -u-> 4)]."))
    assert any(answer.get("K") == "k4" for answer in reader.ask(ASK))
    assert "x" not in reader.lattice.levels


# -- append only what is admitted ---------------------------------------

def keys(answers: list[dict]) -> set:
    return {answer["K"] for answer in answers}


@pytest.mark.parametrize("backend", ("dict", "columnar"))
@pytest.mark.parametrize("engine", ("operational", "reduction"))
def test_rejected_assert_is_never_served(monkeypatch, backend, engine):
    """A sibling that asks while an assert is validated, and a sibling
    made after the assert is rejected, serve committed clauses only; the
    database version never goes down."""
    reader = MultiLogSession(D1_SOURCE, clearance="s", backend=backend)
    writer = reader.with_clearance("s")
    database = reader.database
    versions = [database.version]
    during: list[set] = []
    real = session_mod.admit_clause

    def ask_then_reject(context, clause):
        real(context, clause)
        versions.append(database.version)
        during.append(keys(reader.ask(ASK, engine=engine)))
        raise AdmissibilityError("rejected after a sibling asked")

    monkeypatch.setattr(session_mod, "admit_clause", ask_then_reject)
    with pytest.raises(AdmissibilityError):
        writer.assert_clause("u[p(bob : a -u-> 1)].")
    versions.append(database.version)
    monkeypatch.setattr(session_mod, "admit_clause", real)
    writer.assert_clause("u[p(carol : a -u-> 2)].")
    versions.append(database.version)

    assert during == [{"k"}]
    assert versions == sorted(versions)
    assert versions[-1] == versions[0] + 1
    fresh = reader.with_clearance("s")
    for session in (reader, fresh):
        assert keys(session.ask(ASK, engine=engine)) == {"k", "carol"}
