"""Sibling sessions must never read state that was not committed.

Sessions at one clearance share one reduced program and so one least
model.  The resilience layer used to serve its salvage (and its lower
rung fallback) by swapping that shared model in place, so a sibling
asking at the same moment could read the partial model and report its
answers as complete.

An assert used to add its clause to the shared database before the
journal took it, and to take it back when the append failed, so a
sibling asking in between could serve the rejected clause.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import JournalError
from repro.multilog import MultiLogSession
from repro.obs import EvaluationBudget
from repro.resilience import PartialResult, ResilientExecutor

EDGES = " ".join(f"edge(n{i}, n{i + 1})." for i in range(12))

#: a recursive closure: a model cut off after a round or two answers
#: nothing, the least model answers twelve rows.
MLOG = f"""
level(u). level(s). order(u, s).
{EDGES}
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
s[node(K : hops -s-> Y)] :- reach(K, Y).
"""

QUERY = "s[node(n0 : hops -C-> Y)] << cau"

#: wall-clock bound of the stress loop (the test stays well under 10 s).
SECONDS = 2.0
READS_PER_ROUND = 4


def canon(answers: list[dict]) -> list[str]:
    """Answers as a sorted list: row sets iterate in no fixed order."""
    return sorted(repr(sorted(answer.items())) for answer in answers)


def test_salvage_never_leaks_into_a_sibling():
    root = MultiLogSession(MLOG, clearance="s")
    serial = canon(MultiLogSession(MLOG, clearance="s").ask(QUERY, engine="reduction"))
    assert len(serial) == 12
    salvager = root.with_clearance("s")
    salvager.budget = EvaluationBudget(max_rounds=1)
    reader = root.with_clearance("s")
    executor = ResilientExecutor(allow_partial=True)
    start, end = threading.Barrier(3, timeout=10), threading.Barrier(3, timeout=10)
    stop = threading.Event()
    reading = threading.Event()
    salvaged: list[bool] = []
    wrong: list[list] = []
    errors: list[BaseException] = []

    def salvage_loop() -> None:
        try:
            while True:
                start.wait()
                if stop.is_set():
                    return
                while True:
                    result = executor.ask(salvager, QUERY, engine="reduction")
                    salvaged.append(isinstance(result, PartialResult))
                    if not reading.is_set():
                        break
                end.wait()
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)
            start.abort()
            end.abort()

    def read_loop() -> None:
        try:
            while True:
                start.wait()
                if stop.is_set():
                    return
                for _ in range(READS_PER_ROUND):
                    answers = reader.ask(QUERY, engine="reduction")
                    if canon(answers) != serial:
                        wrong.append(answers)
                reading.clear()
                end.wait()
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)
            start.abort()
            end.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=salvage_loop),
               threading.Thread(target=read_loop)]
    try:
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + SECONDS
        fact = 0
        while time.perf_counter() < deadline and not errors:
            # A new version each round, so both sessions race a fresh build
            # of one shared snapshot.  The fact leaves QUERY's answer alone.
            fact += 1
            root.assert_clause(f"u[other(f{fact} : a -u-> {fact})].")
            assert salvager.reduced is reader.reduced
            reading.set()
            start.wait()
            end.wait()
        stop.set()
        start.wait()
    finally:
        sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert any(salvaged), "the salvage path never ran"
    assert wrong == [], f"{len(wrong)} complete answers read a partial model"


ACCOUNTS = """
level(u). level(s). order(u, s).
u[acct(alice : balance -u-> 0)].
"""

SCAN = "s[acct(K : balance -C-> B)] << cau"


def test_rejected_asserts_never_reach_a_reader(tmp_path, monkeypatch):
    """Readers on their own siblings ask while a writer alternates asserts
    the journal rejects with accepted ones: no answer holds a rejected
    key, and once the writer stops every reader answers as a serial
    session over the accepted clauses does."""
    root = MultiLogSession(ACCOUNTS, clearance="s", journal=tmp_path / "wal.mlj")
    real_append = root.journal.append_clause

    def append(text: str, version: int) -> None:
        if "rejected" in text:
            raise JournalError("injected append failure")
        real_append(text, version)

    monkeypatch.setattr(root.journal, "append_clause", append)
    readers = [(root.with_clearance("s"), engine)
               for engine in ("operational", "reduction", "reduction")]
    stop = threading.Event()
    reads = [0] * len(readers)
    leaked: list[str] = []
    errors: list[BaseException] = []

    def read_loop(index: int) -> None:
        session, engine = readers[index]
        try:
            while not stop.is_set():
                for answer in session.ask(SCAN, engine=engine):
                    if str(answer["K"]).startswith("rejected"):
                        leaked.append(answer["K"])
                reads[index] += 1
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=read_loop, args=(index,))
               for index in range(len(readers))]
    accepted: list[str] = []
    versions = [root.database.version]
    try:
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + SECONDS
        while time.perf_counter() < deadline and not errors:
            n = len(accepted) + 1
            with pytest.raises(JournalError):
                root.assert_clause(f"u[acct(rejected{n} : balance -u-> {n})].")
            versions.append(root.database.version)
            accepted.append(f"u[acct(kept{n} : balance -u-> {n})].")
            root.assert_clause(accepted[-1])
            versions.append(root.database.version)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert accepted and all(reads), (len(accepted), reads)
    assert leaked == [], f"{len(leaked)} answers held a rejected clause"
    assert versions == sorted(versions)
    assert versions[-1] == versions[0] + len(accepted)
    serial = MultiLogSession(ACCOUNTS + "\n".join(accepted), clearance="s")
    for session, engine in readers:
        assert canon(session.ask(SCAN, engine=engine)) == \
            canon(serial.ask(SCAN, engine=engine))
