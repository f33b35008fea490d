"""Checkpointing under fire: the thresholds, interrupted compaction
(fault injection at every write/fsync/rename/dirsync step, plus SIGKILL
subprocess variants), torn snapshots, and automatic checkpoints under
live serving traffic."""

from __future__ import annotations

import asyncio
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.multilog.session import MultiLogSession
from repro.resilience import FaultPlan
from repro.resilience.journal import SessionJournal, database_source
from repro.serving import MultiLogServer, ServerConfig
from repro.workloads.d1 import D1_SOURCE

SRC = str(Path(__file__).resolve().parents[2] / "src")

SOURCE = """\
level(u). level(s). order(u, s).
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""

COMPACT_POINTS = ("journal-compact-write", "journal-compact-fsync",
                  "journal-compact-rename", "journal-compact-dirsync")


def make_session(tmp_path, n_clauses: int = 5) -> MultiLogSession:
    session = MultiLogSession(SOURCE, clearance="s",
                              journal=tmp_path / "wal.jsonl")
    for i in range(n_clauses):
        session.assert_clause(f"u[acct(k{i} : balance -u-> {i})].")
    return session


# -- the thresholds ------------------------------------------------------

class TestCheckpointPolicy:
    def test_due_is_disjunctive_over_records_and_bytes(self):
        config = ServerConfig(checkpoint_records=10, checkpoint_bytes=1000)
        assert not config.checkpoint_due(9, 999)
        assert config.checkpoint_due(10, 0)
        assert config.checkpoint_due(0, 1000)

    def test_none_disables_one_threshold(self):
        by_bytes = ServerConfig(checkpoint_records=None, checkpoint_bytes=100)
        assert not by_bytes.checkpoint_due(10**9, 99)
        assert by_bytes.checkpoint_due(0, 100)

    def test_fully_disabled_policy(self):
        config = ServerConfig(checkpoint_records=None, checkpoint_bytes=None)
        assert not config.checkpoint_due(10**9, 10**9)
        assert ServerConfig().checkpoint_due(10**9, 0)


# -- interrupted compaction (in-process fault injection) ------------------

@pytest.mark.parametrize("point", COMPACT_POINTS)
def test_disk_fault_at_every_compaction_step_recovers_identically(
        tmp_path, point):
    session = make_session(tmp_path)
    expected = database_source(session.database)
    version = session.database.version
    journal = session.journal

    plan = FaultPlan()
    plan.arm(point, action="enospc", times=1)
    journal.arm_faults(plan)
    from repro.errors import JournalError
    with pytest.raises(JournalError, match="compaction failed"):
        journal.compact(session.database)
    assert plan.history == [(point, "enospc")]
    journal.disarm_faults()

    # Whatever step died, the journal on disk replays to the same
    # database at the same version -- old journal or new snapshot,
    # never a hybrid (Def 5.3 is re-checked by recover()).
    recovered = MultiLogSession.recover(tmp_path / "wal.jsonl", clearance="s")
    assert database_source(recovered.database) == expected
    assert recovered.database.version == version
    assert recovered.journal_recovery.clean

    # The journal is still writable after the failed compaction...
    recovered.assert_clause("u[acct(post : balance -u-> 1)].")
    # ...and a clean compaction then succeeds and still replays true.
    recovered.journal.compact(recovered.database)
    final = SessionJournal(tmp_path / "wal.jsonl").replay()
    assert database_source(final) == database_source(recovered.database)
    assert len((tmp_path / "wal.jsonl").read_text().splitlines()) == 2


def test_failed_compaction_does_not_desync_the_seq_counter(tmp_path):
    # The dirsync fault fires *after* os.replace: the file already holds
    # seq 1-2.  The next append must rescan, not continue a stale count.
    session = make_session(tmp_path)
    plan = FaultPlan()
    plan.arm("journal-compact-dirsync", action="enospc", times=1)
    session.journal.arm_faults(plan)
    from repro.errors import JournalError
    with pytest.raises(JournalError):
        session.journal.compact(session.database)
    session.journal.disarm_faults()
    session.assert_clause("u[acct(after : balance -u-> 2)].")
    scan = session.journal.scan()  # raises on any sequence gap
    assert [r["seq"] for r in scan.records] == list(
        range(1, len(scan.records) + 1))


# -- interrupted compaction (SIGKILL subprocess variants) -----------------

KILLER = '''
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.multilog.session import MultiLogSession

class Killer:
    def __init__(self, point):
        self.point = point
    def on_span(self, name):
        if name == self.point:
            os.kill(os.getpid(), signal.SIGKILL)

session = MultiLogSession.recover(sys.argv[1], clearance="s")
session.journal.arm_faults(Killer(sys.argv[2]))
session.journal.compact(session.database)
print("compaction survived the kill point", flush=True)
'''


@pytest.mark.parametrize("point", COMPACT_POINTS)
def test_sigkill_at_every_compaction_step_recovers_identically(
        tmp_path, point):
    session = make_session(tmp_path)
    expected = database_source(session.database)
    version = session.database.version
    session.journal.close()

    script = tmp_path / "killer.py"
    script.write_text(KILLER.format(src=SRC))
    victim = tmp_path / "victim.jsonl"
    shutil.copy(tmp_path / "wal.jsonl", victim)
    proc = subprocess.run(
        [sys.executable, str(script), str(victim), point],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    recovered = MultiLogSession.recover(victim, clearance="s")
    assert database_source(recovered.database) == expected
    assert recovered.database.version == version
    assert recovered.journal_recovery.clean


# -- torn snapshot records ------------------------------------------------

def test_torn_snapshot_record_is_quarantined_and_state_preserved(tmp_path):
    session = make_session(tmp_path, n_clauses=2)
    expected = database_source(session.database)
    session.journal.close()
    # A snapshot append that died mid-write: half a record at the tail.
    with open(tmp_path / "wal.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"type": "snapshot", "source": "level(u). lev')

    recovered = MultiLogSession.recover(tmp_path / "wal.jsonl", clearance="s")
    report = recovered.journal_recovery
    assert len(report.quarantined) == 1
    assert report.quarantine_path is not None
    assert database_source(recovered.database) == expected
    # The torn bytes were moved aside, not silently discarded.
    assert "snapshot" in Path(report.quarantine_path).read_text()


# -- automatic checkpoints under live serving traffic ---------------------

def run(coro):
    return asyncio.run(coro)


async def assert_clause(server: MultiLogServer, clause: str) -> dict:
    return await server.dispatch(
        {"op": "assert", "clause": clause, "clearance": "s"})


def test_server_checkpoints_automatically_at_the_record_threshold(tmp_path):
    async def main():
        server = MultiLogServer(D1_SOURCE, ServerConfig(
            clearance="s", journal=str(tmp_path / "wal.jsonl"),
            checkpoint_records=3, checkpoint_bytes=None))
        await server.start()
        try:
            for i in range(3):
                ok = await assert_clause(server, f"u[p(c{i} : a -u-> {i})].")
                assert ok["ok"] is True
            # The third assert made the checkpoint due and took it before
            # its response went out.
            assert server.stats.checkpoints_total == 1
            assert server.root.journal.checkpoint_stats()[0] == 0
            # Traffic keeps flowing across a checkpoint...
            ok = await assert_clause(server, "u[p(c9 : a -u-> 9)].")
            assert ok["ok"] is True
            assert server.stats.checkpoints_total == 1
            ask = await server.dispatch(
                {"op": "ask", "query": "s[p(K : a -C-> V)] << cau",
                 "clearance": "s"})
            assert ask["ok"] is True
        finally:
            await server.stop()
        return server

    server = run(main())
    # ...and the compacted journal replays to exactly the live state.
    replayed = SessionJournal(tmp_path / "wal.jsonl").replay()
    assert database_source(replayed) == database_source(server.root.database)
    assert replayed.version == server.root.database.version


def test_server_checkpoint_failure_is_counted_not_fatal(tmp_path):
    async def main():
        server = MultiLogServer(D1_SOURCE, ServerConfig(
            clearance="s", journal=str(tmp_path / "wal.jsonl"),
            checkpoint_records=None, checkpoint_bytes=None))
        await server.start()
        try:
            plan = FaultPlan()
            plan.arm("journal-compact-write", action="enospc", times=1)
            server.root.journal.arm_faults(plan)
            assert await server.checkpoint() is False
            assert server.stats.checkpoint_failures_total == 1
            server.root.journal.disarm_faults()
            assert await server.checkpoint() is True
            assert server.stats.checkpoints_total == 1
        finally:
            await server.stop()

    run(main())


def test_failed_checkpoint_at_the_threshold_still_acknowledges_the_assert(
        tmp_path):
    async def main():
        server = MultiLogServer(D1_SOURCE, ServerConfig(
            clearance="s", journal=str(tmp_path / "wal.jsonl"),
            checkpoint_records=2, checkpoint_bytes=None))
        await server.start()
        try:
            ok = await assert_clause(server, "u[p(c0 : a -u-> 0)].")
            assert ok["ok"] is True
            assert server.stats.checkpoints_total == 0
            plan = FaultPlan()
            plan.arm("journal-compact-write", action="enospc", times=1)
            server.root.journal.arm_faults(plan)
            # The assert that makes the checkpoint due was journaled
            # before its compaction failed: it is still acknowledged.
            ok = await assert_clause(server, "u[p(c1 : a -u-> 1)].")
            assert ok["ok"] is True
            assert plan.history == [("journal-compact-write", "enospc")]
            assert server.stats.checkpoint_failures_total == 1
            assert server.stats.checkpoints_total == 0
            # The checkpoint is still due, so the next assert takes it.
            ok = await assert_clause(server, "u[p(c2 : a -u-> 2)].")
            assert ok["ok"] is True
            assert server.stats.checkpoints_total == 1
            assert server.stats.checkpoint_failures_total == 1
        finally:
            await server.stop()
        return server

    server = run(main())
    replayed = SessionJournal(tmp_path / "wal.jsonl").replay()
    assert database_source(replayed) == database_source(server.root.database)
    assert replayed.version == server.root.database.version
