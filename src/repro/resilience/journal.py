"""Crash-safe session journaling: a write-ahead log for ``assert_clause``.

Format: JSONL, one self-contained record per line, in three kinds::

    {"type": "open", "format": "multilog-journal/2", "seq": 1, "crc": "..."}
    {"type": "snapshot", "source": "...", "version": 12, "seq": 2, "crc": "..."}
    {"type": "clause", "text": "u[acct(k : a -u-> 1)].", "version": 13, ...}

Every record carries a **sequence number** (``seq``, contiguous within
the file) and a **CRC-32 checksum** (``crc``, over the canonical JSON of
the record without the ``crc`` field), so replay distinguishes three
very different situations instead of guessing:

* a **torn tail** -- the trailing record(s) fail to decode or checksum:
  the unacknowledged residue of a crash mid-append.  Recovery moves the
  bad suffix into a sidecar **quarantine** file (``<journal>.quarantine``)
  and reports it in the :class:`RecoveryReport`; it is never silently
  dropped and never poisons the acknowledged prefix.
* **interior corruption** -- a record fails to decode or checksum but
  *intact* records follow it: acknowledged history has been damaged in
  place.  That is an integrity failure replay must not paper over, so it
  raises :class:`~repro.errors.JournalError` naming the line.
* a **sequence gap** -- two intact records whose ``seq`` numbers are not
  contiguous: an acknowledged record has vanished entirely.  Also fatal.

Durability protocol (see docs/RESILIENCE.md):

* ``assert_clause`` validates the clause *first* (Definition 5.3;
  Lambda clauses on a candidate copy of the database that also holds
  them), then appends the record and ``fsync``\\ s, and only then
  appends the clause to the shared database and acknowledges.  A
  rejected clause therefore never touches the journal, and a failed
  append never touches the database; an acknowledged clause survives a
  crash.  A *failed* append (ENOSPC, injected fsync fault) truncates
  the partial line back out so the next append does not merge with the
  residue.
* Compaction (:meth:`SessionJournal.compact`) collapses the journal to a
  single snapshot record via write-temp -> fsync -> atomic ``os.replace``
  -> parent-directory fsync: a SIGKILL at any instant leaves either the
  old journal or the new one, both replayable, never a hybrid.
* Replay restores ``database.version`` to the highest version the journal
  recorded, so version-keyed caches and snapshot-isolated readers resume
  exactly where the crashed process stopped.

Disk fault injection: :meth:`SessionJournal.arm_faults` accepts a
:class:`~repro.resilience.FaultPlan` (or anything with ``on_span``)
probed at :data:`JOURNAL_FAULT_POINTS` -- the chaos harness drives
fsync failures, ENOSPC and kill-at-step scenarios through it.

Journals written by the v1 format (``multilog-journal/1``, no checksums)
remain readable; their records are counted as ``legacy_records`` in the
recovery report and upgraded to v2 on the next compaction.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import JournalError

FORMAT = "multilog-journal/2"

#: formats :meth:`SessionJournal.replay` still accepts (checksum-less).
LEGACY_FORMATS = ("multilog-journal/1",)

#: fault points probed by journal operations (armed via ``arm_faults``).
JOURNAL_FAULT_POINTS = (
    "journal-append",
    "journal-fsync",
    "journal-compact-write",
    "journal-compact-fsync",
    "journal-compact-rename",
    "journal-compact-dirsync",
)


def database_source(db) -> str:
    """The database re-serialized as parseable MultiLog source."""
    lines = [str(clause) for clause in db.clauses()]
    lines.extend(str(query) for query in db.queries)
    return "\n".join(lines)


def record_crc(record: dict) -> str:
    """CRC-32 (8 hex digits) of the record's canonical JSON, sans ``crc``."""
    body = {key: value for key, value in record.items() if key != "crc"}
    data = json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    return format(zlib.crc32(data), "08x")


@dataclass(frozen=True)
class QuarantinedRecord:
    """One journal line moved aside during recovery instead of replayed."""

    line: int  #: 1-based line number in the journal file
    raw: str  #: the raw line text, verbatim
    reason: str  #: why it could not be replayed


@dataclass
class JournalScan:
    """The raw result of one integrity pass over the journal file."""

    records: list[dict] = field(default_factory=list)
    quarantined: list[QuarantinedRecord] = field(default_factory=list)
    checksum_failures: int = 0
    legacy_records: int = 0
    last_seq: int = 0
    clauses_since_snapshot: int = 0
    #: byte length of the clean prefix (for torn-tail truncation)
    clean_bytes: int = 0


@dataclass
class RecoveryReport:
    """Everything one journal recovery did, decided and found.

    Built by :meth:`SessionJournal.replay_with_report` and completed by
    :meth:`~repro.multilog.session.MultiLogSession.recover` (which fills
    ``consistency``); rendered by ``multilog recover``.
    """

    journal: str
    records: int  #: intact records replayed (open/snapshot/clause)
    clauses_replayed: int
    snapshot_used: bool
    snapshot_version: int | None
    final_version: int
    quarantined: tuple[QuarantinedRecord, ...] = ()
    quarantine_path: str | None = None
    checksum_failures: int = 0
    legacy_records: int = 0
    #: Definition 5.4 report, attached by ``MultiLogSession.recover``.
    consistency: object | None = None

    @property
    def torn_tail(self) -> bool:
        """Did recovery quarantine an unacknowledged torn suffix?"""
        return bool(self.quarantined)

    @property
    def clean(self) -> bool:
        return not self.quarantined and not self.checksum_failures

    def to_dict(self) -> dict:
        out = {
            "journal": self.journal,
            "records": self.records,
            "clauses_replayed": self.clauses_replayed,
            "snapshot_used": self.snapshot_used,
            "snapshot_version": self.snapshot_version,
            "final_version": self.final_version,
            "torn_tail": self.torn_tail,
            "checksum_failures": self.checksum_failures,
            "legacy_records": self.legacy_records,
            "quarantined": [
                {"line": q.line, "reason": q.reason} for q in self.quarantined
            ],
            "quarantine_path": self.quarantine_path,
        }
        consistency = self.consistency
        if consistency is not None:
            out["consistent"] = bool(getattr(consistency, "ok", True))
        return out

    def summary(self) -> str:
        """Human-readable multi-line recovery summary."""
        lines = [
            f"journal: {self.journal}",
            f"replayed {self.records} record(s): "
            + ("snapshot at version "
               f"{self.snapshot_version}" if self.snapshot_used
               else "no snapshot")
            + f" + {self.clauses_replayed} clause(s)",
            f"recovered database version: {self.final_version}",
        ]
        if self.quarantined:
            lines.append(
                f"quarantined {len(self.quarantined)} torn/corrupt tail "
                f"record(s) -> {self.quarantine_path}")
            for entry in self.quarantined:
                lines.append(f"  line {entry.line}: {entry.reason}")
        else:
            lines.append("quarantined: nothing (journal tail intact)")
        if self.legacy_records:
            lines.append(f"legacy (checksum-less v1) records accepted: "
                         f"{self.legacy_records}")
        consistency = self.consistency
        if consistency is not None:
            ok = bool(getattr(consistency, "ok", True))
            lines.append("admissibility (Def 5.3): ok")
            lines.append(f"consistency (Def 5.4): {'ok' if ok else 'VIOLATED'}")
            if not ok:
                for message in consistency.all_messages():
                    lines.append(f"  {message}")
        return "\n".join(lines)


class SessionJournal:
    """Append-and-fsync JSONL journal for one MultiLog database.

    Create (or re-open) with a path; attach to a session via
    ``MultiLogSession(..., journal=...)`` or recover one with
    ``MultiLogSession.recover(path)``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = None
        #: next sequence number to write (lazily derived from the file).
        self._next_seq: int | None = None
        #: clause records appended since the last snapshot/compaction
        #: (lazily derived; drives the checkpoint threshold).  Only the
        #: thread that appends touches it -- the serving layer reads it
        #: inside the assert that grew it, under its write lock.
        self._clauses_since_snapshot: int | None = None
        #: set when a failed append could not be truncated back out: the
        #: partial line is still on disk, and appending after it would
        #: merge into it and turn an isolated torn tail into fatal
        #: interior corruption.  Appends refuse until recovery
        #: (quarantine) or compaction removes the residue.
        self._poisoned: str | None = None
        #: fault hook (``on_span(point)``) probed at JOURNAL_FAULT_POINTS.
        self._faults = None

    @property
    def quarantine_path(self) -> Path:
        """Sidecar file torn/corrupt tail records are moved into."""
        return self.path.with_name(self.path.name + ".quarantine")

    # -- fault injection -------------------------------------------------
    def arm_faults(self, plan) -> None:
        """Probe ``plan.on_span(point)`` at every disk fault point."""
        self._faults = plan

    def disarm_faults(self) -> None:
        self._faults = None

    def _probe(self, point: str) -> None:
        if self._faults is not None:
            self._faults.on_span(point)

    # -- writing ---------------------------------------------------------
    def _handle(self):
        if self._file is None or self._file.closed:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._file = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._next_seq = 1
                self._clauses_since_snapshot = 0
                self._write_record({"type": "open", "format": FORMAT})
        return self._file

    def _take_seq(self) -> int:
        if self._next_seq is None:
            scan = self.scan()
            self._next_seq = scan.last_seq + 1
            if self._clauses_since_snapshot is None:
                self._clauses_since_snapshot = scan.clauses_since_snapshot
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def _write_record(self, record: dict) -> None:
        """Append one sealed (seq + crc) record; fsync before returning.

        A failed write (ENOSPC, injected fsync fault) truncates the
        partial line back out so the journal never accumulates a torn
        *interior* -- the next append continues from the clean prefix.
        """
        handle = self._file
        record = dict(record)
        record["seq"] = self._take_seq()
        record["crc"] = record_crc(record)
        start = handle.tell()
        try:
            self._probe("journal-append")
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            handle.flush()
            self._probe("journal-fsync")
            os.fsync(handle.fileno())
        except Exception:
            self._next_seq = record["seq"]  # the record never became durable
            self._heal(handle, start)
            raise

    def _heal(self, handle, start: int) -> None:
        """Truncate a partially written record back out, or poison.

        If the truncation itself fails the partial line stays on disk;
        a further append would concatenate onto it, and once an intact
        record followed the merged garbage, :meth:`scan` would (rightly)
        treat it as fatal interior corruption of acknowledged history.
        So an unhealed journal is poisoned: appends refuse until
        recovery quarantines the residue or compaction rewrites the
        file.
        """
        try:
            handle.flush()
        except OSError:
            pass
        try:
            handle.truncate(start)
            handle.seek(start)
        except OSError as exc:
            self._poisoned = (f"failed append left an unhealed partial "
                              f"record at byte {start} ({exc})")
            return
        try:
            os.fsync(handle.fileno())
        except OSError:
            # The truncation landed in the file; if its fsync was lost
            # with a crash, replay sees a torn tail -- quarantinable,
            # not interior corruption.  The next append fsyncs anyway.
            pass

    def _check_poisoned(self) -> None:
        if self._poisoned is not None:
            raise JournalError(
                f"{self.path}: journal poisoned: {self._poisoned}; "
                "run recovery (or compact) before appending")

    def append_clause(self, text: str, version: int) -> None:
        """Durably record one asserted clause (fsync before returning)."""
        self._check_poisoned()
        self._handle()
        try:
            self._write_record({"type": "clause", "text": text,
                                "version": version})
        except OSError as exc:
            raise JournalError(
                f"{self.path}: journal append failed: {exc}") from exc
        if self._clauses_since_snapshot is not None:
            self._clauses_since_snapshot += 1

    def snapshot(self, db) -> None:
        """Append a full-database snapshot record (non-compacting)."""
        self._check_poisoned()
        self._handle()
        try:
            self._write_record({"type": "snapshot",
                                "source": database_source(db),
                                "version": db.version})
        except OSError as exc:
            raise JournalError(
                f"{self.path}: journal snapshot failed: {exc}") from exc
        self._clauses_since_snapshot = 0

    def compact(self, db) -> None:
        """Atomically replace the journal with one snapshot of ``db``.

        Write-to-temp + fsync + ``os.replace`` + parent-dir fsync: a
        crash (including SIGKILL) at any instant leaves either the old
        journal or the new one, never a hybrid.  Safe to run while the
        owning process keeps serving, provided writes are excluded for
        the duration (the serving layer holds its write lock).
        """
        self.close()
        # Invalidate the counters up front: if compaction fails *after*
        # the rename (e.g. the dir fsync), the file already holds seq
        # 1-2 and a stale counter would make the next append a sequence
        # gap.  ``None`` forces the next append to rescan.
        self._next_seq = None
        self._clauses_since_snapshot = None
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            self._probe("journal-compact-write")
            with open(tmp, "w", encoding="utf-8") as handle:
                for seq, record in enumerate(
                        ({"type": "open", "format": FORMAT},
                         {"type": "snapshot", "source": database_source(db),
                          "version": db.version}), start=1):
                    record["seq"] = seq
                    record["crc"] = record_crc(record)
                    handle.write(json.dumps(record, ensure_ascii=False) + "\n")
                handle.flush()
                self._probe("journal-compact-fsync")
                os.fsync(handle.fileno())
            self._probe("journal-compact-rename")
            os.replace(tmp, self.path)
            self._probe("journal-compact-dirsync")
        except OSError as exc:
            raise JournalError(
                f"{self.path}: journal compaction failed: {exc}") from exc
        self._fsync_dir()
        self._next_seq = 3
        self._clauses_since_snapshot = 0
        # The journal is a fresh snapshot file: any unhealed residue of
        # a failed append went with the old file.
        self._poisoned = None

    def _fsync_dir(self) -> None:
        """Make the rename itself durable (best effort off POSIX)."""
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.close()
        self._file = None

    # -- checkpoint bookkeeping ------------------------------------------
    def checkpoint_stats(self) -> tuple[int, int]:
        """``(clauses since last snapshot, journal size in bytes)``.

        Feeds ``ServerConfig.checkpoint_due``; cheap after the first
        call (a counter and one ``stat``).  Call it from the thread that
        appends, with appends excluded -- the serving layer does so
        inside the assert that grew the journal, under its write lock.
        """
        if self._clauses_since_snapshot is None:
            self._clauses_since_snapshot = self.scan().clauses_since_snapshot
        clauses = self._clauses_since_snapshot
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return clauses, size

    # -- reading ---------------------------------------------------------
    def scan(self) -> JournalScan:
        """One integrity pass: decode, checksum and sequence-check.

        Corruption in a contiguous *suffix* of the file is collected as
        quarantine candidates (the torn residue of a crash mid-append).
        Corruption *followed by an intact record*, or a sequence gap
        between intact records, is damage to acknowledged history and
        raises :class:`~repro.errors.JournalError` -- replay must not
        silently skip what was once durable.
        """
        scan = JournalScan()
        if not self.path.exists():
            return scan
        data = self.path.read_bytes()
        text = data.decode("utf-8", errors="replace")
        raw_lines = text.split("\n")
        while raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        expected_seq: int | None = None
        fmt: str | None = None
        offset = 0
        pending: list[tuple[int, str, str]] = []  # (line, raw, reason)
        for index, line in enumerate(raw_lines):
            line_bytes = len(line.encode("utf-8", errors="replace")) + 1
            reason = self._vet_line(line, fmt)
            if reason is not None:
                pending.append((index + 1, line, reason))
                offset += line_bytes
                continue
            if pending:
                # An intact record after corrupt ones: not a torn tail.
                first = pending[0]
                raise JournalError(
                    f"{self.path}: corrupt journal record on line "
                    f"{first[0]}: {first[2]}")
            record = json.loads(line)
            if record["type"] == "open":
                fmt = record.get("format")
            seq = record.get("seq")
            if seq is not None:
                if expected_seq is not None and seq != expected_seq:
                    # An intact record out of sequence is a hole in
                    # acknowledged history, never a torn tail: fatal.
                    raise JournalError(
                        f"{self.path}: sequence gap in journal: expected "
                        f"record seq {expected_seq}, found {seq}")
                expected_seq = seq + 1
                scan.last_seq = seq
            else:
                scan.legacy_records += 1
                scan.last_seq += 1
            if record["type"] == "clause":
                scan.clauses_since_snapshot += 1
            elif record["type"] == "snapshot":
                scan.clauses_since_snapshot = 0
            scan.records.append(record)
            offset += line_bytes
            scan.clean_bytes = min(offset, len(data))
        scan.quarantined = [QuarantinedRecord(line, raw, reason)
                            for line, raw, reason in pending]
        scan.checksum_failures = sum(
            1 for entry in scan.quarantined if "checksum" in entry.reason)
        return scan

    def _vet_line(self, line: str, fmt: str | None) -> str | None:
        """The reason this line cannot be replayed, or ``None`` if intact."""
        try:
            record = json.loads(line)
        except ValueError as exc:
            return f"undecodable JSON ({exc})"
        if not isinstance(record, dict) or "type" not in record:
            return "malformed record (not an object with a 'type')"
        crc = record.get("crc")
        if crc is not None:
            if not isinstance(crc, str) or record_crc(record) != crc:
                return (f"checksum mismatch (recorded {crc!r}, "
                        f"computed {record_crc(record)!r})")
        elif fmt == FORMAT:
            return "missing checksum in a v2 journal"
        return None

    def entries(self) -> list[dict]:
        """Every intact record, tolerating only a torn/corrupt tail.

        Corruption anywhere else is a real integrity failure and raises
        :class:`~repro.errors.JournalError` -- replay must not silently
        skip acknowledged history.  Use :meth:`replay_with_report` to
        also quarantine the torn tail into the sidecar file.
        """
        return self.scan().records

    def _replay_records(self, records: list[dict]):
        """Build the database the intact records describe."""
        from repro.multilog.ast import MultiLogDatabase
        from repro.multilog.parser import parse_clause, parse_database

        start = 0
        for index, record in enumerate(records):
            if record["type"] == "snapshot":
                start = index
        db = MultiLogDatabase()
        pending: list = []
        snapshot_version: int | None = None
        last_version: int | None = None
        clauses = 0
        for record in records[start:]:
            kind = record["type"]
            if kind == "open":
                fmt = record.get("format")
                if fmt != FORMAT and fmt not in LEGACY_FORMATS:
                    raise JournalError(
                        f"{self.path}: unknown journal format {fmt!r}")
            elif kind == "snapshot":
                db = parse_database(record["source"])
                pending.clear()
                snapshot_version = record.get("version")
                last_version = record.get("version")
            elif kind == "clause":
                pending.append(parse_clause(record["text"]))
                clauses += 1
                last_version = record.get("version", last_version)
            else:
                raise JournalError(
                    f"{self.path}: unknown journal record type {kind!r}")
        # Bulk-load the tail in one version bump: recovery replays every
        # clause before the first query, so per-clause memo invalidation
        # would be pure overhead.
        db.add_clauses(pending)
        # Resume the version counter where the crashed process stopped:
        # version-keyed caches and snapshot-isolated readers must never
        # see a recovered database travel back in time.
        if last_version is not None and last_version > db.version:
            db.version = last_version
        return db, snapshot_version, clauses

    def replay(self):
        """The :class:`~repro.multilog.ast.MultiLogDatabase` the journal
        describes: the latest snapshot, plus every clause after it."""
        db, _snapshot_version, _clauses = self._replay_records(self.entries())
        return db

    def replay_with_report(self, quarantine: bool = True):
        """Replay and account: ``(database, RecoveryReport)``.

        With ``quarantine=True`` (the default) a torn/corrupt tail is
        *moved* into the sidecar quarantine file -- appended there with
        an fsync, then truncated out of the journal -- so the journal is
        clean for subsequent appends and nothing is silently discarded.
        """
        scan = self.scan()
        quarantine_path: str | None = None
        if scan.quarantined and quarantine:
            self._write_quarantine(scan)
            quarantine_path = str(self.quarantine_path)
        if not scan.quarantined:
            # Nothing torn on disk: a poisoning failed append never
            # actually landed, so the journal is safe to append to.
            self._poisoned = None
        db, snapshot_version, clauses = self._replay_records(scan.records)
        report = RecoveryReport(
            journal=str(self.path),
            records=len(scan.records),
            clauses_replayed=clauses,
            snapshot_used=snapshot_version is not None,
            snapshot_version=snapshot_version,
            final_version=db.version,
            quarantined=tuple(scan.quarantined),
            quarantine_path=quarantine_path,
            checksum_failures=scan.checksum_failures,
            legacy_records=scan.legacy_records,
        )
        return db, report

    def _write_quarantine(self, scan: JournalScan) -> None:
        """Move the torn suffix into the sidecar, then truncate it out.

        Sidecar first (fsync), truncation second: a crash in between
        duplicates quarantine entries, which is harmless; the reverse
        order could lose the torn bytes entirely.
        """
        self.close()
        try:
            with open(self.quarantine_path, "a", encoding="utf-8") as handle:
                for entry in scan.quarantined:
                    handle.write(json.dumps(
                        {"line": entry.line, "reason": entry.reason,
                         "raw": entry.raw}, ensure_ascii=False) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            with open(self.path, "r+b") as handle:
                handle.truncate(scan.clean_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise JournalError(
                f"{self.path}: quarantine of torn tail failed: {exc}") from exc
        self._fsync_dir()
        # The torn residue (including any unhealed partial append that
        # poisoned the journal) is out of the file: appends are safe.
        self._poisoned = None
