"""The MLS security-audit trail: append-only structured events.

MLS relational systems mandate an audit trail of every cross-level
access (the filter model's "polyinstantiation and audit" discipline);
this module is the deductive-database analogue.  Whenever belief
computation reads *down* the lattice -- an optimistic/cautious subject
at level ``s`` consuming a cell classified at ``u`` -- the engines emit
a :class:`AuditEvent` into the ambient :class:`AuditLog`:

========================  ==============================================
kind                      emitted when
========================  ==============================================
``cross_level_read``      belief at ``subject`` level consumed a cell
                          classified at a *strictly lower* ``object``
                          level (fields: subject, object, mode,
                          predicate)
``override``              cautious inheritance at ``subject`` overrode a
                          lower-level cell's value for the same
                          (predicate, key, attribute) slot
``filter_suppression``    the Jajodia-Sandhu filter dropped or nulled a
                          believed cell at this level
``surprise_story``        the surprise oracle found a cell believed low
                          but invisible high -- the paper's headline
                          covert-story leak
``assert``                a clause was asserted through the session
                          (mirrors the crash-safe journal record)
``recover``               a session was rebuilt from its journal
``slow_capture``          the serving slow log retained a request's
                          query text and span tree (fields: subject =
                          the clearance the request ran at, trace_id,
                          op, outcome) -- retention is itself an access
========================  ==============================================

Identical events collapse into one entry with an occurrence ``count``
(a fixpoint engine revisits the same cell every round; the *fact* of the
downward read is the audit signal, not its multiplicity), preserving
first-occurrence order.  ``emit(..., times=n)`` records ``n``
occurrences at once, so an emission site may count its rows first and
emit each distinct event once; the trail is the same as ``n`` single
emits.  :data:`NULL_AUDIT` keeps the disabled path
allocation-free: emission sites guard on ``audit.enabled`` before
building any event.  Query the trail via
``MultiLogSession.audit_log()``; export it with :meth:`AuditLog.to_jsonl`
or the ``multilog audit`` subcommand.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

#: The audit event kinds, in the order the table above documents them.
AUDIT_KINDS = (
    "cross_level_read",
    "override",
    "filter_suppression",
    "surprise_story",
    "assert",
    "recover",
    "slow_capture",
)


@dataclass(frozen=True)
class AuditEvent:
    """One structured audit record (hashable: identical events dedup)."""

    kind: str
    subject: str | None = None   # security level doing the reading/writing
    object: str | None = None    # security level of the data touched
    mode: str | None = None      # belief mode in force (fir/opt/cau)
    predicate: str | None = None
    detail: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def detail_dict(self) -> dict[str, str]:
        return dict(self.detail)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("subject", "object", "mode", "predicate"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out.update(self.detail)
        return out

    def render(self) -> str:
        parts = [self.kind]
        if self.subject is not None:
            parts.append(f"subject={self.subject}")
        if self.object is not None:
            parts.append(f"object={self.object}")
        if self.mode is not None:
            parts.append(f"mode={self.mode}")
        if self.predicate is not None:
            parts.append(f"predicate={self.predicate}")
        parts.extend(f"{k}={v}" for k, v in self.detail)
        return "  ".join(parts)


class AuditLog:
    """Append-only, deduplicating store of audit events."""

    # Weakly referenceable: a reduced program remembers which logs it has
    # walked its model into without keeping them alive.
    __slots__ = ("_order", "_counts", "_lock", "__weakref__")

    enabled = True

    def __init__(self) -> None:
        self._order: list[AuditEvent] = []
        self._counts: dict[AuditEvent, int] = {}
        #: one server-wide log takes emits from every executor thread;
        #: the count update is a read-modify-write.
        self._lock = threading.Lock()

    def emit(self, kind: str, subject: str | None = None, object: str | None = None,
             mode: str | None = None, predicate: str | None = None, *,
             times: int = 1, **detail) -> None:
        """Record ``times`` occurrences of one event (the same trail as
        ``times`` single emits)."""
        if kind not in AUDIT_KINDS:
            raise ValueError(f"unknown audit kind {kind!r}; one of {AUDIT_KINDS}")
        if times < 1:
            raise ValueError(f"an audit event occurs at least once, not {times}")
        event = AuditEvent(
            kind, subject, object, mode, predicate,
            tuple(sorted((k, str(v)) for k, v in detail.items())),
        )
        with self._lock:
            seen = self._counts.get(event)
            # Count before order: readers iterate ``_order`` unlocked and
            # look each event up in ``_counts``.
            self._counts[event] = times if seen is None else seen + times
            if seen is None:
                self._order.append(event)

    # -- querying --------------------------------------------------------
    def events(self, kind: str | None = None) -> list[AuditEvent]:
        if kind is None:
            return list(self._order)
        return [event for event in self._order if event.kind == kind]

    def count(self, event: AuditEvent) -> int:
        """How many times ``event`` was emitted (occurrences, not entries)."""
        return self._counts.get(event, 0)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def clear(self) -> None:
        with self._lock:
            self._order.clear()
            self._counts.clear()

    # -- export ----------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        out = []
        for event in self._order:
            record = event.to_dict()
            record["count"] = self._counts[event]
            out.append(record)
        return out

    def to_jsonl(self) -> str:
        """One JSON object per line, in first-occurrence order."""
        return "\n".join(json.dumps(record, sort_keys=True)
                         for record in self.to_dicts())

    def render(self) -> str:
        """Human-readable trail (the CLI's ``:audit`` output)."""
        if not self._order:
            return "(audit trail empty)"
        lines = []
        for event in self._order:
            count = self._counts[event]
            suffix = f"  x{count}" if count > 1 else ""
            lines.append(event.render() + suffix)
        return "\n".join(lines)


class NullAudit:
    """Disabled path: emission sites check ``enabled`` first, so these
    no-ops only catch stragglers."""

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, subject: str | None = None, object: str | None = None,
             mode: str | None = None, predicate: str | None = None, *,
             times: int = 1, **detail) -> None:
        pass

    def events(self, kind: str | None = None) -> list[AuditEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def clear(self) -> None:
        pass

    def to_dicts(self) -> list[dict]:
        return []

    def to_jsonl(self) -> str:
        return ""

    def render(self) -> str:
        return "(audit disabled)"


NULL_AUDIT = NullAudit()
