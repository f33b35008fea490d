"""Per-clearance session pools with exclusive checkout.

A :class:`MultiLogSession` is deliberately *not* reentrant -- per-ask
state (trace recorder, stats snapshot, engine caches mid-revalidation)
lives on the session for its exclusive holder, and concurrent entry
raises :class:`~repro.errors.SessionBusyError`.  The serving layer
therefore multiplexes clients over a :class:`SessionPool`: sessions are
keyed by clearance (one ``with_clearance()`` sibling family per level of
the lattice), checked out exclusively for the duration of one request,
and returned for reuse.  Sibling sessions share the database, the
journal and the **resolved** storage backend, so a pool never mixes dict
and columnar engines over one database -- the pool asserts this on every
creation as a regression guard.

Checkout blocks (async) when every session of a clearance is busy and
the per-clearance cap is reached; admission control above the pool keeps
that wait bounded (docs/SERVING.md).
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from time import perf_counter

from repro.errors import ServingError


class SessionPool:
    """Exclusive-checkout pool of sibling sessions over one database."""

    def __init__(self, root, max_per_clearance: int = 32,
                 on_create=None, on_wait=None):
        if max_per_clearance < 1:
            raise ServingError("max_per_clearance must be >= 1")
        #: the session the pool was built from; never handed out itself,
        #: it is the server's own handle (journal owner, write path).
        self.root = root
        self.max_per_clearance = max_per_clearance
        #: hook run on each freshly created sibling (the server wires the
        #: shared audit log and telemetry through it).
        self._on_create = on_create
        #: ``on_wait(level, seconds)`` called after every checkout with
        #: the time spent acquiring a session -- near-zero on a free
        #: sibling, the queueing delay when the clearance cap was hit.
        self._on_wait = on_wait
        self._free: dict[str, list] = {}
        self._busy: dict[str, int] = {}
        self._created: dict[str, int] = {}
        self._cond = asyncio.Condition()

    # ------------------------------------------------------------------
    def _make_session(self, clearance: str):
        session = self.root.with_clearance(clearance)
        if session.backend != self.root.backend:
            raise ServingError(
                f"session pool would mix storage backends over one "
                f"database: sibling at {clearance!r} resolved "
                f"{session.backend!r}, root runs {self.root.backend!r}")
        if self._on_create is not None:
            self._on_create(session)
        return session

    async def checkout(self, clearance: str | None = None):
        """An exclusively held session at ``clearance`` (default: root's).

        Reuses a free sibling, creates one up to ``max_per_clearance``,
        and otherwise waits until a sibling is checked back in.  Raises
        the underlying lattice error for an unknown clearance.
        """
        level = clearance if clearance is not None else str(self.root.clearance)
        # Validate before taking the condition: an unknown level must not
        # leave a phantom slot accounted against the cap.
        self.root.lattice.check_level(level)
        started = perf_counter()
        async with self._cond:
            while True:
                free = self._free.get(level)
                if free:
                    session = free.pop()
                    break
                if self._created.get(level, 0) < self.max_per_clearance:
                    # Creation is synchronous CPU work (admissibility
                    # re-check); account for the slot before yielding so
                    # a concurrent checkout cannot overshoot the cap.
                    self._created[level] = self._created.get(level, 0) + 1
                    try:
                        session = self._make_session(level)
                    except BaseException:
                        self._created[level] -= 1
                        self._cond.notify()
                        raise
                    break
                await self._cond.wait()
            self._busy[level] = self._busy.get(level, 0) + 1
        if self._on_wait is not None:
            self._on_wait(level, perf_counter() - started)
        return session

    async def checkin(self, session) -> None:
        """Return a checked-out session for reuse."""
        level = str(session.clearance)
        async with self._cond:
            self._busy[level] = max(0, self._busy.get(level, 0) - 1)
            self._free.setdefault(level, []).append(session)
            self._cond.notify()

    @asynccontextmanager
    async def lease(self, clearance: str | None = None):
        """``async with pool.lease(level) as session:`` checkout/checkin."""
        session = await self.checkout(clearance)
        try:
            yield session
        finally:
            await self.checkin(session)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Pool occupancy per clearance (created / busy / free)."""
        return {
            level: {
                "created": created,
                "busy": self._busy.get(level, 0),
                "free": len(self._free.get(level, ())),
            }
            for level, created in sorted(self._created.items())
        }
