"""Keyed memo layers with version-counter invalidation.

Every mutable store in the hot path (the Datalog :class:`~repro.datalog.
database.Database`, :class:`~repro.mls.relation.MLSRelation`, and
:class:`~repro.multilog.ast.MultiLogDatabase`) carries a monotone
``version`` counter bumped on every mutation.  A :class:`VersionedMemo`
keys cached derived values -- belief views, tau-translations, least
models -- on ``(owner, key)`` and stamps each entry with the owner's
version at compute time.  A lookup against a newer version is a miss
that evicts the stale entry, so *any* insert invalidates everything
derived from the mutated store without explicit wiring.

Owners are held weakly: dropping a relation or database drops its cached
views with it.  Cached values are shared, not copied -- callers must
treat them as read-only (see ``docs/PERFORMANCE.md``).

Lookups are **single-flight**: of the threads that miss on one ``(owner,
key, version)`` at the same moment, one computes and the rest wait for
it and then hit, so a value is built once however many pooled sessions
ask for it together.  Waiters block in short slices and check their own
budget meter between them (:func:`wait_until`), so a waiter keeps its
own deadline and cancellation.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

#: seconds a waiter blocks between checks of its own budget meter.
WAIT_SLICE_S = 0.005


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one memo layer."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.invalidations = 0


_MEMOS: list["VersionedMemo"] = []


def wait_until(ready: Callable[[float], bool], what: str) -> None:
    """Block until ``ready(timeout)`` returns true, in slices of
    :data:`WAIT_SLICE_S` seconds.

    Between slices the caller's own budget meter (the ambient
    :class:`~repro.obs.context.ObsContext`) is checked, so a request
    waiting on another request's build still times out or is cancelled
    on its own terms.  The wait is recorded as a ``snapshot-wait`` span
    on the waiter's trace.
    """
    from repro.obs.context import current  # repro.obs imports this module

    ctx = current()
    meter = ctx.meter
    with ctx.recorder.span("snapshot-wait", layer=what):
        while not ready(WAIT_SLICE_S):
            if meter is not None:
                meter.check_cancelled("snapshot-wait")
                meter.check_time("snapshot-wait")


@contextmanager
def build_lock(lock: threading.Lock, what: str) -> Iterator[None]:
    """Hold ``lock`` around a once-per-object build.

    A caller that finds the lock held waits for the build in progress
    (:func:`wait_until`) instead of starting a second one; the caller
    then re-checks whether the build it wanted has been published.
    """
    if not lock.acquire(blocking=False):
        wait_until(lambda timeout: lock.acquire(timeout=timeout), what)
    try:
        yield
    finally:
        lock.release()


class VersionedMemo:
    """Per-owner memo store invalidated by the owner's version counter."""

    def __init__(self, name: str):
        self.name = name
        self.stats = CacheStats()
        #: guards ``_store``, ``_flights`` and ``stats``; never held while
        #: computing or waiting.
        self._lock = threading.Lock()
        self._store: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
        #: per owner, ``(key, version) -> Event`` set when that build ends.
        self._flights: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
        _MEMOS.append(self)

    def get_or_compute(self, owner: object, version: int, key: object,
                       compute: Callable[[], object]) -> object:
        """The cached value for ``(owner, key)`` at ``version``, computing
        (and storing) it on a miss or a stale hit.

        Concurrent misses on one ``(owner, key, version)`` compute once:
        the first caller computes, the others wait and then hit.  If the
        computing caller raises, nothing is stored, the error stays its
        own, and one of the waiters computes in its place.
        """
        return self.get_or_extend(owner, version, key,
                                  lambda previous: compute())

    def get_or_extend(self, owner: object, version: int, key: object,
                      extend: Callable[[object | None], object]) -> object:
        """:meth:`get_or_compute`, where the value is built by
        ``extend(previous)``: ``previous`` is the stale value of ``key``
        that this miss evicts (built at an older version), or ``None``.

        The eviction hands the predecessor to exactly one builder, the
        caller that registers the flight; a waiter that takes over after
        that builder failed gets ``None``.
        """
        previous = None
        while True:
            with self._lock:
                entries = self._store.get(owner)
                if entries is None:
                    entries = {}
                    self._store[owner] = entries
                entry = entries.get(key)
                if entry is not None:
                    if entry[0] == version:
                        self.stats.hits += 1
                        return entry[1]
                    # Evict only entries stamped before the owner's
                    # *current* version: sibling keys recomputed since the
                    # mutation are still valid.
                    stale = [k for k, (v, _) in entries.items() if v < version]
                    self.stats.invalidations += len(stale)
                    if entry[0] < version:
                        previous = entry[1]
                    for k in stale:
                        del entries[k]
                flights = self._flights.get(owner)
                if flights is None:
                    flights = {}
                    self._flights[owner] = flights
                done = flights.get((key, version))
                if done is None:
                    done = flights[key, version] = threading.Event()
                    self.stats.misses += 1
                    break
            wait_until(done.wait, self.name)
        try:
            value = extend(previous)
        except BaseException:
            with self._lock:
                del flights[key, version]
            done.set()
            raise
        with self._lock:
            del flights[key, version]
            self._publish(entries, version, key, value)
        done.set()
        return value

    def put(self, owner: object, version: int, key: object, value: object) -> None:
        """Store a value computed elsewhere (no lookup is counted).

        An entry already stamped with a newer version is kept.
        """
        with self._lock:
            entries = self._store.get(owner)
            if entries is None:
                entries = {}
                self._store[owner] = entries
            self._publish(entries, version, key, value)

    @staticmethod
    def _publish(entries: dict, version: int, key: object, value: object) -> None:
        current = entries.get(key)
        if current is None or current[0] <= version:
            entries[key] = (version, value)

    def entries_for(self, owner: object) -> int:
        """Number of live cache entries for ``owner`` (introspection)."""
        with self._lock:
            return len(self._store.get(owner) or ())

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.stats.reset()


def all_memos() -> list[VersionedMemo]:
    """Every memo layer created so far (registration order)."""
    return list(_MEMOS)


def clear_all_caches() -> None:
    """Drop every cached value and reset all counters (test isolation)."""
    for memo in _MEMOS:
        memo.clear()


def cache_stats() -> dict[str, CacheStats]:
    """Snapshot of per-layer statistics, keyed by memo name."""
    return {memo.name: memo.stats for memo in _MEMOS}
