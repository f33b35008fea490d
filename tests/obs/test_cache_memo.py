"""VersionedMemo eviction: stale entries go, current siblings stay.

Regression for the over-invalidation bug: a stale lookup used to clear
*every* entry for the owner, including siblings recomputed after the
mutation -- so one cold key repeatedly evicted warm ones.

Single-flight: concurrent misses on one (owner, key, version) compute
once.  The store used to be iterated and pruned unlocked by every
executor thread, and each concurrent miss recomputed.
"""

import sys
import threading
import time

import pytest

from repro.cache import VersionedMemo
from repro.errors import BudgetExceededError
from repro.obs import EvaluationBudget, ObsContext, use
from repro.obs.trace import TraceRecorder


class Owner:
    """A stand-in mutable store with a version counter."""


class TestVersionedMemo:
    def test_hit_and_miss_counting(self):
        memo = VersionedMemo("test-hits")
        owner = Owner()
        assert memo.get_or_compute(owner, 1, "a", lambda: "A1") == "A1"
        assert memo.get_or_compute(owner, 1, "a", lambda: "XX") == "A1"
        assert memo.stats.misses == 1
        assert memo.stats.hits == 1

    def test_stale_lookup_keeps_current_siblings(self):
        memo = VersionedMemo("test-eviction")
        owner = Owner()
        sentinel = object()
        memo.get_or_compute(owner, 1, "b", lambda: "B1")   # b stamped @1
        memo.get_or_compute(owner, 2, "a", lambda: sentinel)  # a stamped @2
        # Looking up the stale b at version 2 must evict only b.
        assert memo.get_or_compute(owner, 2, "b", lambda: "B2") == "B2"
        assert memo.stats.invalidations == 1
        # The sibling computed at the current version survived: a hit, not
        # a recompute.
        hits_before = memo.stats.hits
        assert memo.get_or_compute(owner, 2, "a", lambda: "LOST") is sentinel
        assert memo.stats.hits == hits_before + 1
        assert memo.entries_for(owner) == 2

    def test_stale_lookup_evicts_all_outdated_entries(self):
        memo = VersionedMemo("test-bulk-eviction")
        owner = Owner()
        memo.get_or_compute(owner, 1, "a", lambda: "A1")
        memo.get_or_compute(owner, 1, "b", lambda: "B1")
        memo.get_or_compute(owner, 1, "c", lambda: "C1")
        assert memo.get_or_compute(owner, 3, "a", lambda: "A3") == "A3"
        # All three version-1 entries were stale; only the fresh one lives.
        assert memo.stats.invalidations == 3
        assert memo.entries_for(owner) == 1

    def test_owners_are_independent(self):
        memo = VersionedMemo("test-owners")
        first, second = Owner(), Owner()
        memo.get_or_compute(first, 1, "k", lambda: "one")
        memo.get_or_compute(second, 9, "k", lambda: "two")
        assert memo.get_or_compute(first, 1, "k", lambda: "X") == "one"
        assert memo.get_or_compute(second, 9, "k", lambda: "X") == "two"

    def test_dropping_the_owner_drops_its_entries(self):
        memo = VersionedMemo("test-weak")
        owner = Owner()
        memo.get_or_compute(owner, 1, "k", lambda: "v")
        assert memo.entries_for(owner) == 1
        del owner
        import gc

        gc.collect()
        assert len(memo._store) == 0


# -- single-flight under threads -----------------------------------------

THREADS = 8
VERSIONS = 25


def run_threads(target, count: int) -> list[BaseException]:
    """Run ``target(index)`` on ``count`` threads; return their errors."""
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive(), "a memo caller hung"
    return errors


class TestSingleFlight:
    def test_concurrent_misses_compute_once_per_version(self):
        memo = VersionedMemo("test-single-flight")
        owner = Owner()
        computed: list[int] = []
        seen: list[tuple[int, object]] = []
        barrier = threading.Barrier(THREADS, timeout=10)

        def caller(index: int) -> None:
            try:
                for version in range(VERSIONS):
                    barrier.wait()  # every thread misses on this version together

                    def compute(version=version):
                        time.sleep(0.001)  # long enough for the others to overlap
                        computed.append(version)
                        return ("value", version)

                    seen.append((version,
                                 memo.get_or_compute(owner, version, "k", compute)))
            except BaseException:
                barrier.abort()  # release the other threads at once
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = run_threads(caller, THREADS)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert sorted(computed) == list(range(VERSIONS))
        assert all(value == ("value", version) for version, value in seen)
        assert len(seen) == THREADS * VERSIONS
        assert memo.stats.misses == VERSIONS
        assert memo.stats.hits == (THREADS - 1) * VERSIONS

    def test_failed_leader_hands_over_to_a_waiter(self):
        memo = VersionedMemo("test-leader-fails")
        owner = Owner()
        started, release = threading.Event(), threading.Event()
        computed: list[int] = []
        results: dict[int, object] = {}

        def failing():
            started.set()
            assert release.wait(10)
            raise RuntimeError("leader's own budget tripped")

        def succeeding():
            # Recorded: whether the leader had already given up.
            computed.append(release.is_set())
            return "built by a waiter"

        def caller(index: int) -> None:
            if index == 0:
                memo.get_or_compute(owner, 1, "k", failing)
            else:
                assert started.wait(10)
                results[index] = memo.get_or_compute(owner, 1, "k", succeeding)

        def unblock() -> None:
            assert started.wait(10)
            time.sleep(0.05)  # let the waiters block on the leader's flight
            release.set()

        threading.Thread(target=unblock).start()
        errors = run_threads(caller, 4)
        assert [str(e) for e in errors] == ["leader's own budget tripped"]
        assert results == {1: "built by a waiter", 2: "built by a waiter",
                           3: "built by a waiter"}
        # Exactly one waiter took over, and only once the leader failed.
        assert computed == [True]
        assert memo.get_or_compute(owner, 1, "k", lambda: "again") == "built by a waiter"

    def test_waiter_keeps_its_own_deadline(self):
        memo = VersionedMemo("test-waiter-deadline")
        owner = Owner()
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            assert release.wait(10)
            return "slow value"

        leader = threading.Thread(
            target=lambda: memo.get_or_compute(owner, 1, "k", slow))
        leader.start()
        try:
            assert started.wait(10)
            recorder = TraceRecorder()
            meter = EvaluationBudget(timeout_s=0.05).meter()
            began = time.perf_counter()
            with use(ObsContext(recorder, meter=meter)):
                with pytest.raises(BudgetExceededError) as info:
                    memo.get_or_compute(owner, 1, "k", lambda: "never")
            assert info.value.reason == "timeout"
            assert time.perf_counter() - began < 5.0
            assert [span["name"] for span in recorder.to_dicts()] == ["snapshot-wait"]
        finally:
            release.set()
            leader.join(10)
        assert not leader.is_alive()
        assert memo.get_or_compute(owner, 1, "k", lambda: "never") == "slow value"
