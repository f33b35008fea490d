"""Units for the exclusive-checkout per-clearance session pool."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import LatticeError, ServingError
from repro.multilog.session import MultiLogSession
from repro.serving.pool import SessionPool
from repro.workloads.d1 import D1_SOURCE


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def root():
    return MultiLogSession(D1_SOURCE, clearance="s")


def test_checkout_creates_sibling_at_clearance(root):
    async def main():
        pool = SessionPool(root)
        session = await pool.checkout("c")
        assert str(session.clearance) == "c"
        assert session is not root
        assert session.database is root.database
        await pool.checkin(session)
        return pool.stats()

    stats = run(main())
    assert stats["c"] == {"created": 1, "busy": 0, "free": 1}


def test_checkout_defaults_to_root_clearance(root):
    async def main():
        pool = SessionPool(root)
        session = await pool.checkout()
        assert str(session.clearance) == "s"
        await pool.checkin(session)

    run(main())


def test_checkin_reuses_the_sibling(root):
    async def main():
        pool = SessionPool(root)
        first = await pool.checkout("u")
        await pool.checkin(first)
        second = await pool.checkout("u")
        await pool.checkin(second)
        assert first is second
        assert pool.stats()["u"]["created"] == 1

    run(main())


def test_concurrent_checkouts_are_exclusive(root):
    async def main():
        pool = SessionPool(root, max_per_clearance=4)
        a = await pool.checkout("s")
        b = await pool.checkout("s")
        assert a is not b  # never hand one session to two holders
        await pool.checkin(a)
        await pool.checkin(b)
        assert pool.stats()["s"] == {"created": 2, "busy": 0, "free": 2}

    run(main())


def test_checkout_blocks_at_cap_until_checkin(root):
    async def main():
        pool = SessionPool(root, max_per_clearance=1)
        held = await pool.checkout("s")
        waiter = asyncio.create_task(pool.checkout("s"))
        await asyncio.sleep(0.05)
        assert not waiter.done()  # capped: must wait for the checkin
        await pool.checkin(held)
        reused = await asyncio.wait_for(waiter, timeout=2)
        assert reused is held
        await pool.checkin(reused)

    run(main())


def test_lease_checks_back_in_on_error(root):
    async def main():
        pool = SessionPool(root, max_per_clearance=1)
        with pytest.raises(RuntimeError):
            async with pool.lease("s"):
                raise RuntimeError("boom")
        # The slot came back: the next lease must not block.
        async with pool.lease("s") as session:
            assert str(session.clearance) == "s"

    run(main())


def test_unknown_clearance_rejected_without_a_phantom_slot(root):
    async def main():
        pool = SessionPool(root)
        with pytest.raises(LatticeError):
            await pool.checkout("topsecret")
        assert pool.stats() == {}

    run(main())


def test_on_create_hook_runs_once_per_session(root):
    seen = []

    async def main():
        pool = SessionPool(root, on_create=seen.append)
        session = await pool.checkout("c")
        await pool.checkin(session)
        again = await pool.checkout("c")
        await pool.checkin(again)

    run(main())
    assert len(seen) == 1
    assert str(seen[0].clearance) == "c"


def test_backend_mixing_is_a_regression_error(root, monkeypatch):
    """A sibling resolving a different backend must fail checkout loudly."""

    def bad_sibling(clearance):
        other = "columnar" if root.backend == "dict" else "dict"
        return MultiLogSession(root.database, clearance, backend=other)

    monkeypatch.setattr(root, "with_clearance", bad_sibling)

    async def main():
        pool = SessionPool(root, max_per_clearance=1)
        with pytest.raises(ServingError, match="mix storage backends"):
            await pool.checkout("u")
        # The failed creation rolled its slot back: cap not consumed.
        assert pool.stats().get("u", {}).get("created", 0) == 0

    run(main())


def test_invalid_cap_rejected(root):
    with pytest.raises(ServingError):
        SessionPool(root, max_per_clearance=0)
