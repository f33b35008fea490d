"""The data ops' error-code matrix: one row per (op, exception).

Each case raises one exception from the executor hop of an ``ask`` or
an ``assert`` while the op's breaker holds its half-open probe, then
pins the response code, the counters the failure bumps, whether it
counts against the breaker, and that the probe slot is resolved.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    BudgetExceededError,
    DataCorruptionError,
    DatalogError,
    FaultInjectedError,
    JournalError,
    LatticeError,
    MultiLogSyntaxError,
    PlanVerificationError,
    SessionBusyError,
)
from repro.multilog.session import MultiLogSession
from repro.resilience import FaultPlan
from repro.serving import MultiLogServer, ServerConfig, ServingClient
from repro.workloads.d1 import D1_SOURCE

#: counters an error may bump besides ``errors_total``; every other one
#: must stay at zero.
SPECIFIC = ("cancelled_total", "deadline_total", "degraded_total",
            "breaker_rejected_total", "completed_total", "asks_total",
            "asserts_total")

REQUESTS = {
    "ask": {"op": "ask", "query": "s[p(K : a -C-> V)] << cau"},
    "assert": {"op": "assert", "clause": "u[p(k8 : a -u-> 8)]."},
}

#: (case, exception, request timeout_s) -> {op: (code, counter, counts
#: against the breaker, error text)}
MATRIX = [
    ("budget-cancelled", lambda: BudgetExceededError("stop", reason="cancelled"),
     None, {"ask": ("cancelled", "cancelled_total", False,
                    "client disconnected mid-ask; evaluation cancelled"),
            "assert": ("rejected", None, False, "stop")}),
    ("budget-timeout-deadline", lambda: BudgetExceededError("late", reason="timeout"),
     30.0, {"ask": ("deadline", "deadline_total", False,
                    "deadline of 30.0s passed: late"),
            "assert": ("rejected", None, False, "late")}),
    ("budget-timeout-no-deadline", lambda: BudgetExceededError("late", reason="timeout"),
     None, {"ask": ("rejected", None, False, "late"),
            "assert": ("rejected", None, False, "late")}),
    ("budget-rows", lambda: BudgetExceededError("big", reason="rows"),
     None, {"ask": ("rejected", None, False, "big"),
            "assert": ("rejected", None, False, "big")}),
    ("syntax", lambda: MultiLogSyntaxError("bad"),
     None, {"ask": ("bad-query", None, False, "bad"),
            "assert": ("bad-query", None, False, "bad")}),
    ("lattice", lambda: LatticeError("no level"),
     None, {"ask": ("bad-clearance", None, False, "no level"),
            "assert": ("bad-clearance", None, False, "no level")}),
    ("busy", lambda: SessionBusyError("in use"),
     None, {"ask": ("busy", None, False, "in use"),
            "assert": ("busy", None, False, "in use")}),
    ("journal", lambda: JournalError("disk full"),
     None, {"ask": ("rejected", None, False, "disk full"),
            "assert": ("internal", None, True, "disk full")}),
    # Server-side engine faults: an error whatever the load, and one the
    # breaker counts.  Detected corruption is retried first.
    ("fault", lambda: FaultInjectedError("injected"),
     None, {"ask": ("internal", None, True, "injected"),
            "assert": ("internal", None, True, "injected")}),
    ("corruption", lambda: DataCorruptionError("bad checksum"),
     None, {"ask": ("internal", None, True, "bad checksum"),
            "assert": ("internal", None, True, "bad checksum")}),
    ("plan-verification", lambda: PlanVerificationError("bad plan"),
     None, {"ask": ("internal", None, True, "bad plan"),
            "assert": ("internal", None, True, "bad plan")}),
    ("repro", lambda: DatalogError("unsafe"),
     None, {"ask": ("rejected", None, False, "unsafe"),
            "assert": ("rejected", None, False, "unsafe")}),
    ("runtime", lambda: RuntimeError("boom"),
     None, {"ask": ("internal", None, True, "RuntimeError: boom"),
            "assert": ("internal", None, True, "RuntimeError: boom")}),
]

CASES = [pytest.param(op, make, timeout_s, *expected[op], id=f"{op}-{name}")
         for name, make, timeout_s, expected in MATRIX
         for op in ("ask", "assert")]


@pytest.mark.parametrize("op,make,timeout_s,code,counter,trips,error", CASES)
def test_error_code_matrix(monkeypatch, op, make, timeout_s, code, counter,
                           trips, error):
    def fail(*args, **kwargs):
        raise make()

    monkeypatch.setattr(MultiLogSession, op if op == "ask" else "assert_clause",
                        fail)

    async def main():
        server = MultiLogServer(D1_SOURCE, ServerConfig(clearance="s"),
                                breaker_threshold=1, breaker_reset_s=0.0)
        try:
            breaker = server._breakers[op]
            breaker.record_failure()  # reset_s=0: straight to half-open
            assert breaker.state == "half-open"
            failures = []
            record_failure = breaker.record_failure
            breaker.record_failure = lambda: (failures.append(1),
                                              record_failure())
            request = dict(REQUESTS[op], clearance="s")
            if timeout_s is not None:
                request["timeout_s"] = timeout_s
            response = await server.dispatch(request)
            return server, breaker, failures, response
        finally:
            await server.stop()

    server, breaker, failures, response = asyncio.run(main())
    assert response["ok"] is False
    assert response["code"] == code
    assert response["error"] == error
    stats = server.stats
    assert stats.errors_total == 1
    for name in SPECIFIC:
        assert getattr(stats, name) == (1 if name == counter else 0), name
    assert len(failures) == (1 if trips else 0)
    assert not breaker.probing  # the probe was resolved either way
    assert stats.inflight == 0 and not stats.inflight_by_clearance


@pytest.mark.parametrize("degrade_at", [1.0, 0.0])
def test_engine_fault_is_answered_alike_loaded_or_not(degrade_at):
    """A calm server (``degrade_at=1.0``) and a loaded one (``0.0``, every
    ask degraded) answer an engine fault the same way: a permanent one is
    ``internal`` and counts one ask-breaker failure; a one-shot transient
    one is retried and served in full."""

    async def ask_with(fault: FaultPlan) -> tuple[dict, int]:
        server = MultiLogServer(D1_SOURCE, ServerConfig(
            clearance="s", engine="reduction", degrade_at=degrade_at))

        def arm(session, _setup=server.pool._on_create):
            _setup(session)
            session.arm_faults(fault)

        server.pool._on_create = arm
        await server.start()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                response = await client.request(dict(REQUESTS["ask"]))
            return response, server._breakers["ask"].failures
        finally:
            await server.stop()

    # rule-fire opens in the native plan's least-model build.
    permanent = FaultPlan()
    permanent.arm("rule-fire", error="permanent", times=None)
    response, failures = asyncio.run(ask_with(permanent))
    assert (response["ok"], response["code"]) == (False, "internal")
    assert failures == 1
    assert permanent.history

    transient = FaultPlan()
    transient.arm("rule-fire", error="transient")
    response, failures = asyncio.run(ask_with(transient))
    assert response["ok"] is True
    assert response["complete"] is True and "degraded" not in response
    assert response["answers"]
    assert failures == 0
    assert len(transient.history) == 1


@pytest.mark.parametrize("degrade_at", [1.0, 0.0])
def test_retries_do_not_outlive_the_deadline(degrade_at):
    """Each try's budget meter starts afresh, so a retried ask could
    finish complete after its request deadline; it answers ``deadline``
    instead, loaded or not."""
    fault = FaultPlan()
    fault.arm("query", action="delay", delay_s=0.2, times=2)  # each try
    fault.arm("parse", error="transient")  # fails the first try only

    async def main() -> dict:
        server = MultiLogServer(D1_SOURCE, ServerConfig(
            clearance="s", degrade_at=degrade_at))

        def arm(session, _setup=server.pool._on_create):
            _setup(session)
            session.arm_faults(fault)

        server.pool._on_create = arm
        await server.start()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                response = await client.request(
                    dict(REQUESTS["ask"], timeout_s=0.3))
            return response, server.stats
        finally:
            await server.stop()

    response, stats = asyncio.run(main())
    assert [spec.fired for spec in fault.specs] == [2, 1]  # one retry ran
    assert (response["ok"], response["code"]) == (False, "deadline")
    assert "after 2 attempt(s)" in response["error"]
    assert (stats.deadline_total, stats.completed_total,
            stats.degraded_total) == (1, 0, 0)
