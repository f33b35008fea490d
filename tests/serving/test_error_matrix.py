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
    DatalogError,
    JournalError,
    LatticeError,
    MultiLogSyntaxError,
    SessionBusyError,
)
from repro.multilog.session import MultiLogSession
from repro.serving import MultiLogServer, ServerConfig
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
