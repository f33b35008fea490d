"""Degraded serving never reports a partial answer as complete.

With degrade forced on, every ask runs through the resilience layer
under a budget, and asks with a tight deadline abort their fixpoint:
the executor salvages partial answers, and the server answers
``deadline`` once the deadline has passed.  Sessions at one clearance
share one least model per version, so a salvage that edited the shared
model in place let a concurrent ask read it and answer
``complete: true`` from a partial model.  Every complete answer here
must equal a serial session's answer at the version the response
reports.
"""

from __future__ import annotations

import asyncio
import json
import sys

import pytest

from repro.multilog.session import MultiLogSession
from repro.serving import MultiLogServer, ServerConfig, ServingClient

EDGES = " ".join(f"edge(n{i}, n{i + 1})." for i in range(10))

SOURCE = f"""
level(u). level(s). order(u, s).
{EDGES}
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
s[node(K : hops -s-> Y)] :- reach(K, Y).
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""

QUERIES = ("s[node(n0 : hops -C-> Y)] << cau",
           "s[node(K : hops -C-> n5)] << opt",
           "s[acct(alice : balance -C-> B)] << cau")

CLIENTS = 8
ROUNDS = 24
#: every ASSERT_EVERY-th round client 0 extends the chain (a new version).
ASSERT_EVERY = 4
#: the deadline of the odd clients' asks: tight enough to abort most
#: fixpoints they lead, so they salvage partial answers.
TIGHT_S = 0.002


def canon(answers) -> str:
    """Order-free witness: row sets iterate in no fixed order."""
    return json.dumps(sorted(json.dumps(a, sort_keys=True) for a in answers))


async def one_op(client: ServingClient, index: int, round_no: int) -> dict:
    if index == 0 and round_no % ASSERT_EVERY == ASSERT_EVERY - 1:
        clause = f"edge(n{10 + round_no}, n{11 + round_no})."
        response = await client.request({"op": "assert", "clause": clause})
        return {"kind": "assert", "clause": clause, **response}
    query = QUERIES[(index + round_no) % len(QUERIES)]
    payload = {"op": "ask", "query": query}
    tight = bool(index % 2)
    if tight:
        payload["timeout_s"] = TIGHT_S
    response = await client.request(payload)
    return {"kind": "ask", "query": query, "tight": tight, **response}


@pytest.mark.parametrize("backend", ["dict", "columnar"])
def test_degraded_asks_never_leak_partial_models(backend):
    async def main() -> tuple[list[dict], MultiLogServer]:
        server = MultiLogServer(SOURCE, ServerConfig(
            clearance="s", backend=backend, engine="reduction", workers=32,
            degrade_at=0.0, max_inflight=1000))
        await server.start()
        try:
            host, port = server.address
            clients = [await ServingClient.connect(host, port, "s")
                       for _ in range(CLIENTS)]
            events: list[dict] = []
            try:
                for round_no in range(ROUNDS):  # lock-step rounds
                    events += await asyncio.gather(*(
                        one_op(client, index, round_no)
                        for index, client in enumerate(clients)))
            finally:
                for client in clients:
                    await client.close()
        finally:
            await server.stop()
        return events, server

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        events, server = asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
    # The only errors: tight asks whose deadline passed.
    assert [e for e in events if not e.get("ok", True)
            and not (e.get("tight") and e["code"] == "deadline")] == []
    asks = [e for e in events if e["kind"] == "ask" and e["ok"]]
    complete = [e for e in asks if e["complete"]]
    assert complete, "no ask completed"
    assert server.stats.degraded_total == len(asks) - len(complete)
    assert server.stats.deadline_total == sum(
        1 for e in events if not e.get("ok", True))

    serial = MultiLogSession(SOURCE, clearance="s", backend=backend)
    at_version: dict[int, list[dict]] = {}
    for event in complete:
        at_version.setdefault(event["version"], []).append(event)
    asserts = sorted((e for e in events if e["kind"] == "assert"),
                     key=lambda e: e["version"])
    checked = 0
    for clause in [None] + asserts:
        if clause is not None:
            serial.assert_clause(clause["clause"])
            assert serial.database.version == clause["version"]
        for event in at_version.pop(serial.database.version, ()):
            expected = serial.ask(event["query"], engine="reduction")
            assert canon(event["answers"]) == canon(expected), (
                f"complete answer at version {event['version']} for "
                f"{event['query']!r} differs from the serial session")
            checked += 1
    assert at_version == {}, "an ask reported a version no commit produced"
    assert checked == len(complete)
