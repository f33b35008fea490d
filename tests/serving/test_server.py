"""Units for the asyncio MultiLog server: admission control, snapshot
reads, serialized writes, disconnects and the serving dashboard."""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading

import pytest

from repro.obs.budget import EvaluationBudget
from repro.serving import (
    MultiLogServer,
    ServerConfig,
    ServingCallError,
    ServingClient,
)
from repro.serving.server import _cancel_on_hang_up
from repro.workloads.d1 import D1_SOURCE

ASK = "s[p(K : a -C-> V)] << cau"


def run(coro):
    return asyncio.run(coro)


async def started(**overrides) -> MultiLogServer:
    server = MultiLogServer(D1_SOURCE, ServerConfig(clearance="s"), **overrides)
    await server.start()
    return server


async def wait_for(predicate, timeout: float = 5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


# -- basic request/response over the framed protocol -------------------

def test_hello_ping_and_ask():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                assert client.hello["server"] == "multilog-serving/1"
                assert client.hello["clearance"] == "s"
                assert set(client.hello["levels"]) == {"u", "c", "s"}
                pong = await client.ping()
                assert pong["version"] == server.root.database.version
                full = await client.ask_full(ASK)
                assert full["complete"] is True
                assert full["version"] == server.root.database.version
                assert full["answers"]
        finally:
            await server.stop()

    run(main())


def test_hello_rejects_unknown_clearance():
    async def main():
        server = await started()
        try:
            host, port = server.address
            with pytest.raises(ServingCallError) as excinfo:
                await ServingClient.connect(host, port, "cosmic")
            assert excinfo.value.code == "bad-clearance"
        finally:
            await server.stop()

    run(main())


def test_assert_bumps_version_and_is_visible_to_asks():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                before = (await client.ping())["version"]
                response = await client.assert_clause(
                    "u[p(k9 : a -u-> 42)].")
                assert response["version"] == before + 1
                answers = await client.ask("s[p(k9 : a -C-> V)] << cau")
                assert {"C": "u", "V": 42} in answers
        finally:
            await server.stop()

    run(main())


def test_error_codes_over_the_wire():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                bad_query = await client.request(
                    {"op": "ask", "query": "p(("})
                assert bad_query["code"] == "bad-query"
                bad_clearance = await client.request(
                    {"op": "ask", "query": ASK, "clearance": "galactic"})
                assert bad_clearance["code"] == "bad-clearance"
                unknown = await client.request({"op": "audittt"})
                assert unknown["code"] == "unknown-op"
                # Inadmissible clause (undeclared security label, Def
                # 5.3 cond 2): rejected, and the version must not move.
                before = (await client.ping())["version"]
                rejected = await client.request(
                    {"op": "assert", "clause": "x[p(k : a -x-> 1)]."})
                assert rejected["code"] == "rejected"
                assert (await client.ping())["version"] == before
        finally:
            await server.stop()

    run(main())


def test_oversized_line_answers_then_hangs_up():
    async def main():
        server = await started(max_line_bytes=256)
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ask", "query": "' + b"x" * 1024 + b'"}\n')
            await writer.drain()
            line = await reader.readline()
            assert json.loads(line)["code"] == "line-too-long"
            assert await reader.read() == b""  # server closed the connection
            writer.close()
        finally:
            await server.stop()

    run(main())


def test_peer_watch_distinguishes_overrun_from_disconnect():
    # The read-ahead overrunning on a pipelined oversized *next* line
    # means the peer is still connected -- only EOF/connection errors
    # may cancel the in-flight request.
    async def main():
        loop = asyncio.get_running_loop()

        def read_ahead(result=None, exc=None):
            future = loop.create_future()
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)
            return future

        for exc in (asyncio.LimitOverrunError("chunk too long", 0),
                    ValueError("line too long")):
            cancel = threading.Event()
            _cancel_on_hang_up(cancel, read_ahead(exc=exc))
            assert not cancel.is_set(), f"{exc!r} is not a disconnect"
        for future in (read_ahead(exc=ConnectionResetError()),
                       read_ahead(exc=asyncio.IncompleteReadError(b"x", 2)),
                       read_ahead(b"")):
            cancel = threading.Event()
            _cancel_on_hang_up(cancel, future)
            assert cancel.is_set()
        # A pipelined next request, or a read cancelled as the
        # connection closes, is no hang-up.
        pending = loop.create_future()
        pending.cancel()
        for future in (read_ahead(b'{"op": "ping"}\n'), pending):
            cancel = threading.Event()
            _cancel_on_hang_up(cancel, future)
            assert not cancel.is_set()

    run(main())


def test_oversized_pipelined_line_does_not_cancel_the_inflight_request():
    async def main():
        server = await started(max_line_bytes=256)
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            # Park the ask behind the write lock so the oversized second
            # line is guaranteed to overrun the read-ahead mid-request.
            gate = server._rw.write()
            await gate.__aenter__()
            request = json.dumps({"op": "ask", "query": ASK,
                                  "clearance": "s"}).encode() + b"\n"
            writer.write(request + b"x" * 1024)
            await writer.drain()
            await wait_for(lambda: server.stats.inflight == 1)
            await asyncio.sleep(0.05)  # let the read-ahead see the junk
            await gate.__aexit__(None, None, None)
            first = json.loads(await reader.readline())
            assert first["ok"] is True, first  # served, not "cancelled"
            second = json.loads(await reader.readline())
            assert second["code"] == "line-too-long"
            assert await reader.read() == b""  # then the server hangs up
            writer.close()
        finally:
            await server.stop()

    run(main())


# -- admission control: shed and degrade --------------------------------

def test_load_shed_past_max_inflight():
    async def main():
        server = await started(max_inflight=1)
        try:
            host, port = server.address
            # Hold the write lock so an admitted ask parks deterministically.
            gate = server._rw.write()
            await gate.__aenter__()
            first = await ServingClient.connect(host, port, "s")
            inflight_task = asyncio.create_task(first.ask_full(ASK))
            await wait_for(lambda: server.stats.inflight == 1)
            second = await ServingClient.connect(host, port, "s")
            shed = await second.request({"op": "ask", "query": ASK})
            assert shed["ok"] is False
            assert shed["code"] == "shed"
            assert server.stats.shed_total == 1
            await gate.__aexit__(None, None, None)
            full = await inflight_task
            assert full["ok"] is True
            assert full["answers"]
            await first.close()
            await second.close()
        finally:
            await server.stop()

    run(main())


def test_degraded_ask_returns_partial_answers():
    async def main():
        server = await started(
            max_inflight=4, degrade_at=0.01,
            shed_budget=EvaluationBudget(max_derived_rows=1))
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                full = await client.ask_full(ASK)
                assert full["ok"] is True
                assert full["complete"] is False
                assert ":" in full["degraded"]  # "rung:reason"
            assert server.stats.degraded_total == 1
        finally:
            await server.stop()

    run(main())


def test_shed_responses_are_not_counted_completed():
    async def main():
        server = await started()
        try:
            server.stats.inflight = server.config.max_inflight  # saturate
            response = await server.dispatch({"op": "ask", "query": ASK,
                                              "clearance": "s"})
            assert response["code"] == "shed"
            assert server.stats.completed_total == 0
            server.stats.inflight = 0
        finally:
            await server.stop()

    run(main())


# -- mid-request disconnect ---------------------------------------------

def test_mid_request_disconnect_leaves_server_healthy():
    async def main():
        server = await started()
        try:
            host, port = server.address
            gate = server._rw.write()
            await gate.__aenter__()
            sock = socket.create_connection((host, port))
            sock.sendall(b'{"op": "ask", "query": "%s", "clearance": "s"}\n'
                         % ASK.encode("ascii"))
            await wait_for(lambda: server.stats.inflight == 1)
            # RST the connection while the request is mid-flight.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            await gate.__aexit__(None, None, None)
            await wait_for(lambda: server.stats.inflight == 0)
            await wait_for(lambda: server.stats.connections == 0)
            # The session went back to the pool and new clients are served.
            await wait_for(
                lambda: all(c["busy"] == 0 for c in server.pool.stats().values()))
            async with await ServingClient.connect(host, port, "s") as client:
                assert await client.ask(ASK)
        finally:
            await server.stop()

    run(main())


# -- dashboard -----------------------------------------------------------

def test_metrics_exposition_covers_the_dashboard():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                await client.ask(ASK)
                await client.assert_clause("u[p(k7 : a -u-> 7)].")
                text = await client.metrics()
        finally:
            await server.stop()
        return text

    text = run(main())
    for needle in (
        "multilog_serving_accepted_total 2",
        "multilog_serving_asks_total 1",
        "multilog_serving_asserts_total 1",
        "multilog_serving_shed_total 0",
        "multilog_serving_inflight 0",
        'multilog_serving_pool_sessions{clearance="s",state="free"} 1',
        'multilog_serving_request_seconds_count{op="ask"} 1',
        'multilog_serving_request_seconds_bucket{op="assert",le="+Inf"} 1',
    ):
        assert needle in text, f"missing {needle!r} in:\n{text}"


def test_stats_snapshot_shape():
    stats = MultiLogServer(D1_SOURCE, clearance="s").stats.snapshot()
    assert stats["accepted_total"] == 0
    assert stats["inflight"] == 0
    assert "latency" in stats


# -- the server-wide audit trail -----------------------------------------

def test_pooled_sessions_share_one_audit_trail():
    async def main():
        server = await started()
        try:
            host, port = server.address
            # Reduction asks at two clearances: cross-level reads from
            # both must land in the *same* server-wide trail.
            async with await ServingClient.connect(host, port, "s") as high:
                await high.ask(ASK, engine="reduction")
                async with await ServingClient.connect(host, port, "c") as low:
                    await low.ask("c[p(K : a -C-> V)] << opt",
                                  engine="reduction")
                events = await high.audit()
        finally:
            await server.stop()
        return server, events

    server, events = run(main())
    crosses = [e for e in events if e["kind"] == "cross_level_read"]
    assert crosses, "reduction asks must audit their downward reads"
    subjects = {e["subject"] for e in crosses}
    assert len(subjects) >= 2, "trail must span multiple clearances"
    # Leak-free: every audited read goes *down* the lattice, never up.
    lattice = server.root.lattice
    for event in crosses:
        assert lattice.leq(event["object"], event["subject"]), event


def test_audit_disabled_when_configured_off():
    async def main():
        server = await started(audit=False)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                await client.ask(ASK, engine="reduction")
                response = await client.request({"op": "audit"})
            assert response["enabled"] is False
            assert response["events"] == []
        finally:
            await server.stop()

    run(main())


# -- construction ---------------------------------------------------------

def test_unknown_config_override_rejected():
    with pytest.raises(TypeError):
        MultiLogServer(D1_SOURCE, max_infight=3)  # typo must not pass silently
