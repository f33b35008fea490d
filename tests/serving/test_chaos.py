"""Deterministic serving chaos: torn frames, slow-loris connections,
mid-ask disconnects, ENOSPC mid-assert, and a SIGKILL differential.

Every scenario is reproducible by construction -- faults fire at named
points (:class:`~repro.resilience.FaultPlan`), disconnects are forced
with ``SO_LINGER`` RSTs, and the SIGKILL test compares the recovered
database byte-for-byte against a serial replay.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

from repro.resilience import FaultPlan
from repro.resilience.journal import SessionJournal, database_source
from repro.serving import MultiLogServer, ServerConfig, ServingClient
from repro.workloads.d1 import D1_SOURCE

ASK = "s[p(K : a -C-> V)] << cau"
SRC = str(Path(__file__).resolve().parents[2] / "src")


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


def rst_close(sock: socket.socket) -> None:
    """Close with an RST instead of FIN (abrupt peer death)."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


# -- wire-level chaos ----------------------------------------------------

def test_torn_frame_then_disconnect_leaves_the_server_serving():
    async def main():
        server = await started()
        try:
            host, port = server.address
            sock = socket.create_connection((host, port))
            sock.sendall(b'{"op": "ask", "query": "s[p(')  # no newline
            rst_close(sock)
            await wait_for(lambda: server.stats.connections == 0)
            async with await ServingClient.connect(host, port, "s") as client:
                assert await client.ask(ASK)
            assert server.health in ("healthy", "degraded")
        finally:
            await server.stop()

    run(main())


def test_garbage_frame_answers_bad_request_and_keeps_the_connection():
    async def main():
        server = await started()
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            import json
            error = json.loads(await reader.readline())
            assert error["ok"] is False
            assert error["code"] == "bad-request"
            # The same connection still serves well-formed requests.
            writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
            await writer.drain()
            pong = json.loads(await reader.readline())
            assert pong["ok"] is True
            writer.close()
        finally:
            await server.stop()

    run(main())


def test_slow_loris_connections_do_not_block_service():
    async def main():
        server = await started()
        try:
            host, port = server.address
            # 16 connections that never send a byte.
            idlers = [socket.create_connection((host, port))
                      for _ in range(16)]
            await wait_for(lambda: server.stats.connections >= 16)
            # A real client is still served promptly alongside them.
            started_at = asyncio.get_running_loop().time()
            async with await ServingClient.connect(host, port, "s") as client:
                assert await client.ask(ASK)
            assert asyncio.get_running_loop().time() - started_at < 5.0
            for sock in idlers:
                sock.close()
            await wait_for(lambda: server.stats.connections == 0)
        finally:
            await server.stop()

    run(main())


# -- disconnect cancellation ---------------------------------------------

def disconnect_mid_ask(degrade_at: float) -> MultiLogServer:
    async def main():
        server = await started(degrade_at=degrade_at)
        try:
            # Every pooled session evaluates slowly (a held fault-delay
            # at the query span), so the disconnect lands mid-evaluation.
            plan = FaultPlan()
            plan.arm("query", action="delay", delay_s=0.5, times=None)

            def setup(session, _orig=server.pool._on_create):
                _orig(session)
                session.arm_faults(plan)

            server.pool._on_create = setup
            host, port = server.address
            sock = socket.create_connection((host, port))
            sock.sendall(b'{"op": "ask", "query": "%s", "clearance": "s"}\n'
                         % ASK.encode("ascii"))
            await wait_for(lambda: server.stats.inflight == 1)
            rst_close(sock)  # the client gives up mid-request
            # The hang-up callback flips the cancel probe; the engine aborts
            # instead of finishing a dead request.
            await wait_for(lambda: server.stats.cancelled_total == 1)
            await wait_for(lambda: server.stats.inflight == 0)
            # The worker is free again: a live client gets full service.
            async with await ServingClient.connect(host, port, "s") as client:
                assert await client.ask(ASK)
        finally:
            await server.stop()
        return server

    return run(main())


def test_disconnect_mid_ask_cancels_the_evaluation():
    disconnect_mid_ask(degrade_at=1.0)


def test_disconnect_mid_degraded_ask_is_cancelled_not_salvaged():
    """A loaded server (every ask degraded) answers a hung-up client's ask
    as ``cancelled`` like a calm one; nobody is left to take a partial."""
    stats = disconnect_mid_ask(degrade_at=0.0).stats
    assert (stats.cancelled_total, stats.degraded_total) == (1, 0)
    assert stats.completed_total == 1  # the live client's ask only


# -- disk chaos ----------------------------------------------------------

def test_enospc_mid_assert_fails_clean_and_replay_matches(tmp_path):
    async def main():
        server = MultiLogServer(D1_SOURCE, ServerConfig(
            clearance="s", journal=str(tmp_path / "wal.jsonl"),
            checkpoint_records=None, checkpoint_bytes=None))
        await server.start()
        try:
            ok = await server.dispatch(
                {"op": "assert", "clause": "u[p(k6 : a -u-> 6)].",
                 "clearance": "s"})
            assert ok["ok"] is True
            before = server.root.database.version

            plan = FaultPlan()
            plan.arm("journal-append", action="enospc", times=1)
            server.root.journal.arm_faults(plan)
            failed = await server.dispatch(
                {"op": "assert", "clause": "u[p(k7 : a -u-> 7)].",
                 "clearance": "s"})
            # Durability failed -> the whole assert rolls back: no ack,
            # no version bump, no clause, and the breaker noticed.
            assert failed["ok"] is False
            assert failed["code"] == "internal"
            assert "journal append failed" in failed["error"]
            assert server.root.database.version == before
            assert server._breakers["assert"].failures == 1
            assert plan.history == [("journal-append", "enospc")]

            server.root.journal.disarm_faults()
            ok = await server.dispatch(
                {"op": "assert", "clause": "u[p(k8 : a -u-> 8)].",
                 "clearance": "s"})
            assert ok["ok"] is True
            assert server._breakers["assert"].failures == 0
        finally:
            await server.stop()
        return server

    server = run(main())
    # Differential: what the journal replays is exactly the live state.
    replayed = SessionJournal(tmp_path / "wal.jsonl").replay()
    assert database_source(replayed) == database_source(server.root.database)
    assert replayed.version == server.root.database.version


# -- SIGKILL differential ------------------------------------------------

WRITER = '''
import sys
sys.path.insert(0, {src!r})
from repro.multilog.session import MultiLogSession
from repro.workloads.d1 import D1_SOURCE

session = MultiLogSession(D1_SOURCE, clearance="s", journal=sys.argv[1])
for i in range(100000):
    session.assert_clause(f"u[t(s{{i}} : f -u-> {{i}})].")
    print(i, flush=True)  # the clause is fsynced before this ack
'''


def test_sigkill_mid_assert_recovers_every_acknowledged_write(tmp_path):
    journal = tmp_path / "wal.jsonl"
    script = tmp_path / "writer.py"
    script.write_text(WRITER.format(src=SRC))
    proc = subprocess.Popen(
        [sys.executable, str(script), str(journal)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    acked: list[int] = []
    deadline = time.monotonic() + 60
    try:
        while len(acked) < 25:
            assert time.monotonic() < deadline, proc.stderr.read()
            line = proc.stdout.readline()
            assert line, f"writer died early: {proc.stderr.read()}"
            acked.append(int(line))
        os.kill(proc.pid, signal.SIGKILL)  # mid-stream, no warning
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL

    # Recovery re-checks Def 5.3 admissibility (raises otherwise).
    from repro.multilog.session import MultiLogSession

    session = MultiLogSession.recover(journal, clearance="s")
    report = session.journal_recovery
    assert report is not None
    # fsync-before-ack: every acknowledged clause survived the kill.
    recovered = database_source(session.database)
    for i in acked:
        assert f"u[t(s{i} : f -u-> {i})]." in recovered
    # SIGKILL can tear at most the one in-flight append.
    assert len(report.quarantined) <= 1
    # Byte-identical differential: two independent replays of the healed
    # journal agree with each other and with the recovered session.
    replay_a = SessionJournal(journal).replay()
    replay_b = SessionJournal(journal).replay()
    assert database_source(replay_a) == database_source(replay_b) == recovered
    assert replay_a.version == session.database.version


# -- chaos under mixed clearances: the MLS invariant holds ----------------

def test_abrupt_disconnects_never_leak_across_clearances():
    async def main():
        server = await started()
        try:
            host, port = server.address
            for index in range(12):
                clearance = ("u", "c", "s")[index % 3]
                query = f"{clearance}[p(K : a -C-> V)] << cau"
                if index % 4 == 3:
                    # A client that sends its ask and slams the door.
                    sock = socket.create_connection((host, port))
                    sock.sendall(
                        b'{"op": "ask", "query": "%s", "clearance": "%s"}\n'
                        % (query.encode(), clearance.encode()))
                    rst_close(sock)
                else:
                    async with await ServingClient.connect(
                            host, port, clearance) as client:
                        await client.ask(query, engine="reduction")
            await wait_for(lambda: server.stats.inflight == 0)
        finally:
            await server.stop()
        return server

    server = run(main())
    events = server.audit.to_dicts() if server.audit is not None else []
    crosses = [e for e in events if e["kind"] == "cross_level_read"]
    assert crosses, "reduction asks must audit their downward reads"
    lattice = server.root.lattice
    for event in crosses:
        # Zero leaks: every audited read goes *down* the lattice.
        assert lattice.leq(event["object"], event["subject"]), event
