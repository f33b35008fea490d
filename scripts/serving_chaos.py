"""CI serving chaos: seeded mayhem, then a byte-identical recovery.

Starts an in-process journaled MultiLogServer over the D1 workload and
drives ``--clients`` connections through a seeded mix of chaos:

* well-behaved asks and asserts at mixed clearances (reduction asks
  included, so cross-level reads hit the audit trail);
* torn frames -- half a JSON request, then an abrupt RST;
* slow-loris connections that open and never speak;
* requests with near-zero deadlines (must die with ``deadline``, not
  wedge a worker);
* one injected ENOSPC burst against the journal mid-run (asserts must
  fail clean, then heal);
* overload: the server degrades every ask (``degrade_at=0``) under a
  shed budget of :data:`SHED_ROWS` derived rows, which lies between the
  D1 reduction models of ``u`` and of ``c``/``s``.  A reduction ask
  that has to build a higher clearance's model is cut and answered
  with flagged partial answers; the rest are served in full, so the
  audit invariant below covers both.

The checkpoint threshold is two clause records, so asserts compact the
journal under traffic.  Afterwards the server drains (final checkpoint
included) and the invariants are checked end to end:

1. **Durability differential** -- replaying the journal from disk yields
   a database byte-identical (canonical source dump) to the live one,
   at the same version: every acknowledged write survived, nothing
   unacknowledged leaked in -- across at least one automatic checkpoint
   besides the drain's (``checkpoints_total >= 2``).
2. **MLS invariant** -- every ``cross_level_read`` in the server-wide
   audit trail goes *down* the lattice: zero cross-clearance leaks,
   chaos or not -- and overload cut some asks: ``degraded_total > 0``.
3. **Observability stays leak-free** (``--trace --access-log``): every
   request root span reaching the sink is closed with an outcome (no
   span left open by torn frames, deadlines or mid-ask disconnects),
   every access-log line is valid JSON carrying a trace id, the span
   and line counts agree, and the process file-descriptor count after
   shutdown is back at the post-start baseline.

Exit code 0 on success; prints a one-line summary for the CI log.

    PYTHONPATH=src python scripts/serving_chaos.py --seed 0 --clients 48 \
        --trace --access-log
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import socket
import struct
import sys
import tempfile
from pathlib import Path

from repro.obs import EvaluationBudget
from repro.resilience import FaultPlan
from repro.resilience.journal import SessionJournal, database_source
from repro.serving import MultiLogServer, ServerConfig, ServingClient
from repro.workloads.d1 import D1_SOURCE

CLEARANCES = ("u", "c", "s")
ASKS = {
    "u": "u[p(K : a -C-> V)] << cau",
    "c": "c[p(K : a -C-> V)] << opt",
    "s": "s[p(K : a -C-> V)] << cau",
}

#: the degraded asks' row budget: above the 55 rows the D1 ``u``
#: reduction model derives, below the 62-63 of ``s`` and ``c``.
SHED_ROWS = 58

#: outcomes a chaos client may report (summary bookkeeping).
OUTCOMES = ("ok", "torn", "loris", "deadline", "enospc-clean", "shed")


class _SpanSink:
    """Trace sink that keeps every request root span for leak checks."""

    def __init__(self) -> None:
        self.spans: list = []

    def write_span(self, span) -> None:
        self.spans.append(span)


def _open_fds() -> int | None:
    """The process's open file-descriptor count (Linux), else ``None``."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def rst_close(sock: socket.socket) -> None:
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


async def drive(host: str, port: int, index: int, rng: random.Random,
                counts: dict) -> None:
    clearance = CLEARANCES[index % len(CLEARANCES)]
    roll = rng.random()
    if roll < 0.15:
        # Torn frame: half a request, then an RST mid-connection.
        sock = socket.create_connection((host, port))
        sock.sendall(b'{"op": "ask", "query": "' + b"s[p(" * rng.randint(1, 4))
        await asyncio.sleep(rng.uniform(0, 0.01))
        rst_close(sock)
        counts["torn"] += 1
        return
    if roll < 0.25:
        # Slow loris: connect, say nothing, linger, leave.
        sock = socket.create_connection((host, port))
        await asyncio.sleep(rng.uniform(0.01, 0.05))
        sock.close()
        counts["loris"] += 1
        return
    async with await ServingClient.connect(host, port, clearance) as client:
        if roll < 0.35:
            # Near-zero deadline: the server must answer ``deadline``.
            response = await client.request(
                {"op": "ask", "query": ASKS[clearance], "timeout_s": 1e-9})
            assert response["code"] == "deadline", response
            counts["deadline"] += 1
            return
        engine = "reduction" if index % 2 else "operational"
        await client.ask(ASKS[clearance], engine=engine)
        if index % 5 == 0:
            response = await client.request(
                {"op": "assert",
                 "clause": f"{clearance}[t(s{index} : f "
                           f"-{clearance}-> {index})]."})
            if not response.get("ok"):
                # The ENOSPC window: the assert must fail *clean* with a
                # journal error, never ack-then-lose.
                assert response["code"] == "internal", response
                counts["enospc-clean"] += 1
                return
        await client.ask(ASKS[clearance], engine="reduction")
        counts["ok"] += 1


async def main(seed: int, n_clients: int, journal_path: Path,
               trace: bool = False,
               access_log_path: Path | None = None) -> int:
    rng = random.Random(seed)
    sink = _SpanSink() if trace else None
    server = MultiLogServer(D1_SOURCE, ServerConfig(
        clearance="s", journal=str(journal_path), max_inflight=4096,
        degrade_at=0.0, shed_budget=EvaluationBudget(max_derived_rows=SHED_ROWS),
        checkpoint_records=2,
        trace=trace, trace_sink=sink,
        access_log=str(access_log_path) if access_log_path else None))
    await server.start()
    host, port = server.address
    counts = dict.fromkeys(OUTCOMES, 0)
    # FD baseline after one served request, so lazily-opened files (the
    # access log) are already counted; the post-shutdown count must come
    # back to (at most) this.
    async with await ServingClient.connect(host, port, "s") as warm:
        await warm.ask(ASKS["s"])
    fd_baseline = _open_fds()

    # One ENOSPC burst mid-run: a few journal appends hit a full disk.
    plan = FaultPlan(seed=seed)
    plan.arm("journal-append", action="enospc", after=3, times=2)
    server.root.journal.arm_faults(plan)

    try:
        await asyncio.gather(*(
            drive(host, port, index, rng, counts)
            for index in range(n_clients)))
        drained = await server.drain(timeout_s=10.0)
    finally:
        await server.stop()

    live = database_source(server.root.database)
    live_version = server.root.database.version

    # 1. Durability differential: disk == memory, byte for byte.
    replayed = SessionJournal(journal_path).replay()
    replay_ok = (database_source(replayed) == live
                 and replayed.version == live_version)

    # 2. The MLS invariant under chaos: zero cross-clearance leaks.
    events = server.audit.to_dicts() if server.audit is not None else []
    crosses = [e for e in events if e["kind"] == "cross_level_read"]
    lattice = server.root.lattice
    leaks = [e for e in crosses if not lattice.leq(e["object"], e["subject"])]

    # 3. Observability leak checks (only meaningful with tracing on).
    open_spans: list = []
    bad_lines: list[str] = []
    access_lines = 0
    if sink is not None:
        open_spans = [s for s in sink.spans
                      if "outcome" not in s.attrs or s.elapsed_s <= 0.0]
    if access_log_path is not None and access_log_path.exists():
        for line in access_log_path.read_text().splitlines():
            access_lines += 1
            try:
                entry = json.loads(line)
            except ValueError:
                bad_lines.append(line[:120])
                continue
            if not entry.get("trace_id") or "outcome" not in entry:
                bad_lines.append(line[:120])
    gc.collect()
    fd_final = _open_fds()

    outcome = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
    print(f"serving chaos: seed={seed} clients={n_clients} ({outcome}), "
          f"{server.stats.checkpoints_total} checkpoints, "
          f"{server.stats.cancelled_total} cancelled, "
          f"{server.stats.degraded_total} of {server.stats.asks_total} "
          f"asks degraded, "
          f"{len(crosses)} cross-level reads, {len(leaks)} leaks, "
          f"drain={'clean' if drained else 'TIMEOUT'}, "
          f"replay={'identical' if replay_ok else 'DIVERGED'}"
          + (f", {len(sink.spans)} spans ({len(open_spans)} unclosed), "
             f"{access_lines} access lines, "
             f"fds {fd_baseline}->{fd_final}" if sink is not None else ""))
    if not replay_ok:
        print(f"FAIL: journal replay diverged from the live database "
              f"(live v{live_version}, replayed v{replayed.version})")
        return 1
    if server.stats.checkpoints_total < 2:
        print("FAIL: no automatic checkpoint besides the drain's")
        return 1
    if leaks:
        for event in leaks[:10]:
            print(f"LEAK: {event}")
        return 1
    if not crosses:
        print("FAIL: no cross-level reads audited (trail not wired?)")
        return 1
    if not server.stats.degraded_total:
        print("FAIL: no ask was served degraded (the shed budget cut none)")
        return 1
    if server.stats.degraded_total >= server.stats.asks_total:
        print("FAIL: the shed budget cut every ask")
        return 1
    if not drained:
        print("FAIL: drain timed out with requests in flight")
        return 1
    if counts["enospc-clean"] == 0 and plan.history:
        print("FAIL: ENOSPC fired but no assert reported a clean failure")
        return 1
    if counts["ok"] == 0:
        print("FAIL: chaos drowned out every well-behaved client")
        return 1
    if sink is not None:
        if not sink.spans:
            print("FAIL: tracing enabled but no root spans reached the sink")
            return 1
        if open_spans:
            for span in open_spans[:5]:
                print(f"SPAN LEAK: {span!r} attrs={span.attrs}")
            return 1
        if access_log_path is not None:
            if bad_lines:
                for line in bad_lines[:5]:
                    print(f"BAD ACCESS LINE: {line}")
                return 1
            if access_lines != len(sink.spans):
                print(f"FAIL: {access_lines} access-log lines but "
                      f"{len(sink.spans)} root spans -- a request dodged "
                      f"one of the two exits")
                return 1
        if (fd_baseline is not None and fd_final is not None
                and fd_final > fd_baseline):
            print(f"FD LEAK: {fd_baseline} open fds after start, "
                  f"{fd_final} after shutdown")
            return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=48)
    parser.add_argument("--trace", action="store_true",
                        help="serve with per-request tracing and check "
                             "every root span closes")
    parser.add_argument("--access-log", action="store_true",
                        help="write a JSONL access log next to the journal "
                             "and check every line (implies request scopes)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="multilog-chaos-") as tmp:
        sys.exit(asyncio.run(main(
            args.seed, args.clients, Path(tmp) / "wal.jsonl",
            trace=args.trace,
            access_log_path=(Path(tmp) / "access.jsonl"
                             if args.access_log else None))))
