"""End-to-end request observability: distributed tracing through the
serving stack, the structured access log, lattice-redacted slow-query
capture, and the SLO burn-rate monitors."""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import pytest

from repro.obs import format_traceparent, new_span_id, new_trace_id
from repro.obs.export import chrome_trace_events
from repro.resilience import FaultPlan
from repro.serving import (
    MultiLogServer,
    ServerConfig,
    ServingCallError,
    ServingClient,
    SLOTracker,
)
from repro.serving.requestlog import SlowLog
from repro.workloads.d1 import D1_SOURCE

ASK = "s[p(K : a -C-> V)] << cau"


def run(coro):
    return asyncio.run(coro)


class SpanList:
    """A trace sink that keeps every root span it is handed."""

    def __init__(self):
        self.spans = []

    def write_span(self, span) -> None:
        self.spans.append(span)


async def started(**overrides) -> MultiLogServer:
    server = MultiLogServer(D1_SOURCE, ServerConfig(clearance="s"),
                            **overrides)
    await server.start()
    return server


async def wait_for(predicate, timeout: float = 5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def rst_close(sock: socket.socket) -> None:
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


# -- trace propagation: protocol ----------------------------------------

def test_traced_ask_yields_connected_span_tree():
    sink = SpanList()

    async def main():
        server = await started(trace=True, trace_sink=sink)
        try:
            host, port = server.address
            trace_id = new_trace_id()
            parent = new_span_id()
            async with await ServingClient.connect(host, port, "s") as client:
                full = await client.ask_full(
                    ASK, traceparent=format_traceparent(trace_id, parent))
                assert full["trace_id"] == trace_id
        finally:
            await server.stop()

    run(main())
    assert len(sink.spans) == 1
    root = sink.spans[0]
    assert root.name == "request[ask]"
    assert root.attrs["trace_id"] and root.attrs["parent_span_id"]
    assert root.attrs["outcome"] == "ok"
    # The engine's per-ask span forest grafted under the request span:
    # one connected tree from the request down to the engine strata.
    assert root.children, "engine spans did not parent under the request"
    names = {span.name for child in root.children for span in [child]}
    assert "query" in names
    assert root.find("query")[0].children  # strata/evaluate below query
    # Renderable by the existing Perfetto (Chrome trace) exporter.
    events = chrome_trace_events([root])
    assert len(events) >= 3
    assert events[0]["name"] == "request[ask]"
    assert all(event["ph"] == "X" for event in events)


def test_server_mints_ids_without_client_traceparent():
    sink = SpanList()

    async def main():
        server = await started(trace=True, trace_sink=sink)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                first = await client.ask_full(ASK)
                second = await client.ask_full(ASK)
                assert first["trace_id"] != second["trace_id"]
                assert len(first["trace_id"]) == 32
        finally:
            await server.stop()

    run(main())
    roots = {span.attrs["trace_id"] for span in sink.spans}
    assert len(roots) == 2


def test_invalid_traceparent_is_bad_request():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                with pytest.raises(ServingCallError) as excinfo:
                    await client.ask_full(ASK, traceparent="00-bogus-beef-01")
                assert excinfo.value.code == "bad-request"
        finally:
            await server.stop()

    run(main())


def test_breakdown_sums_to_wall_time():
    sink = SpanList()

    async def main():
        server = await started(trace=True, trace_sink=sink)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                await client.ask(ASK)
        finally:
            await server.stop()

    run(main())
    root = sink.spans[0]
    parts = [root.attrs[key] for key in ("admission_s", "lock_wait_s",
                                         "pool_wait_s", "engine_s")]
    covered = sum(parts)
    # The breakdown accounts for the request's wall time: whatever is
    # not admission/lock/pool/engine is dispatch bookkeeping, and that
    # must stay below 10% of the request (acceptance criterion).
    assert covered <= root.elapsed_s + 1e-6
    assert covered >= 0.9 * root.elapsed_s, (covered, root.elapsed_s)
    assert root.attrs["rows"] >= 0 and root.attrs["probes"] >= 0


def _serial_counts(session, before):
    """One ask's rows, probes and EXPLAIN lines, from the cumulative
    ``last_stats()`` a serial session reports before and after it."""
    after = session.last_stats()
    firings0 = before.rule_firings if before is not None else {}
    rows = after.total_rows_derived - (
        before.total_rows_derived if before is not None else 0)
    probes = after.join_probes + after.batch_probes - (
        before.join_probes + before.batch_probes if before is not None else 0)
    fired = sorted(((count - firings0.get(label, 0), label)
                    for label, count in after.rule_firings.items()
                    if count > firings0.get(label, 0)), reverse=True)
    # The slow log cuts labels past 96 characters.
    explain = [f"{count}x {label if len(label) <= 96 else label[:93] + '...'}"
               for count, label in fired[:5]]
    return rows, probes, "\n".join(explain + [f"rows={rows} probes={probes}"])


@pytest.mark.parametrize("degraded", [False, True])
def test_request_counts_equal_serial_per_ask_counts(degraded):
    """The root span's rows/probes and the slow-log EXPLAIN sketch of one
    request are that ask's own counts: a plain ask twice (cold, then
    warm), and an overload-degraded ask whose first try fails mid-build
    and whose retry serves -- the request counts the retry alone."""
    from repro.multilog import MultiLogSession
    from repro.resilience import ResilientExecutor

    def faulted():
        plan = FaultPlan()
        # One transient failure in the shared semi-naive driver: the
        # first try dies building the least model, the retry builds it.
        plan.arm("rule-fire", error="transient")
        return plan

    engine = "reduction" if degraded else "operational"
    serial = MultiLogSession(D1_SOURCE, clearance="s")
    if degraded:
        serial.arm_faults(faulted())
    expected = []
    for _ in range(1 if degraded else 2):
        before = serial.last_stats()
        if degraded:
            ResilientExecutor(allow_partial=True).ask(serial, ASK, engine=engine)
            stats = serial.last_stats()
            assert (stats.retries, stats.degraded) == (1, None)
        else:
            serial.ask(ASK, engine=engine)
        expected.append(_serial_counts(serial, before))
    sink = SpanList()

    async def main():
        overrides = {"degrade_at": 0.0, "engine": engine} if degraded else {}
        server = await started(trace=True, trace_sink=sink,
                               slow_threshold_s=0.0, **overrides)
        try:
            if degraded:
                plan = faulted()

                def setup(session, _orig=server.pool._on_create):
                    _orig(session)
                    session.arm_faults(plan)

                server.pool._on_create = setup
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                for _ in expected:
                    assert (await client.ask_full(ASK))["complete"] is True
                entries = (await client.slowlog(clearance="s"))["entries"]
        finally:
            await server.stop()
        return entries

    entries = run(main())
    roots = [span for span in sink.spans if span.name == "request[ask]"]
    assert [(root.attrs["rows"], root.attrs["probes"]) for root in roots] \
        == [(rows, probes) for rows, probes, _ in expected]
    by_trace = {entry["trace_id"]: entry["explain"] for entry in entries}
    assert [by_trace[root.attrs["trace_id"]] for root in roots] \
        == [explain for _, _, explain in expected]
    # Each try is traced under the request; a failed one is aborted.
    tries = [[span.attrs.get("aborted", False) for span in root.find("query")]
             for root in roots]
    assert tries[-1] == ([True, False] if degraded else [False])


def test_budget_cut_ask_is_flagged_degraded():
    """An overload-degraded ask that the shed budget cuts is a partial
    answer, and says so: on the response, on the request's root span,
    on the try's own span and in ``degraded_total``."""
    from repro.datalog.engine import native_plan
    from repro.obs import EvaluationBudget

    sink = SpanList()

    async def main():
        server = await started(trace=True, trace_sink=sink, degrade_at=0.0,
                               engine="reduction",
                               shed_budget=EvaluationBudget(max_derived_rows=1))
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                response = await client.ask_full(ASK)
        finally:
            await server.stop()
        return response, server.stats.degraded_total, server.root.backend

    response, degraded_total, backend = run(main())
    plan = native_plan(backend)
    assert response["complete"] is False
    assert response["degraded"] == f"{plan}:budget-rows"
    assert degraded_total == 1
    [root] = [span for span in sink.spans if span.name == "request[ask]"]
    assert root.attrs["degraded"] is True
    [query] = root.find("query")
    assert (query.attrs["degraded"], query.attrs["rung"]) == (True, plan)


# -- trace propagation: HTTP shim ---------------------------------------

def _http_request_bytes(method: str, path: str, body: bytes | None = None,
                        extra: tuple[str, ...] = ()) -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    head.extend(extra)
    if body:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")


async def _read_http_response(reader) -> tuple[str, dict]:
    status_line = (await reader.readline()).decode("ascii")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line.strip():
            break
        name, _, value = line.decode("ascii").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers.get("content-length", 0)))
    return status_line.split(" ", 1)[1].strip(), json.loads(payload)


def test_http_traceparent_header_joins_the_trace():
    sink = SpanList()

    async def main():
        server = await started(trace=True, trace_sink=sink)
        await server.start_http()
        try:
            host, port = server.http_address
            trace_id = new_trace_id()
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps({"query": ASK, "clearance": "s"}).encode()
            writer.write(_http_request_bytes(
                "POST", "/v1/ask", body,
                extra=(f"traceparent: "
                       f"{format_traceparent(trace_id, new_span_id())}",
                       "Connection: close")))
            await writer.drain()
            status, response = await _read_http_response(reader)
            writer.close()
            assert status == "200 OK"
            assert response["trace_id"] == trace_id
        finally:
            await server.stop()

    run(main())
    assert sink.spans[0].attrs["trace_id"] == sink.spans[0].attrs["trace_id"]
    assert sink.spans[0].children


def test_http_pipelined_requests_get_distinct_trace_ids():
    async def main():
        server = await started(trace=True)
        await server.start_http()
        try:
            host, port = server.http_address
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps({"query": ASK, "clearance": "s"}).encode()
            # Three requests written back-to-back on one keep-alive
            # connection; responses come back in order, each with its
            # own server-minted trace id.
            for _ in range(3):
                writer.write(_http_request_bytes("POST", "/v1/ask", body))
            await writer.drain()
            trace_ids = []
            for _ in range(3):
                status, response = await _read_http_response(reader)
                assert status == "200 OK"
                trace_ids.append(response["trace_id"])
            writer.close()
            assert len(set(trace_ids)) == 3
        finally:
            await server.stop()

    run(main())


def test_disconnect_mid_ask_closes_root_span_aborted():
    sink = SpanList()

    async def main():
        server = await started(trace=True, trace_sink=sink)
        try:
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
            rst_close(sock)
            await wait_for(lambda: server.stats.cancelled_total == 1)
            await wait_for(lambda: len(sink.spans) == 1)
        finally:
            await server.stop()

    run(main())
    root = sink.spans[0]
    assert root.attrs["outcome"] == "cancelled"
    assert root.attrs["aborted"] is True


# -- slow-query capture and lattice redaction ----------------------------

def test_slow_log_captures_and_redacts_by_clearance():
    async def main():
        server = await started(slow_threshold_s=0.0, trace=True)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                await client.ask(ASK, clearance="s")
                # Viewed at the clearance it ran at: full content.
                high = await client.slowlog(clearance="s")
                assert high["enabled"] is True
                entry = high["entries"][0]
                assert entry["redacted"] is False
                assert entry["query"] == ASK
                assert entry["spans"] and entry["explain"]
                # Viewed from below: metadata only, no content fields.
                low = await client.slowlog(clearance="u")
                shadow = low["entries"][0]
                assert shadow["redacted"] is True
                assert "query" not in shadow
                assert "spans" not in shadow
                assert "explain" not in shadow
                assert "answers" not in json.dumps(shadow)
                assert ASK not in json.dumps(shadow)
                # Operational metadata survives redaction.
                assert shadow["trace_id"] == entry["trace_id"]
                assert shadow["outcome"] == "ok"
                assert shadow["elapsed_ms"] >= 0
                # Every capture left an audit event.
                events = [event for event in await client.audit()
                          if event["kind"] == "slow_capture"]
                assert len(events) == 1
                assert events[0]["subject"] == "s"
        finally:
            await server.stop()

    run(main())


def test_slow_log_captures_errors_and_caps_the_ring():
    async def main():
        server = await started(slow_threshold_s=30.0, slow_capacity=2)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                # Fast ok asks are NOT captured (threshold is high)...
                await client.ask(ASK)
                assert (await client.slowlog(clearance="s"))["entries"] == []
                # ...but errors always are, newest first, ring-bounded.
                for index in range(3):
                    with pytest.raises(ServingCallError):
                        await client.ask_full(f"nonsense {index} <<")
                response = await client.slowlog(clearance="s")
                assert len(response["entries"]) == 2
                assert response["captured_total"] == 3
                assert all(entry["outcome"] == "bad-query"
                           for entry in response["entries"])
                assert response["entries"][0]["query"] == "nonsense 2 <<"
                limited = await client.slowlog(limit=1, clearance="s")
                assert len(limited["entries"]) == 1
        finally:
            await server.stop()

    run(main())


def test_slowlog_disabled_reports_disabled():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                response = await client.slowlog()
                assert response["enabled"] is False
                assert response["entries"] == []
        finally:
            await server.stop()

    run(main())


def test_slow_log_fails_closed_without_lattice():
    log = SlowLog(threshold_s=0.0)
    log.capture(trace_id="t", op="ask", level="s", outcome="ok",
                elapsed_s=1.0, breakdown={}, query="secret query")
    [entry] = log.view("s")  # no lattice attached: redact even for "s"
    assert entry["redacted"] is True
    assert "query" not in entry
    [entry] = log.view(None)
    assert entry["redacted"] is True


def test_http_debug_slow_route():
    async def main():
        server = await started(slow_threshold_s=0.0)
        await server.start_http()
        try:
            host, port = server.http_address
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps({"query": ASK, "clearance": "s"}).encode()
            writer.write(_http_request_bytes("POST", "/v1/ask", body))
            writer.write(_http_request_bytes(
                "GET", "/v1/debug/slow?limit=1&clearance=s",
                extra=("Connection: close",)))
            await writer.drain()
            status, _ask = await _read_http_response(reader)
            assert status == "200 OK"
            status, slow = await _read_http_response(reader)
            writer.close()
            assert status == "200 OK"
            assert slow["enabled"] is True
            assert len(slow["entries"]) == 1
            assert slow["entries"][0]["query"] == ASK
        finally:
            await server.stop()

    run(main())


# -- access log ----------------------------------------------------------

def test_access_log_schema_and_no_query_text(tmp_path):
    path = tmp_path / "access.jsonl"

    async def main():
        server = await started(access_log=str(path))
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                await client.ask(ASK)
                await client.assert_clause("u[p(k9 : a -u-> 9)].")
                with pytest.raises(ServingCallError):
                    await client.ask_full("not a query <<")
        finally:
            await server.stop()

    run(main())
    lines = [json.loads(line)
             for line in path.read_text().splitlines() if line]
    assert len(lines) == 3
    by_outcome = {line["outcome"]: line for line in lines}
    ok_ask = lines[0]
    assert ok_ask["op"] == "ask" and ok_ask["outcome"] == "ok"
    assert set(ok_ask) >= {"ts", "trace_id", "op", "clearance", "outcome",
                           "elapsed_s", "breakdown", "degraded", "shed",
                           "breaker", "engine", "version", "answers"}
    assert set(ok_ask["breakdown"]) == {"admission_s", "lock_wait_s",
                                        "pool_wait_s", "engine_s"}
    assert lines[1]["op"] == "assert" and lines[1]["outcome"] == "ok"
    assert by_outcome["bad-query"]["op"] == "ask"
    # Distinct requests, distinct trace ids; never any query text.
    assert len({line["trace_id"] for line in lines}) == 3
    raw = path.read_text()
    assert ASK not in raw
    assert "not a query" not in raw


def test_access_log_rotates_and_closes(tmp_path):
    path = tmp_path / "access.jsonl"

    async def main():
        server = await started(access_log=str(path),
                               access_log_max_bytes=512,
                               access_log_max_files=2)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                for _ in range(12):
                    await client.ask(ASK)
        finally:
            await server.stop()
        assert server.access_log is not None
        assert server.access_log.closed
        assert server.access_log.rotations >= 1

    run(main())
    assert path.exists()
    assert path.with_name("access.jsonl.1").exists()


# -- SLO burn-rate monitors ----------------------------------------------

def test_slo_burn_rate_math_with_fake_clock():
    now = [0.0]
    tracker = SLOTracker(target=0.99, fast_window_s=60.0,
                         slow_window_s=3600.0, buckets=60,
                         clock=lambda: now[0])
    for _ in range(99):
        tracker.record("ask", True)
    tracker.record("ask", False)
    rates = tracker.burn_rates()["ask"]
    # 1% bad over a 1% error budget: burning at exactly 1x.
    assert rates["fast"] == pytest.approx(1.0, abs=0.01)
    assert rates["slow"] == pytest.approx(1.0, abs=0.01)
    # The fast window forgets after its 60s; the slow window remembers.
    now[0] += 120.0
    tracker.record("ask", True)
    rates = tracker.burn_rates()["ask"]
    assert rates["fast"] == 0.0
    assert rates["slow"] > 0.0
    # Untracked ops are ignored, not materialized.
    tracker.record("metrics", False)
    assert "metrics" not in tracker.burn_rates()
    detail = tracker.detail()["ask"]
    assert detail["slow"]["bad"] == 1
    assert detail["slow"]["window_s"] == 3600.0


def test_slo_latency_objective_counts_slow_oks_as_bad():
    async def main():
        # An impossible latency objective: every ok request is "bad".
        server = await started(slo_latency_s=0.0)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                await client.ask(ASK)
            assert server.stats.slo is not None
            assert server.stats.slo.burn_rates()["ask"]["fast"] > 0.0
        finally:
            await server.stop()

    run(main())


def test_metrics_exposition_has_slo_pool_and_lock_families():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                await client.ask(ASK)
                await client.assert_clause("u[p(k8 : a -u-> 8)].")
                text = await client.metrics()
            assert "multilog_serving_slo_target 0.99" in text
            assert ('multilog_serving_slo_burn_rate{op="ask",window="fast"}'
                    in text)
            assert "multilog_serving_pool_wait_seconds_count" in text
            assert ('multilog_serving_lock_wait_seconds_count{side="read"}'
                    in text)
            assert ('multilog_serving_lock_wait_seconds_count{side="write"}'
                    in text)
            assert "multilog_serving_write_queue_depth 0" in text
        finally:
            await server.stop()

    run(main())


def test_healthz_reports_slo_detail():
    async def main():
        server = await started()
        await server.start_http()
        try:
            host, port = server.http_address
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps({"query": ASK, "clearance": "s"}).encode()
            writer.write(_http_request_bytes("POST", "/v1/ask", body))
            writer.write(_http_request_bytes("GET", "/healthz",
                                             extra=("Connection: close",)))
            await writer.drain()
            status, _ask = await _read_http_response(reader)
            status, health = await _read_http_response(reader)
            writer.close()
            assert status == "200 OK"
            assert health["slo"]["target"] == 0.99
            ask_slo = health["slo"]["ops"]["ask"]
            assert ask_slo["fast"]["good"] == 1
            assert ask_slo["fast"]["burn_rate"] == 0.0
        finally:
            await server.stop()

    run(main())


# -- every error exit feeds the latency histogram ------------------------

def _serve_count(server, op: str) -> int:
    histogram = server.stats.histograms.get(f"serve[{op}]")
    return histogram.count if histogram is not None else 0


def test_shed_and_quota_exits_are_observed():
    async def main():
        server = await started(max_inflight=0)  # everything sheds
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                with pytest.raises(ServingCallError) as excinfo:
                    await client.ask_full(ASK)
                assert excinfo.value.code == "shed"
            assert _serve_count(server, "ask") == 1
        finally:
            await server.stop()

    run(main())


def test_breaker_rejections_are_observed():
    async def main():
        server = await started()
        try:
            breaker = server._breakers["ask"]
            for _ in range(breaker.threshold):
                breaker.record_failure()
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                with pytest.raises(ServingCallError) as excinfo:
                    await client.ask_full(ASK)
                assert excinfo.value.code == "breaker-open"
            assert _serve_count(server, "ask") == 1
        finally:
            await server.stop()

    run(main())


def test_undecodable_requests_are_observed_as_invalid():
    async def main():
        server = await started()
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["code"] == "bad-request"
            writer.write(b'{"op": "teleport"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["code"] == "unknown-op"
            writer.close()
            assert _serve_count(server, "invalid") >= 2
        finally:
            await server.stop()

    run(main())


def test_deadline_exits_are_observed():
    async def main():
        server = await started()
        try:
            plan = FaultPlan()
            plan.arm("query", action="delay", delay_s=0.4, times=None)

            def setup(session, _orig=server.pool._on_create):
                _orig(session)
                session.arm_faults(plan)

            server.pool._on_create = setup
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                with pytest.raises(ServingCallError) as excinfo:
                    await client.ask_full(ASK, timeout_s=0.05)
                assert excinfo.value.code == "deadline"
            assert server.stats.deadline_total == 1
            assert _serve_count(server, "ask") == 1
        finally:
            await server.stop()

    run(main())
