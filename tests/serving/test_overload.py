"""Overload protection: deadlines, per-clearance quotas, circuit
breakers, retry hints and graceful drain."""

from __future__ import annotations

import asyncio

from repro.serving import MultiLogServer, ServerConfig, ServingClient
from repro.serving.breaker import STATE_CODES, CircuitBreaker
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


# -- the circuit breaker state machine (fake clock: fully deterministic) -

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_breaker_trips_half_opens_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=2, reset_s=5.0, clock=clock)
    assert breaker.state == "closed"
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed"  # one failure is not a pattern
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    assert 0 < breaker.retry_after() <= 5.0
    clock.now += 5.0  # reset window elapses
    assert breaker.state == "half-open"
    assert breaker.allow()  # exactly one probe gets through
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, reset_s=2.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now += 2.5
    assert breaker.allow()  # half-open probe
    breaker.record_failure()  # the probe failed
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.opened_total == 2


def test_breaker_probe_release_frees_the_slot():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, reset_s=2.0, clock=clock)
    breaker.record_failure()
    clock.now += 2.5
    assert breaker.allow()  # claim the half-open probe
    assert breaker.probing
    assert not breaker.allow()
    breaker.release_probe()  # the probe ended with no health verdict
    assert breaker.state == "half-open"
    assert not breaker.probing
    assert breaker.allow()  # the slot is free for a fresh probe
    breaker.record_success()
    assert breaker.state == "closed"


def test_breaker_state_codes_cover_every_state():
    assert STATE_CODES == {"closed": 0, "half-open": 1, "open": 2}
    breaker = CircuitBreaker()
    assert breaker.state_code == 0
    assert breaker.describe().startswith("closed")


# -- deadline propagation ------------------------------------------------

def test_request_deadline_trips_with_the_deadline_code():
    async def main():
        server = await started()
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                response = await client.request(
                    {"op": "ask", "query": ASK, "timeout_s": 1e-9})
                assert response["ok"] is False
                assert response["code"] == "deadline"
            assert server.stats.deadline_total == 1
        finally:
            await server.stop()

    run(main())


def test_degraded_ask_past_its_deadline_answers_deadline_not_a_partial():
    # A degraded ask folds the deadline into the shed budget; the run it
    # cuts short is still the client's deadline, not a budget partial.
    async def main():
        server = await started(degrade_at=0.0)
        try:
            host, port = server.address
            async with await ServingClient.connect(host, port, "s") as client:
                response = await client.request(
                    {"op": "ask", "query": ASK, "timeout_s": 1e-9})
                assert response["ok"] is False
                assert response["code"] == "deadline"
                # Without a deadline the same degraded ask completes.
                full = await client.ask_full(ASK)
                assert full["complete"] is True
            assert server.stats.deadline_total == 1
            assert server.stats.degraded_total == 0
        finally:
            await server.stop()

    run(main())


def test_hello_timeout_is_the_connection_default_and_requests_override():
    async def main():
        server = await started()
        try:
            host, port = server.address
            client = await ServingClient.connect(host, port, "s",
                                                 timeout_s=1e-9)
            # Inherited from hello: the ask dies on the connection deadline.
            response = await client.request({"op": "ask", "query": ASK})
            assert response["code"] == "deadline"
            # A per-request deadline overrides the pinned one.
            full = await client.ask_full(ASK, timeout_s=30.0)
            assert full["complete"] is True
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_server_default_timeout_applies_when_nothing_else_named_one():
    async def main():
        server = await started(default_timeout_s=1e-9)
        try:
            response = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert response["code"] == "deadline"
        finally:
            await server.stop()

    run(main())


def test_assert_deadline_fires_waiting_for_the_write_lock():
    async def main():
        server = await started()
        try:
            before = server.root.database.version
            # A held read lock parks the writer (write-preferring lock).
            gate = server._rw.read()
            await gate.__aenter__()
            task = asyncio.create_task(server.dispatch(
                {"op": "assert", "clause": "u[p(k9 : a -u-> 9)].",
                 "clearance": "s", "timeout_s": 0.01}))
            await asyncio.sleep(0.1)  # let the deadline lapse while parked
            await gate.__aexit__(None, None, None)
            response = await task
            assert response["code"] == "deadline"
            assert "clause not applied" in response["error"]
            assert server.root.database.version == before
            assert server.stats.deadline_total == 1
        finally:
            await server.stop()

    run(main())


# -- per-clearance admission quotas --------------------------------------

def test_clearance_quota_caps_one_level_without_starving_others():
    async def main():
        server = await started(clearance_quotas={"u": 1})
        try:
            # One unclassified request already in flight...
            server.stats.inflight = 1
            server.stats.inflight_by_clearance["u"] = 1
            response = await server.dispatch(
                {"op": "ask", "query": "u[p(K : a -C-> V)] << cau",
                 "clearance": "u"})
            assert response["code"] == "quota"
            assert response["retry_after"] == 1.0
            assert server.stats.quota_shed_total == 1
            # ...but other clearances still share the global cap.
            ok = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert ok["ok"] is True
            server.stats.inflight = 0
            server.stats.inflight_by_clearance.clear()
        finally:
            await server.stop()

    run(main())


def test_shed_response_carries_retry_after_on_the_json_protocol():
    async def main():
        server = await started()
        try:
            server.stats.inflight = server.config.max_inflight
            response = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            server.stats.inflight = 0
            assert response["code"] == "shed"
            assert response["retry_after"] == 1.0
        finally:
            await server.stop()

    run(main())


# -- the breaker wired into the serving path -----------------------------

def test_repeated_internal_failures_open_the_ask_breaker():
    async def main():
        server = await started(breaker_threshold=2, breaker_reset_s=60.0)
        try:
            def explode(*args, **kwargs):
                raise RuntimeError("engine crashed")

            server._run_ask = explode
            for _ in range(2):
                response = await server.dispatch(
                    {"op": "ask", "query": ASK, "clearance": "s"})
                assert response["code"] == "internal"
            rejected = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert rejected["code"] == "breaker-open"
            assert rejected["retry_after"] > 0
            assert server.stats.breaker_rejected_total == 1
            assert server.health == "degraded"
            # The assert path has its own breaker: writes still flow.
            ok = await server.dispatch(
                {"op": "assert", "clause": "u[p(k8 : a -u-> 8)].",
                 "clearance": "s"})
            assert ok["ok"] is True
        finally:
            await server.stop()

    run(main())


def test_client_attributable_errors_never_count_against_the_breaker():
    async def main():
        server = await started(breaker_threshold=1, breaker_reset_s=60.0)
        try:
            for _ in range(3):
                response = await server.dispatch(
                    {"op": "ask", "query": "p((", "clearance": "s"})
                assert response["code"] == "bad-query"
            deadline = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s",
                 "timeout_s": 1e-9})
            assert deadline["code"] == "deadline"
            assert server._breakers["ask"].state == "closed"
            ok = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert ok["ok"] is True
        finally:
            await server.stop()

    run(main())


def test_verdictless_probe_outcomes_do_not_wedge_the_breaker():
    # Regression: a half-open probe that exited without reaching a
    # server-health verdict (admission denial, client error, client
    # deadline) used to leak the probe slot, leaving the breaker
    # rejecting every request with breaker-open until restart.
    async def main():
        server = await started(breaker_threshold=1, breaker_reset_s=0.0)
        try:
            def explode(*args, **kwargs):
                raise RuntimeError("engine crashed")

            server._run_ask = explode
            failed = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert failed["code"] == "internal"
            del server._run_ask  # restore the real engine path
            breaker = server._breakers["ask"]
            assert breaker.state == "half-open"  # reset_s=0: probe allowed

            # Probe 1 dies on admission control (runs after allow()).
            server._draining = True
            denied = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert denied["code"] == "draining"
            server._draining = False

            # Probe 2 is a client error; probe 3 the client's deadline.
            bad = await server.dispatch(
                {"op": "ask", "query": "p((", "clearance": "s"})
            assert bad["code"] == "bad-query"
            late = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s",
                 "timeout_s": 1e-9})
            assert late["code"] == "deadline"

            # None of those wedged the slot: a real probe still gets
            # through, succeeds and closes the breaker.
            ok = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert ok["ok"] is True
            assert breaker.state == "closed"
        finally:
            await server.stop()

    run(main())


# -- graceful drain ------------------------------------------------------

def test_drain_stops_admission_and_takes_a_final_checkpoint(tmp_path):
    async def main():
        server = MultiLogServer(D1_SOURCE, ServerConfig(
            clearance="s", journal=str(tmp_path / "wal.jsonl"),
            checkpoint_records=None, checkpoint_bytes=None))
        await server.start()
        try:
            for key in ("k6", "k7"):
                ok = await server.dispatch(
                    {"op": "assert", "clause": f"u[p({key} : a -u-> 1)].",
                     "clearance": "s"})
                assert ok["ok"] is True
            assert await server.drain(timeout_s=1.0) is True
            assert server.health == "draining"
            assert server.stats.checkpoints_total == 1
            rejected = await server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"})
            assert rejected["code"] == "draining"
            assert rejected["retry_after"] == 1.0
            # The final checkpoint collapsed the journal to open+snapshot.
            lines = (tmp_path / "wal.jsonl").read_text().splitlines()
            assert len(lines) == 2
        finally:
            await server.stop()

    run(main())


def test_drain_reports_false_when_inflight_outlives_the_deadline():
    async def main():
        server = await started()
        try:
            gate = server._rw.write()
            await gate.__aenter__()
            task = asyncio.create_task(server.dispatch(
                {"op": "ask", "query": ASK, "clearance": "s"}))
            await wait_for(lambda: server.stats.inflight == 1)
            assert await server.drain(timeout_s=0.1) is False
            await gate.__aexit__(None, None, None)
            response = await task  # the straggler still completes
            assert response["ok"] is True
        finally:
            await server.stop()

    run(main())


# -- dashboard coverage --------------------------------------------------

def test_metrics_expose_breakers_quotas_and_new_counters():
    server = MultiLogServer(D1_SOURCE, clearance="s")
    server.stats.inflight_by_clearance["s"] = 2
    text = server.metrics_text()
    for needle in (
        'multilog_serving_breaker_state{op="ask"} 0',
        'multilog_serving_breaker_state{op="assert"} 0',
        'multilog_serving_breaker_opened_total{op="ask"} 0',
        'multilog_serving_inflight_by_clearance{clearance="s"} 2',
        "multilog_serving_quota_shed_total 0",
        "multilog_serving_deadline_total 0",
        "multilog_serving_cancelled_total 0",
        "multilog_serving_checkpoints_total 0",
    ):
        assert needle in text, f"missing {needle!r}"
