"""The serving ``/metrics`` exposition, byte for byte.

Built from hand-fed stats (fixed counters, fixed histogram samples, a
fake clock for the breakers and the SLO windows) so the text is fully
deterministic; every family the dashboard can emit appears once.
"""

from __future__ import annotations

from pathlib import Path

from repro.serving.breaker import CircuitBreaker
from repro.serving.requestlog import SLOTracker
from repro.serving.server import ServingStats

GOLDEN = Path(__file__).with_name("golden_serving_metrics.txt")


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


class FakePool:
    def stats(self) -> dict:
        return {"s": {"busy": 2, "free": 1}, "u": {"busy": 0, "free": 3}}


def golden_text() -> str:
    stats = ServingStats()
    for index, (name, _help) in enumerate(ServingStats.COUNTERS):
        setattr(stats, name, 3 * index + 1)
    stats.inflight = 4
    stats.connections = 7
    stats.inflight_by_clearance.update({"u": 1, "s": 3, 'we"ird': 0})
    for seconds in (0.0004, 0.003, 0.003, 0.2, 12.0):
        stats.observe("ask", seconds)
    stats.observe("assert", 0.05)
    stats.observe("bogus-op", 0.001)  # filed under ``invalid``
    stats.observe_pool_wait(0.0002)
    stats.observe_lock_wait("read", 0.0001)
    stats.observe_lock_wait("write", 0.02)
    clock = FakeClock()
    stats.slo = SLOTracker(target=0.99, fast_window_s=60.0,
                           slow_window_s=3600.0, clock=clock)
    for good in (True, True, False, True):
        stats.slo.record("ask", good)
    stats.slo.record("assert", True)
    breakers = {op: CircuitBreaker(threshold=1, reset_s=5.0, clock=clock)
                for op in ("ask", "assert")}
    breakers["assert"].record_failure()  # open
    return stats.render_prometheus(pool=FakePool(), breakers=breakers,
                                   write_queue_depth=2)


def test_serving_metrics_golden():
    assert golden_text() == GOLDEN.read_text()
