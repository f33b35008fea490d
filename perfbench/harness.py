"""Drive an in-process MultiLogServer over the JSON protocol.

Two connections form a closed loop in lock-step rounds: each round sends
one request per connection and waits for both replies before the next
round starts.  The seed therefore fixes the multiset of requests, their
order and which requests overlap; only the host's speed decides how many
rounds fit in the measured time.

Timing covers the rounds only.  Canonicalising answers for the oracle,
classifying samples and everything else between rounds runs off the
clock, so the throughput and CPU figures count server and client work
and nothing of the benchmark's bookkeeping.
"""

from __future__ import annotations

import asyncio
import gc
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time
from typing import NamedTuple

from repro.serving import MultiLogServer, ServerConfig, ServingClient

from workloads import Op, Spec, warmup


class Sample(NamedTuple):
    """One request as the client saw it.

    Every field is an atomic value, so the garbage collector stops
    tracking a sample after its first pass: the tens of thousands a run
    keeps must not lengthen the collections the server pays for.
    """

    conn: int
    op: str
    text: str
    latency_s: float
    #: ``ok`` and, for an ask, ``complete`` and not degraded.
    served: bool
    version: int | None
    #: index of the ask's canonical answer set in ``Recorder.answer_sets``
    #: (-1 for asserts and errors).
    answers: int
    #: ``fresh`` (first ask of this connection at its version), ``warm``
    #: (a later ask at that version) or ``assert``.
    kind: str
    phase: str
    round: int
    code: str | None = None


def canonical(answers: list[dict]) -> frozenset:
    """Answers as a set of sorted ``(variable, value)`` tuples."""
    return frozenset(tuple(sorted(answer.items())) for answer in answers)


@dataclass
class Recorder:
    """Samples of one server's life, plus the version bookkeeping that
    tells fresh asks from warm ones."""

    samples: list[Sample] = field(default_factory=list)
    #: per connection, the versions it has asked at.
    seen: tuple[set, set] = field(default_factory=lambda: (set(), set()))
    #: distinct canonical answer sets, indexed by ``Sample.answers``.
    answer_sets: list[frozenset] = field(default_factory=list)
    _answer_ids: dict = field(default_factory=dict)

    def classify(self, conn: int, op: str, version: int | None) -> str:
        """``assert``, or ``fresh``/``warm`` for an ask at ``version``."""
        if op == "assert":
            return "assert"
        seen = self.seen[conn]
        if version in seen:
            return "warm"
        seen.add(version)
        return "fresh"

    def answers_of(self, sample: Sample) -> frozenset | None:
        return self.answer_sets[sample.answers] if sample.answers >= 0 else None

    def record(self, conn: int, request: Op, latency_s: float,
               response: dict, phase: str, round_index: int) -> None:
        ok = bool(response.get("ok"))
        answers = -1
        if ok and request.op == "ask":
            canon = canonical(response.get("answers", []))
            answers = self._answer_ids.get(canon)
            if answers is None:
                answers = self._answer_ids[canon] = len(self.answer_sets)
                self.answer_sets.append(canon)
        served = ok and (request.op != "ask" or (
            response.get("complete") is True and not response.get("degraded")))
        version = response.get("version")
        kind = self.classify(conn, request.op, version) if ok else request.op
        self.samples.append(Sample(
            conn, request.op, request.text, latency_s, served, version,
            answers, kind, phase, round_index,
            None if ok else str(response.get("code"))))


@dataclass
class Live:
    """A started server and its two connected clients."""

    server: MultiLogServer | None
    clients: list[ServingClient]
    base_version: int
    recorder: Recorder
    #: the tracer whose spans get stamped with the current round.
    tracer: object = None

    async def close(self) -> None:
        """Stop the server and drop it: a finished server's heap must not
        stay behind for the collector to scan during later phases."""
        for client in self.clients:
            await client.close()
        await self.server.stop()
        self.server = None
        self.clients = []


async def _timed(client: ServingClient, payload: dict) -> tuple[float, dict]:
    started = perf_counter()
    response = await client.request(payload)
    return perf_counter() - started, response


async def run_round(live: Live, ops: tuple[Op | None, Op | None],
                    phase: str, round_index: int) -> tuple[float, float]:
    """Send one round; returns its (wall, process CPU) seconds."""
    if live.tracer is not None:
        live.tracer.round = round_index
    pending = [(conn, op) for conn, op in enumerate(ops) if op is not None]
    wall, cpu = perf_counter(), process_time()
    results = await asyncio.gather(*(
        _timed(live.clients[conn], op.payload()) for conn, op in pending))
    wall, cpu = perf_counter() - wall, process_time() - cpu
    for (conn, op), (latency, response) in zip(pending, results):
        live.recorder.record(conn, op, latency, response, phase, round_index)
    return wall, cpu


def server_config(spec: Spec, journal: Path | None) -> ServerConfig:
    """Server defaults (audit on, tracing off) plus the workload's engine,
    storage backend and journal."""
    return ServerConfig(engine=spec.engine, backend=spec.backend,
                        journal=str(journal) if journal is not None else None)


async def set_up(spec: Spec, source: str, journal: Path | None,
                 recorder: Recorder, tracer=None) -> tuple[Live, float]:
    """Start a server on ``source`` and answer its warm-up pass.

    Returns the live server and the set-up time: from handing the text
    to a new server until the last warm-up ask is answered.
    """
    gc.collect()
    started = perf_counter()
    server = MultiLogServer(source, server_config(spec, journal))
    host, port = await server.start()
    clients = [await ServingClient.connect(host, port, clearance=level)
               for level in spec.clearances]
    live = Live(server, clients, int(clients[0].hello["version"]), recorder,
                tracer)
    passes = [warmup(spec, conn) for conn in (0, 1)]
    for index in range(max(map(len, passes))):
        ops = tuple(p[index] if index < len(p) else None for p in passes)
        await run_round(live, ops, "setup", -1)
    return live, perf_counter() - started


@dataclass
class Window:
    """Round time, process CPU time and served ops of one slice of a
    measured phase."""

    #: the round the window starts at.
    first_round: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    served: int = 0


#: seconds of round time per window of a measured phase.
WINDOW_S = 1.0


@dataclass
class Phase:
    """A measured phase, cut into windows of about ``WINDOW_S`` seconds
    of round time."""

    rounds: int = 0
    windows: list[Window] = field(default_factory=list)
    #: resident set size read by ``measure`` after ``rss_round`` rounds.
    rss: float | None = None

    def window_of(self, round_index: int) -> int:
        return bisect_right([w.first_round for w in self.windows],
                            round_index) - 1

    def throughput(self) -> float:
        """Served ops per second: the median over the windows, so a
        burst of host steal that hits one window does not move it."""
        return median([w.served / w.wall_s for w in self.windows])

    def cpu_ms_per_op(self) -> float:
        """Process CPU milliseconds per served op, median over windows."""
        return median([1000 * w.cpu_s / w.served for w in self.windows])

    async def measure(self, live: Live, rounds, seconds: float, cycle: int,
                      rss_round: int | None = None) -> None:
        """Run rounds for ``seconds`` of round time, in windows of whole
        ``cycle``-round stretches: every window holds the same multiset
        of request classes.

        With ``rss_round``, the resident set size is read once that many
        rounds are answered, off the clock.  The traffic served by then,
        and the benchmark's own samples of it, are the same whatever the
        speed of the host or the program.  A run too slow to get there
        in ``seconds`` serves the missing rounds after the phase, outside
        its windows.
        """
        gc.collect()
        window = Window(self.rounds)
        elapsed = 0.0
        while elapsed < seconds or self.rounds % cycle:
            ops = next(rounds)
            wall, cpu = await run_round(live, ops, "measure", self.rounds)
            self.rounds += 1
            window.wall_s += wall
            window.cpu_s += cpu
            window.served += sum(
                s.served for s in live.recorder.samples[-len(ops):])
            elapsed += wall
            if self.rounds == rss_round:
                self.rss = rss_mb()
            if self.rounds % cycle == 0 and (
                    window.wall_s >= min(WINDOW_S, seconds)
                    or elapsed >= seconds):
                self.windows.append(window)
                window = Window(self.rounds)
        if rss_round is not None and self.rss is None:
            for index in range(self.rounds, rss_round):
                await run_round(live, next(rounds), "settle", index)
            self.rss = rss_mb()


def rss_mb() -> float:
    """Resident set size of this process after a full collection, MiB."""
    gc.collect()
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


#: timings of the reference loop whose median ``reference_loop_ms`` gives.
REFERENCE_REPEATS = 5


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop that allocates the way the
    engines do (tuples, dict entries, lists): a host-speed gauge printed
    beside each run, so drift of the machine itself shows."""
    times = []
    gc.disable()  # time the host, not collections of this run's heap
    try:
        for _ in range(REFERENCE_REPEATS):
            started = perf_counter()
            table: dict[tuple, list] = {}
            for i in range(50_000):
                table.setdefault((i % 997, i % 13), []).append((i, str(i)))
            times.append(perf_counter() - started)
    finally:
        gc.enable()
    return median(times) * 1000
