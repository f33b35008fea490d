"""Seeded inputs of the three serving workloads.

Everything the server receives is made here from ``--seed``: the
MultiLog source text and, per connection, the list of requests it sends
in lock-step rounds.  The *shape* of the inputs is the same for every
seed -- tuple count, the count of tuples per (key class, tuple class,
attribute classes) template, tuples per key, the belief rules, and the
share of each request class -- so a seed changes which keys, values and
orderings appear, never how much work there is.  That keeps run-to-run
spread down to what the host adds.  (``repro.workloads.generator`` draws
classifications per seed, so its shapes vary with the seed; these
generators are the benchmark's own for that reason, and so that a change
to the package cannot change the benchmark's inputs.)
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

#: the security lattice: a four-level chain l0 < l1 < l2 < l3.
LEVELS = ("l0", "l1", "l2", "l3")
MODES = ("fir", "opt", "cau")
ATTRIBUTES = ("a1", "a2")


@dataclass(frozen=True)
class Spec:
    """One workload: database shape, server settings and traffic mix."""

    name: str
    #: molecule facts in the generated database (a multiple of the
    #: template count, so every template occurs equally often).
    tuples: int
    #: distinct keys; each key carries ``tuples // keys`` tuples.
    keys: int
    #: level-acyclic belief rules added to the database.
    belief_rules: int
    engine: str
    backend: str
    journal: bool
    #: the clearance each of the two connections pins in ``hello``.
    clearances: tuple[str, str]
    #: ``point`` (bound-key asks) or ``scan`` (whole-relation asks).
    query_shape: str
    #: measured rounds after which ``rss_mb`` is read: a whole number of
    #: cycles, about a fifth of a 20-second run on a 2-vCPU VM.
    rss_rounds: int
    #: every ``assert_every``-th round both connections assert a fresh
    #: fact (0: the measured phase never writes).
    assert_every: int = 0


SPECS = {
    spec.name: spec for spec in (
        # Warm bound-key asks: about 0.2 ms of answer-rule work each, so
        # protocol, admission, lock, pool and executor hop dominate and
        # the fixpoint never reruns -- the bypass case for engine changes.
        Spec("point_reads", tuples=2000, keys=1000, belief_rules=0, engine="reduction",
             backend="dict", journal=False, clearances=("l3", "l1"),
             query_shape="point", rss_rounds=4800),
        # Whole-relation belief asks: operational belief evaluation and
        # responses of hundreds of answers dominate; nothing recomputes.
        Spec("belief_scans", tuples=400, keys=200, belief_rules=12, engine="operational",
             backend="dict", journal=False, clearances=("l3", "l2"),
             query_shape="scan", rss_rounds=288),
        # Asserts every fifth round: each version bump reruns
        # admissibility, translation and the fixpoint in both pooled
        # sessions -- the only working set that defeats the caches.
        Spec("write_mix", tuples=1000, keys=500, belief_rules=0, engine="reduction",
             backend="columnar", journal=True, clearances=("l3", "l3"),
             query_shape="point", rss_rounds=120, assert_every=5),
    )
}


def below(level: str) -> list[str]:
    """The levels of the chain at or below ``level``."""
    return list(LEVELS[:LEVELS.index(level) + 1])


def templates() -> list[tuple[int, int, int, int]]:
    """Every valid ``(key class, tuple class, a1 class, a2 class)``.

    Classes are chain indices with ``key <= a_i <= tuple``: the interval
    the multilevel integrity properties allow (50 templates on a chain
    of four).
    """
    n = len(LEVELS)
    return [(kc, tc, c1, c2)
            for kc in range(n) for tc in range(kc, n)
            for c1 in range(kc, tc + 1) for c2 in range(kc, tc + 1)]


def belief_rules(count: int) -> list[str]:
    """``count`` fixed level-acyclic belief rules (no seed involved).

    Each rule makes a higher level believe one attribute of every key
    seen at a lower level, in a mode cycling through fir/opt/cau; the
    head level strictly dominates the body level, so both semantics are
    total.
    """
    pairs = [(low, high) for low, high in itertools.combinations(LEVELS, 2)]
    rules = []
    for index in range(count):
        low, high = pairs[index % len(pairs)]
        attr = ATTRIBUTES[(index // len(pairs)) % len(ATTRIBUTES)]
        mode = MODES[index % len(MODES)]
        rules.append(f"{high}[p(K : {attr} -{high}-> derived{index})] :- "
                     f"{low}[p(K : {attr} -C-> V)] << {mode}.")
    return rules


def generate_source(spec: Spec, seed: int) -> str:
    """The MultiLog source text of ``spec``'s database for ``seed``."""
    rng = random.Random(f"{spec.name}/source/{seed}")
    shapes = templates()
    if spec.tuples % len(shapes) or spec.tuples % spec.keys:
        raise ValueError(f"{spec.name}: tuples must be a multiple of "
                         f"{len(shapes)} and of keys")
    drawn = shapes * (spec.tuples // len(shapes))
    rng.shuffle(drawn)
    lines = [f"level({level})." for level in LEVELS]
    lines += [f"order({low}, {high})." for low, high in zip(LEVELS, LEVELS[1:])]
    # One value per (key, key class, attribute, class): the functional
    # dependency AK, C_AK, C_i -> A_i of the multilevel model.
    values: dict[tuple, str] = {}
    for index, (kc, tc, c1, c2) in enumerate(drawn):
        key = f"key{index % spec.keys}"
        cells = [f"k -{LEVELS[kc]}-> {key}"]
        for attr, cls in zip(ATTRIBUTES, (c1, c2)):
            value = values.setdefault((key, kc, attr, cls),
                                      f"v{rng.randrange(10**6)}")
            cells.append(f"{attr} -{LEVELS[cls]}-> {value}")
        lines.append(f"{LEVELS[tc]}[p({key} : {'; '.join(cells)})].")
    lines += belief_rules(spec.belief_rules)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One request: ``ask`` a query or ``assert`` a clause."""

    op: str
    text: str
    #: engine an ask names (``None``: the server's default).
    engine: str | None = None

    def payload(self) -> dict:
        field = "query" if self.op == "ask" else "clause"
        payload = {"op": self.op, field: self.text}
        if self.engine is not None:
            payload["engine"] = self.engine
        return payload


def _point(level: str, key: str, attr: str, mode: str) -> Op:
    return Op("ask", f"{level}[p({key} : {attr} -C-> V)] << {mode}")


def _scan(level: str, attr: str, mode: str) -> Op:
    return Op("ask", f"{level}[p(K : {attr} -C-> V)] << {mode}")


def warmup(spec: Spec, conn: int) -> list[Op]:
    """One ask per (level, mode) class of connection ``conn``."""
    return [_point(level, "key0", "a1", mode) if spec.query_shape == "point"
            else _scan(level, "a1", mode)
            for level in below(spec.clearances[conn]) for mode in MODES]


def _block(spec: Spec, conn: int) -> list[tuple[str, str, str]]:
    """The (level, mode, attribute) ask classes of connection ``conn``."""
    return [(level, mode, attr) for level in below(spec.clearances[conn])
            for mode in MODES for attr in ATTRIBUTES]


def cycle(spec: Spec) -> int:
    """Rounds after which both connections have sent whole blocks of
    ask classes and whole assert periods: every run of ``cycle`` rounds
    holds the same multiset of request classes."""
    period = spec.assert_every or 1
    asks_per_period = period - 1 if spec.assert_every else 1
    rounds = [math.lcm(len(_block(spec, conn)), asks_per_period)
              // asks_per_period * period for conn in (0, 1)]
    return math.lcm(*rounds)


def _asks(spec: Spec, seed: int, conn: int):
    """Endless asks of one connection, in shuffled blocks that hold each
    (level, mode, attribute) class exactly once, so every whole block
    keeps the class shares exact."""
    rng = random.Random(f"{spec.name}/asks/{seed}/{conn}")
    classes = _block(spec, conn)
    while True:
        block = classes[:]
        rng.shuffle(block)
        for level, mode, attr in block:
            if spec.query_shape == "scan":
                yield _scan(level, attr, mode)
            else:
                yield _point(level, f"key{rng.randrange(spec.keys)}", attr, mode)


def _asserts(spec: Spec, seed: int, conn: int):
    """Endless fresh facts asserted by connection ``conn``, each at the
    connection's own clearance."""
    rng = random.Random(f"{spec.name}/asserts/{seed}/{conn}")
    level = spec.clearances[conn]
    for index in itertools.count():
        key = f"new{conn}x{index}"
        yield Op("assert", f"{level}[p({key} : k -{level}-> {key}; "
                           f"a1 -{level}-> w{rng.randrange(10**6)})].")


def rounds(spec: Spec, seed: int):
    """Endless lock-step rounds: one request per connection each."""
    asks = [_asks(spec, seed, conn) for conn in (0, 1)]
    asserts = [_asserts(spec, seed, conn) for conn in (0, 1)]
    for index in itertools.count():
        if spec.assert_every and index % spec.assert_every == spec.assert_every - 1:
            yield next(asserts[0]), next(asserts[1])
        else:
            yield next(asks[0]), next(asks[1])


def probe_rounds(spec: Spec, seed: int, count: int) -> list[tuple[Op | None, Op | None]]:
    """``count`` rounds of the write probe a traced run uses when the
    measured phase has no asserts.  One connection asserts per round,
    alternating, so no assert waits on the other's write lock and the
    latency is one assert's."""
    asserts = [_asserts(spec, seed, conn) for conn in (0, 1)]
    return [(next(asserts[0]), None) if index % 2 == 0
            else (None, next(asserts[1])) for index in range(count)]


def other_engine_round(spec: Spec) -> tuple[Op, Op]:
    """Each connection's first warm-up ask, on the engine the workload
    does not serve with (Theorem 6.1: the answers must not change)."""
    other = "operational" if spec.engine == "reduction" else "reduction"
    return tuple(Op("ask", warmup(spec, conn)[0].text, other)
                 for conn in (0, 1))
