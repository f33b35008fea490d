"""Built-in belief in the operational engine, checked against its definition.

``OperationalEngine.believed_cells`` decides cautious overriding in one
pass over the visible cells, grouped by (predicate, key, attribute), and
batches its ``cross_level_read`` audit emits.  Neither may change what
it returns or what it audits.  Two checks pin that down:

* a property test against a test-local copy of the quadratic definition
  (a row is overridden iff some visible row of the same slot has a
  strictly higher class), over chains and lattices with incomparable
  levels, all three built-in modes, and random cell sets with ties and
  polyinstantiation -- rows compared as lists, so order counts, and the
  audit trail compared byte for byte;
* a golden digest of every (level, mode, attribute) scan, its answers
  and the audit trail, on a seeded database shaped like the serving
  benchmark's ``belief_scans`` workload, recorded with the quadratic
  implementation.
"""

import hashlib
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import antichain_with_bounds, chain, diamond
from repro.multilog import MultiLogSession, OperationalEngine, parse_database
from repro.obs import AuditLog
from repro.obs.context import ObsContext, current, use

LATTICES = {
    "chain": chain(["u", "c", "s", "t"]),
    "diamond": diamond(),
    "antichain": antichain_with_bounds(["a", "b", "c"]),
}


def _engine(lattice) -> OperationalEngine:
    levels = sorted(lattice.levels)
    source = "".join(f"level({level}). " for level in levels) + "".join(
        f"order({low}, {high}). "
        for low, high in itertools.permutations(levels, 2)
        if lattice.lt(low, high))
    return OperationalEngine(parse_database(source), min(lattice.tops()))


def _quadratic_believed_cells(engine, mode, level, cells):
    """The definition: compare every visible row with every other."""
    lattice = engine.lattice
    lattice.check_level(level)
    if mode == "fir":
        return [row for row in cells if row[5] == level]
    visible = [row for row in cells if lattice.leq(row[5], level)]
    audit = current().audit
    if audit.enabled:
        for row in visible:
            if row[5] != level:
                audit.emit("cross_level_read", subject=level, object=row[5],
                           mode=mode, predicate=row[0])
    if mode == "opt":
        return visible

    def outranked(row):
        return any(other[:3] == row[:3] and lattice.lt(row[4], other[4])
                   for other in visible)

    if audit.enabled:
        for row in visible:
            if outranked(row):
                audit.emit("override", subject=level, object=row[4],
                           mode="cau", predicate=row[0], attribute=row[2])
    return [row for row in visible if not outranked(row)]


@st.composite
def belief_cases(draw):
    shape = draw(st.sampled_from(sorted(LATTICES)))
    levels = sorted(LATTICES[shape].levels)
    # Few predicates, keys, attributes and values, so slots collide:
    # ties (equal classes) and polyinstantiation (several values per
    # slot) are the common case, not the exception.
    row = st.tuples(st.sampled_from(["p", "q"]), st.sampled_from(["k0", "k1", "k2"]),
                    st.sampled_from(["a1", "a2"]), st.sampled_from(["v0", "v1", "v2"]),
                    st.sampled_from(levels), st.sampled_from(levels))
    rows = draw(st.lists(row, max_size=30, unique=True))
    mode = draw(st.sampled_from(["fir", "opt", "cau"]))
    level = draw(st.sampled_from(levels))
    return shape, {r: stamp for stamp, r in enumerate(rows)}, mode, level


@given(belief_cases())
@settings(max_examples=300, deadline=None)
def test_believed_cells_match_the_definition(case):
    shape, cells, mode, level = case
    engine = _engine(LATTICES[shape])
    expected_log, actual_log = AuditLog(), AuditLog()
    with use(ObsContext(audit=expected_log)):
        expected = _quadratic_believed_cells(engine, mode, level, cells)
    with use(ObsContext(audit=actual_log)):
        actual = engine.believed_cells(mode, level, cells)
    assert actual == expected
    assert actual_log.to_jsonl() == expected_log.to_jsonl()
    assert engine.believed_cells(mode, level, cells) == expected  # audit off


# ----------------------------------------------------------------------
# Golden digest on a belief_scans-shaped database
# ----------------------------------------------------------------------
LEVELS = ("l0", "l1", "l2", "l3")
MODES = ("fir", "opt", "cau")
ATTRIBUTES = ("a1", "a2")

#: sha256 of :func:`_scan_record` (seed 2), recorded with the quadratic
#: ``believed_cells`` and one audit emit per row on both engines.
GOLDEN_DIGEST = "a10c45d4bf426af3ed0f9e8976061e2db74d3dafbe100832fbd256957fb1c140"


def _belief_scans_source(seed: int, tuples: int = 400, keys: int = 200,
                         belief_rules: int = 12) -> str:
    """A four-level chain database: every valid (key class, tuple class,
    attribute classes) template equally often, two tuples per key, and
    level-acyclic belief rules cycling through the three modes."""
    rng = random.Random(f"belief_scans/source/{seed}")
    n = len(LEVELS)
    shapes = [(kc, tc, c1, c2)
              for kc in range(n) for tc in range(kc, n)
              for c1 in range(kc, tc + 1) for c2 in range(kc, tc + 1)]
    drawn = shapes * (tuples // len(shapes))
    rng.shuffle(drawn)
    lines = [f"level({level})." for level in LEVELS]
    lines += [f"order({low}, {high})." for low, high in zip(LEVELS, LEVELS[1:])]
    values: dict[tuple, str] = {}
    for index, (kc, tc, c1, c2) in enumerate(drawn):
        key = f"key{index % keys}"
        cells = [f"k -{LEVELS[kc]}-> {key}"]
        for attr, cls in zip(ATTRIBUTES, (c1, c2)):
            value = values.setdefault((key, kc, attr, cls), f"v{rng.randrange(10**6)}")
            cells.append(f"{attr} -{LEVELS[cls]}-> {value}")
        lines.append(f"{LEVELS[tc]}[p({key} : {'; '.join(cells)})].")
    pairs = list(itertools.combinations(LEVELS, 2))
    for index in range(belief_rules):
        low, high = pairs[index % len(pairs)]
        attr = ATTRIBUTES[(index // len(pairs)) % len(ATTRIBUTES)]
        mode = MODES[index % len(MODES)]
        lines.append(f"{high}[p(K : {attr} -{high}-> derived{index})] :- "
                     f"{low}[p(K : {attr} -C-> V)] << {mode}.")
    return "\n".join(lines) + "\n"


def _scan_record(seed: int) -> list:
    """Every operational scan at clearances l3 and l2, in order: its
    answers (in the order the engine returns them) and the session's
    whole audit trail after it; then, per clearance, one reduction-engine
    ask and its trail, which walks the whole least model."""
    source = _belief_scans_source(seed)
    record = []
    for clearance in ("l3", "l2"):
        session = MultiLogSession(source, clearance)
        audit = session.enable_audit()
        for level in LEVELS[:LEVELS.index(clearance) + 1]:
            for mode in MODES:
                for attr in ATTRIBUTES:
                    query = f"{level}[p(K : {attr} -C-> V)] << {mode}"
                    answers = session.ask(query)
                    record.append([clearance, query, answers, audit.to_jsonl()])
        reduced = MultiLogSession(source, clearance)
        audit = reduced.enable_audit()
        query = f"{clearance}[p(K : a1 -C-> V)] << cau"
        # The model's rows come out of sets, so the answers' and the
        # trail's order vary with the string hash seed; their content
        # and counts do not.
        answers = sorted(reduced.ask(query, engine="reduction"), key=str)
        record.append([clearance, query, answers,
                       sorted(audit.to_jsonl().splitlines())])
    return record


def _digest(record: list) -> str:
    text = json.dumps(record, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def test_belief_scans_answers_and_trail_match_golden():
    assert _digest(_scan_record(seed=2)) == GOLDEN_DIGEST
