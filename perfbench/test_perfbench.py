"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import Recorder, canonical  # noqa: E402
from oracle import Oracle, Verdict  # noqa: E402
from stats import mode_edge, percentile, quartiles, spread  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SPECS, Op, cycle, generate_source, rounds, templates, warmup)

TINY = dataclasses.replace(SPECS["write_mix"], name="tiny", tuples=50,
                           keys=25, backend="dict", journal=False)


# -- percentile ranks ---------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 100) == 10
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)


def test_percentile_never_interpolates_between_modes():
    values = [1.0] * 50 + [100.0] * 50
    assert percentile(values, 50) == 1.0
    assert mode_edge(values, 50) == 100.0
    assert mode_edge(values, 20) == 1.0


def test_quartiles_and_spread_match_statistics():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, median, q3 = quartiles(values)
    assert median == 14.5
    assert spread(values) == pytest.approx((q3 - q1) / median)


# -- schedules ----------------------------------------------------------
def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_seed_gives_identical_inputs(name):
    spec = SPECS[name]
    assert generate_source(spec, 7) == generate_source(spec, 7)
    assert _take(rounds(spec, 7), 300) == _take(rounds(spec, 7), 300)
    assert generate_source(spec, 7) != generate_source(spec, 8)
    assert _take(rounds(spec, 7), 300) != _take(rounds(spec, 8), 300)


def _level_counts(source: str) -> Counter:
    return Counter(line.split("[", 1)[0] for line in source.splitlines()
                   if "[p(key" in line)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_seed_changes_content_not_shape(name):
    spec = SPECS[name]
    assert _level_counts(generate_source(spec, 1)) == \
        _level_counts(generate_source(spec, 2))
    assert sum(_level_counts(generate_source(spec, 1)).values()) == spec.tuples


def test_every_ask_class_is_equally_frequent():
    spec = SPECS["belief_scans"]
    classes = 4 * 3 * 2  # levels at or below l3, modes, attributes
    asks = Counter(ops[0].text for ops in _take(rounds(spec, 3), 5 * classes))
    assert len(asks) == classes
    assert set(asks.values()) == {5}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_cycle_holds_the_same_request_classes(name):
    spec = SPECS[name]
    length = cycle(spec)
    stream = rounds(spec, 5)

    def classes(ops):
        # a request's class is its text with the key and values left out
        return Counter(re.sub(r"(key|new|w|v)\d+(x\d+)?", "#", op.text)
                       for pair in ops for op in pair)

    first = classes(_take(stream, length))
    assert classes(_take(stream, length)) == first
    assert classes(_take(stream, length)) == first


def test_write_mix_asserts_on_every_fifth_round():
    spec = SPECS["write_mix"]
    kinds = [tuple(op.op for op in ops) for ops in _take(rounds(spec, 1), 10)]
    assert kinds[4] == kinds[9] == ("assert", "assert")
    assert all(kind == ("ask", "ask") for i, kind in enumerate(kinds)
               if i not in (4, 9))


def test_templates_respect_the_class_intervals():
    assert len(templates()) == 50
    assert all(kc <= c1 <= tc and kc <= c2 <= tc
               for kc, tc, c1, c2 in templates())


# -- fresh against warm -------------------------------------------------
def test_first_ask_per_connection_and_version_is_fresh():
    recorder = Recorder()
    assert recorder.classify(0, "ask", 1) == "fresh"
    assert recorder.classify(0, "ask", 1) == "warm"
    assert recorder.classify(1, "ask", 1) == "fresh"
    assert recorder.classify(0, "assert", 2) == "assert"
    assert recorder.classify(0, "ask", 3) == "fresh"
    assert recorder.classify(0, "ask", 3) == "warm"
    assert recorder.classify(0, "ask", 1) == "warm"


# -- the oracle ---------------------------------------------------------
def _serial_answers(source: str, level: str, query: str, clauses=()):
    from repro.multilog.session import MultiLogSession

    root = MultiLogSession(source, backend=TINY.backend)
    for clause in clauses:
        root.assert_clause(clause)
    return root.with_clearance(level).ask(query, engine=TINY.engine)


def _ok(answers, version):
    return {"ok": True, "answers": answers, "version": version,
            "complete": True}


def test_oracle_accepts_right_answers_and_flags_a_corrupted_one():
    source = generate_source(TINY, 1)
    query = "l3[p(K : a1 -C-> V)] << opt"
    answers = _serial_answers(source, "l3", query)
    assert len(answers) > 1
    recorder = Recorder()
    recorder.record(0, Op("ask", query), 0.001, _ok(answers, 1), "measure", 0)
    recorder.record(1, Op("ask", query), 0.001, _ok(answers[1:], 1),
                    "measure", 0)
    verdict = Oracle(TINY, source).check(recorder, 1, Verdict())
    assert (verdict.attempted, verdict.failed) == (2, 1)
    assert "serial session" in verdict.problems[0]


def test_oracle_checks_asks_at_the_version_of_each_assert():
    source = generate_source(TINY, 1)
    clause = "l3[p(fresh : k -l3-> fresh; a1 -l3-> w1)]."
    query = "l3[p(fresh : a1 -C-> V)] << fir"
    after = _serial_answers(source, "l3", query, [clause])
    assert after == [{"C": "l3", "V": "w1"}]
    recorder = Recorder()
    recorder.record(0, Op("ask", query), 0.001, _ok([], 1), "measure", 0)
    recorder.record(0, Op("assert", clause), 0.001,
                    {"ok": True, "version": 2}, "measure", 1)
    recorder.record(1, Op("ask", query), 0.001, _ok(after, 2), "measure", 2)
    recorder.record(0, Op("ask", query), 0.001, _ok([], 2), "measure", 2)
    verdict = Oracle(TINY, source).check(recorder, 1, Verdict())
    assert (verdict.attempted, verdict.failed) == (4, 1)


def test_oracle_counts_refused_and_degraded_responses_as_failed():
    source = generate_source(TINY, 1)
    query = "l1[p(K : a1 -C-> V)] << cau"
    recorder = Recorder()
    recorder.record(0, Op("ask", query), 0.001,
                    {"ok": False, "code": "shed"}, "measure", 0)
    recorder.record(0, Op("ask", query), 0.001,
                    dict(_ok([], 1), complete=False, degraded="x"),
                    "measure", 1)
    verdict = Oracle(TINY, source).check(recorder, 1, Verdict())
    assert (verdict.attempted, verdict.failed) == (2, 2)


def test_canonical_answers_ignore_order():
    assert canonical([{"A": 1, "B": 2}, {"A": 3, "B": 4}]) == \
        canonical([{"B": 4, "A": 3}, {"B": 2, "A": 1}])


# -- the tracer ---------------------------------------------------------
def test_tracer_reports_a_vanished_target_as_absent_and_restores():
    from repro.multilog import session as session_module

    original = session_module.MultiLogSession.ask
    targets = (("session.ask", "repro.multilog.session", "MultiLogSession.ask"),
               ("gone", "repro.multilog.session", "NoSuchThing.method"),
               ("gone.module", "repro.no_such_module", "f"))
    with Tracer(targets) as tracer:
        assert session_module.MultiLogSession.ask is not original
        session = session_module.MultiLogSession(generate_source(TINY, 1))
        session.ask("l3[p(key1 : a1 -C-> V)] << fir")
    assert session_module.MultiLogSession.ask is original
    assert tracer.absent == ["gone", "gone.module"]
    assert [span.name for span in tracer.spans] == ["session.ask"]


def test_journal_bytes_are_per_append_across_a_compaction(tmp_path):
    from repro.multilog.session import MultiLogSession
    from repro.resilience.journal import SessionJournal

    session = MultiLogSession(generate_source(TINY, 1))
    journal = SessionJournal(tmp_path / "wal.jsonl")
    targets = (("journal.append", "repro.resilience.journal",
                "SessionJournal.append_clause"),)
    clause = "l3[p(new0x0 : k -l3-> new0x0; a1 -l3-> w1)]."
    with Tracer(targets) as tracer:
        journal.append_clause(clause, 1)
        appended = journal.path.stat().st_size
        journal.compact(session.database)
        compacted = journal.path.stat().st_size
        journal.append_clause(clause, 2)
    journal.close()
    assert compacted != appended
    first, second = (span.extra for span in tracer.spans)
    assert first == appended
    assert second == journal.path.stat().st_size - compacted > 0


def test_self_time_subtracts_children():
    tracer = Tracer(())

    def inner():
        return sum(range(20000))

    def outer():
        return wrapped_inner() + sum(range(20000))

    wrapped_inner = tracer._wrap("inner", inner)
    tracer._wrap("outer", outer)()
    outer_span, inner_span = tracer.spans
    assert inner_span.parent is outer_span and outer_span.parent is None
    selfs = tracer.self_times()
    assert selfs[0] == pytest.approx(outer_span.duration - inner_span.duration)
    assert tracer.under(1, "outer") and not tracer.under(0, "inner")


# -- a whole (tiny) run -------------------------------------------------
def test_a_short_run_serves_and_checks_every_request(tmp_path):
    import run

    bench = run.Run(TINY, 1, tmp_path)
    metrics, shape = asyncio.run(run.untraced(bench, 0.3))
    verdict = bench.verdict()
    assert verdict.failed == 0 and verdict.attempted > 20
    assert set(metrics) == {"setup_s", "ask_p50_ms", "ask_p90_ms",
                            "throughput_ops_s", "cpu_ms_per_op", "rss_mb"}
    assert all(value > 0 for value, _unit, _n in metrics.values())
    assert shape["asserts"] > 0
    assert len(warmup(TINY, 0)) == 12


def test_a_short_traced_run_times_every_layer(tmp_path):
    import run

    bench = run.Run(TINY, 2, tmp_path)
    metrics, _shape = asyncio.run(run.traced(bench, 0.3))
    assert bench.verdict().failed == 0
    timed = {name: value for name, (value, unit, _n) in metrics.items()
             if unit in ("ms", "us")}
    # the workload runs no operational engine; the probe's asks do
    assert metrics["operational.solve_ms"][0] > 0
    assert metrics["journal.bytes"][0] > 0
    assert all(value > 0 for name, value in timed.items()
               if name not in ("session.serving_overhead_ms",)), timed
