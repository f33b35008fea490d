"""Backend differential tests: dict and columnar answers are identical.

The columnar backend re-implements storage with interned codes, column
arrays and batch hash joins, and its native ``vectorized`` plan
re-implements rule firing with whole-delta pipelines.  These tests pin
both to the row semantics: every {dict, columnar} x {native, naive}
combination must produce the same total model on the golden corner
corpus, on random workloads, and on interleaved session assert/ask
traces.
"""

import pytest

from repro.datalog import (
    BACKEND_ENV,
    ColumnarDatabase,
    Database,
    evaluate,
    make_database,
    parse_program,
    resolve_backend,
)
from repro.datalog.engine import native_plan
from repro.errors import DatalogError
from repro.multilog import MultiLogSession
from repro.obs.explain import explain_program
from repro.workloads.generator import random_datalog_program

from .test_compiled_differential import CORNER_CASES, full_model

#: Every (naive, backend) pair that must agree; ``naive=False`` runs the
#: backend's native plan (compiled on dict, vectorized on columnar).
MATRIX = [
    (True, "dict"),
    (False, "dict"),
    (True, "columnar"),
    (False, "columnar"),
]

RANDOM_CASES = [
    (shape, seed)
    for shape in ("chain", "tree", "random")
    for seed in range(4)
]


def models_for(text):
    return [
        full_model(evaluate(parse_program(text), naive=naive, backend=backend))
        for naive, backend in MATRIX
    ]


@pytest.mark.parametrize("text", CORNER_CASES)
def test_corner_cases_agree_across_backends(text):
    models = models_for(text)
    for model, (naive, backend) in zip(models[1:], MATRIX[1:]):
        assert model == models[0], f"naive={naive}/{backend} diverged"


@pytest.mark.parametrize("shape,seed", RANDOM_CASES)
def test_random_programs_agree_across_backends(shape, seed):
    text = random_datalog_program(6 + (seed % 9), shape, seed=seed)
    models = models_for(text)
    for model, (naive, backend) in zip(models[1:], MATRIX[1:]):
        assert model == models[0], f"naive={naive}/{backend} diverged"


class TestBackendSelection:
    def test_make_database_dispatches(self):
        assert isinstance(make_database("dict"), Database)
        assert isinstance(make_database("columnar"), ColumnarDatabase)
        assert make_database("columnar").backend == "columnar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(DatalogError):
            resolve_backend("rowstore")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "columnar")
        assert resolve_backend() == "columnar"
        db = evaluate(parse_program("e(a, b). p(X) :- e(X, Y)."))
        assert db.backend == "columnar"
        # ... and so does the plan the backend picks.
        assert native_plan() == "vectorized"
        assert native_plan("dict") == "compiled"
        # An explicit argument still wins over the environment.
        assert resolve_backend("dict") == "dict"

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "parquet")
        with pytest.raises(DatalogError):
            resolve_backend()


class TestColumnarStore:
    def test_interning_collapses_equal_values(self):
        # 1, 1.0 and True are equal (and hash alike) in Python; the dict
        # backend's sets collapse them, so the intern table must too.
        db = ColumnarDatabase()
        db.add("n", (1,))
        db.add("n", (1.0,))
        db.add("n", (True,))
        assert len(db) == 1
        assert db.rows("n") == {(1,)}

    def test_add_facts_bulk_load_bumps_version_once(self):
        for db in (Database(), ColumnarDatabase()):
            before = db.version
            added = db.add_facts("e", [("a", "b"), ("b", "c"), ("a", "b")])
            assert added == 2
            assert db.version == before + 1
            assert db.rows("e") == {("a", "b"), ("b", "c")}
            # A no-op load (all duplicates) does not bump at all.
            assert db.add_facts("e", [("a", "b")]) == 0
            assert db.version == before + 1

    def test_batch_counters_move_under_vectorized(self):
        text = """
        edge(a, b). edge(b, c). edge(c, d).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), edge(Z, Y).
        """
        db = evaluate(parse_program(text), backend="columnar")
        assert db.batch_probe_count > 0
        assert db.batch_build_count > 0


class TestExplainBackend:
    PROGRAM = """
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    """

    def test_dict_plans_are_row_loops(self):
        text = explain_program(parse_program(self.PROGRAM), backend="dict")
        assert "row loop" in text
        assert "batch hash join" not in text

    def test_columnar_plans_are_batch_pipelines(self):
        text = explain_program(parse_program(self.PROGRAM), backend="columnar")
        assert "batch hash join" in text
        assert "row loop" not in text


MLOG_SOURCE = """
level(u). level(s). order(u, s).
u[acct(alice : name -u-> alice)].
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""

#: An interleaved assert/ask trace: both sessions replay it in lockstep
#: and must agree after every step (cold and warm memo paths alike).
TRACE = [
    ("ask", "s[acct(alice : balance -C-> B)] << cau"),
    ("assert", "u[acct(bob : name -u-> bob)]."),
    ("assert", "u[acct(bob : balance -u-> 55)]."),
    ("ask", "s[acct(bob : balance -C-> B)] << cau"),
    ("ask", "s[acct(K : name -C-> V)] << opt"),
    ("assert", "s[acct(bob : balance -s-> 770)]."),
    ("ask", "s[acct(bob : balance -C-> B)] << cau"),
    ("ask", "s[acct(K : balance -C-> B)] << fir"),
]


def canon(answers):
    return sorted(tuple(sorted(a.items())) for a in answers)


class TestSessionBackend:
    @pytest.mark.parametrize("engine", ["operational", "reduction"])
    def test_interleaved_trace_agrees(self, engine):
        # Both backends pinned explicitly: the differential must hold
        # regardless of what MULTILOG_BACKEND says (the CI backend
        # matrix runs this file under both values).
        dict_session = MultiLogSession(MLOG_SOURCE, clearance="s",
                                       backend="dict")
        col_session = MultiLogSession(MLOG_SOURCE, clearance="s",
                                      backend="columnar")
        assert dict_session.backend == "dict"
        assert col_session.backend == "columnar"
        for step, (op, text) in enumerate(TRACE):
            if op == "assert":
                dict_session.assert_clause(text)
                col_session.assert_clause(text)
                continue
            expected = canon(dict_session.ask(text, engine=engine))
            got = canon(col_session.ask(text, engine=engine))
            assert got == expected, f"step {step}: {text!r} diverged"

    def test_columnar_stats_and_metrics_expose_batch_ops(self):
        session = MultiLogSession(MLOG_SOURCE, clearance="s",
                                  backend="columnar")
        session.enable_telemetry()
        session.ask("s[acct(alice : balance -C-> B)] << cau",
                    engine="reduction")
        stats = session.last_stats()
        assert stats.batch_probes > 0
        assert stats.batch_builds > 0
        assert "batch ops:" in stats.summary()
        text = session.metrics_text()
        assert "multilog_batch_probes_total" in text
        assert "multilog_batch_builds_total" in text

    def test_with_clearance_carries_the_backend(self):
        session = MultiLogSession(MLOG_SOURCE, clearance="s",
                                  backend="columnar")
        assert session.with_clearance("u").backend == "columnar"
