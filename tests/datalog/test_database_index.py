"""Unit tests for composite indexes, selectivity-aware probing and the
version counter on :class:`repro.datalog.Database`."""

from repro.datalog import Database, atom


def make_skewed():
    """p/2 where column 0 is constant ('hot') and column 1 is distinct."""
    db = Database()
    for i in range(50):
        db.add("p", ("hot", f"k{i}"))
    return db


class TestSelectivityProbe:
    def test_probes_most_selective_bound_position(self):
        db = make_skewed()
        # Both positions bound: position 0's bucket holds all 50 rows,
        # position 1's holds exactly one -- the probe must pick column 1.
        rows = list(db.candidates(atom("p", "hot", "k7"), {}))
        assert rows == [("hot", "k7")]

    def test_skewed_probe_returns_small_bucket_not_hot_column(self):
        db = make_skewed()
        # A blindly-first-bound probe would scan the 50-row 'hot' bucket;
        # the selective probe must hand back a single-row candidate set.
        assert len(list(db.candidates(atom("p", "hot", "k3"), {}))) == 1

    def test_zero_bucket_short_circuits(self):
        db = make_skewed()
        assert list(db.candidates(atom("p", "cold", "X"), {})) == []

    def test_unbound_scans_all(self):
        db = make_skewed()
        assert len(list(db.candidates(atom("p", "X", "Y"), {}))) == 50


class TestCompositeIndex:
    def test_bucket_probe(self):
        db = Database()
        db.add("r", ("a", 1, "x"))
        db.add("r", ("a", 2, "x"))
        db.add("r", ("b", 1, "x"))
        assert sorted(db.bucket("r", (0, 1), ("a", 1))) == [("a", 1, "x")]
        assert sorted(db.bucket("r", (0, 2), ("a", "x"))) == [
            ("a", 1, "x"), ("a", 2, "x")]
        assert list(db.bucket("r", (0, 1), ("c", 9))) == []

    def test_index_stays_in_sync_after_adds(self):
        db = Database()
        db.add("r", ("a", 1))
        assert len(list(db.bucket("r", (0,), ("a",)))) == 1  # build lazily
        db.add("r", ("a", 2))  # incremental maintenance
        assert len(list(db.bucket("r", (0,), ("a",)))) == 2

    def test_copy_preserves_indexes_independently(self):
        db = Database()
        db.add("r", ("a", 1))
        db.index("r", (0,))
        clone = db.copy()
        clone.add("r", ("a", 2))
        assert len(list(clone.bucket("r", (0,), ("a",)))) == 2
        assert len(list(db.bucket("r", (0,), ("a",)))) == 1

    def test_columnar_copy_carries_projections_independently(self):
        from repro.datalog import ColumnarDatabase

        db = ColumnarDatabase()
        db.add_facts("r", [("a", 1), ("b", 2)])
        db.rows("r")
        db.index("r", (0,))
        db.batch_index("r", 2, (0,), (1,))
        clone = db.copy()
        table = clone._tables["r"][2]
        # Caught-up projections come along: nothing is rebuilt.
        assert table._decoded_upto == table._row_indexes[(0,)][1] == 2
        assert next(iter(table._batch_indexes.values()))[1] == 2
        builds = clone.batch_build_count
        clone.add("r", ("a", 3))
        assert sorted(row[1] for row in clone.bucket("r", (0,), ("a",))) == [1, 3]
        assert ("a", 3) in clone.rows("r")
        code = clone.probe_code("a")
        assert len(clone.batch_index("r", 2, (0,), (1,))[code]) == 2
        assert clone.batch_build_count == builds + 1  # extended, not rebuilt
        # The original is untouched, and growing it leaves the copy alone:
        # the two share index buckets until either appends to one.
        assert len(list(db.bucket("r", (0,), ("a",)))) == 1
        assert ("a", 3) not in db.rows("r")
        assert len(db.batch_index("r", 2, (0,), (1,))[db.probe_code("a")]) == 1
        db.add("r", ("b", 9))
        assert sorted(row[1] for row in db.bucket("r", (0,), ("b",))) == [2, 9]
        assert len(db.batch_index("r", 2, (0,), (1,))[db.probe_code("b")]) == 2
        assert [row[1] for row in clone.bucket("r", (0,), ("b",))] == [2]
        assert len(clone.batch_index("r", 2, (0,), (1,))[clone.probe_code("b")]) == 1

    def test_merge_maintains_indexes(self):
        a = Database()
        a.add("r", ("a", 1))
        a.index("r", (1,))
        b = Database()
        b.add("r", ("a", 1))  # duplicate: must not double-index
        b.add("r", ("b", 1))
        a.merge(b)
        assert len(a) == 2
        assert sorted(a.bucket("r", (1,), (1,))) == [("a", 1), ("b", 1)]


class TestVersionCounter:
    def test_version_bumps_on_new_fact_only(self):
        db = Database()
        v0 = db.version
        assert db.add("p", ("a",))
        assert db.version == v0 + 1
        assert not db.add("p", ("a",))  # duplicate: no bump
        assert db.version == v0 + 1

    def test_merge_bumps_per_fresh_row(self):
        a = Database()
        a.add("p", ("x",))
        b = Database()
        b.add("p", ("x",))
        b.add("p", ("y",))
        v = a.version
        a.merge(b)
        assert a.version == v + 1  # only ('y',) was new

    def test_copy_carries_version(self):
        db = Database()
        db.add("p", ("a",))
        assert db.copy().version == db.version


def test_columnar_projections_catch_up_once_under_threads():
    """A published least model is read by many threads at once; the first
    reads of a lazy projection must not append the same rows twice."""
    import sys
    import threading

    from repro.datalog import evaluate, parse_program

    program = parse_program(" ".join(f"e(n{i}, n{i % 50})." for i in range(5000)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            db = evaluate(program, backend="columnar")
            barrier = threading.Barrier(8, timeout=10)

            def first_reads():
                barrier.wait()
                db.index("e", (1,))
                db.batch_index("e", 2, (1,), (0,))
                db.column("e", 2, 0)

            threads = [threading.Thread(target=first_reads) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            assert sum(map(len, db.index("e", (1,)).values())) == 5000
            assert sum(map(len, db.batch_index("e", 2, (1,), (0,)).values())) == 5000
            assert len(db.column("e", 2, 0)) == 5000
    finally:
        sys.setswitchinterval(interval)


def test_columnar_copy_races_projection_catch_up():
    """A published model is copied (to build the next version's model)
    while readers catch its projections up: each copy must take every
    projection whole, with its watermark, or the copy's own catch-up
    appends the same rows twice."""
    import sys
    import threading

    from repro.datalog import evaluate, parse_program

    program = parse_program(" ".join(f"e(n{i}, n{i % 50})." for i in range(5000)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            db = evaluate(program, backend="columnar")
            barrier = threading.Barrier(8, timeout=10)
            copies = []

            def read():
                barrier.wait()
                db.index("e", (1,))
                db.batch_index("e", 2, (1,), (0,))
                db.column("e", 2, 0)

            def copy():
                barrier.wait()
                copies.append(db.copy())

            threads = [threading.Thread(target=read if index % 2 else copy)
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            assert len(copies) == 4
            for model in [db, *copies]:
                assert sum(map(len, model.index("e", (1,)).values())) == 5000
                assert sum(map(len, model.batch_index("e", 2, (1,), (0,)).values())) == 5000
                assert len(model.column("e", 2, 0)) == 5000
    finally:
        sys.setswitchinterval(interval)
