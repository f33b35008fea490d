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
            db = evaluate(program, strategy="vectorized", backend="columnar")
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
