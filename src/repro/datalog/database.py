"""The fact store used by the bottom-up engine.

Facts are rows (tuples of Python values) grouped per predicate.  Two
index layers accelerate matching:

* lazy **composite hash indexes** over arbitrary position tuples -- the
  compiled join plans (:mod:`repro.datalog.plan`) request an index over
  exactly the positions their bound-argument masks cover, so a literal
  with ``k`` bound arguments probes one ``k``-column index instead of
  filtering a single-column bucket;
* **selectivity-aware probing** for the interpreted path --
  :meth:`Database.candidates` consults the bucket for *every* bound
  position and scans the smallest one, rather than blindly the first.

Every successful mutation bumps a monotone version counter; the memo
layers in :mod:`repro.cache` key cached views on it, so any insert
invalidates downstream caches without explicit wiring.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant
from repro.datalog.unify import Substitution, walk

Row = tuple[object, ...]

_EMPTY: tuple[Row, ...] = ()

#: index over ``positions``: maps a key tuple to the rows carrying it.
Index = dict[tuple, list[Row]]


class Database:
    """Mutable set of ground facts with composite per-position indexes."""

    __slots__ = ("_facts", "_indexes", "_version", "probe_count",
                 "candidate_calls", "__weakref__")

    #: registry name for the storage-backend seam (repro.datalog.storage).
    backend = "dict"
    #: batch-operator counters of the columnar backend; class-level zeros
    #: here so metrics readers can diff them uniformly on any backend.
    batch_probe_count = 0
    batch_build_count = 0
    batch_dedup_rows = 0

    def __init__(self) -> None:
        self._facts: dict[str, set[Row]] = {}
        # (predicate -> positions-tuple -> key-tuple -> rows)
        self._indexes: dict[str, dict[tuple[int, ...], Index]] = {}
        self._version = 0
        #: join-probe counter: total ``bucket()`` lookups (compiled plans
        #: and the interpreted path both land here).  Monotone; readers
        #: diff before/after an evaluation (see repro.obs.metrics).
        self.probe_count = 0
        #: total ``candidates()`` calls (the interpreted path's
        #: selectivity-aware probe selection).
        self.candidate_calls = 0

    @property
    def version(self) -> int:
        """Monotone counter bumped on every successful insert."""
        return self._version

    # ------------------------------------------------------------------
    def add(self, predicate: str, row: Row) -> bool:
        """Insert a fact; returns True when it was new."""
        rows = self._facts.setdefault(predicate, set())
        if row in rows:
            return False
        rows.add(row)
        self._version += 1
        indexes = self._indexes.get(predicate)
        if indexes:
            arity = len(row)
            for positions, index in indexes.items():
                if all(p < arity for p in positions):
                    key = tuple(row[p] for p in positions)
                    index.setdefault(key, []).append(row)
        return True

    def add_atom(self, atom: Atom) -> bool:
        return self.add(atom.predicate, atom.ground_tuple())

    def add_facts(self, predicate: str, rows: Iterable[Row]) -> int:
        """Bulk-insert rows for one predicate; returns how many were new.

        The fast path for loaders (program facts, journal replay,
        generated workloads): the fresh rows are computed with one set
        difference, already-materialized indexes are extended in a single
        pass, and the version counter is bumped **once** -- so memo
        layers keyed on ``version`` revalidate once per bulk load instead
        of once per row.
        """
        mine = self._facts.setdefault(predicate, set())
        fresh = set(rows) - mine
        if not fresh:
            return 0
        mine |= fresh
        self._version += 1
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                for row in fresh:
                    if all(p < len(row) for p in positions):
                        key = tuple(row[p] for p in positions)
                        index.setdefault(key, []).append(row)
        return len(fresh)

    def rows(self, predicate: str) -> set[Row]:
        return self._facts.get(predicate, set())

    def contains(self, predicate: str, row: Row) -> bool:
        return row in self._facts.get(predicate, ())

    def predicates(self) -> list[str]:
        return sorted(self._facts)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._facts.values())

    def copy(self) -> "Database":
        """An independent copy that keeps the already-built indexes."""
        out = Database()
        for predicate, rows in self._facts.items():
            out._facts[predicate] = set(rows)
        # Snapshots of the index maps: a published model may be building
        # a new index in another thread while it is copied.
        for predicate, indexes in list(self._indexes.items()):
            out._indexes[predicate] = {
                positions: {key: list(bucket) for key, bucket in index.items()}
                for positions, index in list(indexes.items())
            }
        out._version = self._version
        return out

    def merge(self, other: "Database") -> None:
        """Bulk-insert ``other``'s facts, maintaining indexes incrementally."""
        for predicate, rows in other._facts.items():
            self.add_facts(predicate, rows)

    # ------------------------------------------------------------------
    def index(self, predicate: str, positions: tuple[int, ...]) -> Index:
        """The (lazily built) composite index over ``positions``."""
        indexes = self._indexes.get(predicate)
        if indexes is None:
            indexes = self._indexes[predicate] = {}
        index = indexes.get(positions)
        if index is None:
            index = {}
            for row in self._facts.get(predicate, ()):
                if all(p < len(row) for p in positions):
                    index.setdefault(tuple(row[p] for p in positions), []).append(row)
            indexes[positions] = index
        return index

    def bucket(self, predicate: str, positions: tuple[int, ...], key: tuple) -> Iterable[Row]:
        """Rows whose values at ``positions`` equal ``key`` (index probe)."""
        self.probe_count += 1
        # Fast path: two lookups and nothing built once the index exists.
        indexes = self._indexes.get(predicate)
        index = indexes.get(positions) if indexes is not None else None
        if index is None:
            index = self.index(predicate, positions)
        return index.get(key, _EMPTY)

    def candidates(self, atom: Atom, subst: Substitution) -> Iterable[Row]:
        """Rows that could match ``atom`` under ``subst``.

        Probes the hash index for *every* bound argument position and
        scans the smallest bucket (the most selective probe); falls back
        to the full extension when every argument is free.
        """
        self.candidate_calls += 1
        best: Iterable[Row] | None = None
        best_size: int | None = None
        for position, term in enumerate(atom.args):
            term = walk(term, subst)
            if isinstance(term, Constant):
                bucket = self.bucket(atom.predicate, (position,), (term.value,))
                size = len(bucket)  # type: ignore[arg-type]
                if best_size is None or size < best_size:
                    best, best_size = bucket, size
                if size == 0:
                    break
        if best is not None:
            return best
        return self._facts.get(atom.predicate, ())

    def as_atoms(self) -> Iterator[Atom]:
        for predicate in sorted(self._facts):
            for row in sorted(self._facts[predicate], key=repr):
                yield Atom(predicate, tuple(Constant(v) for v in row))
