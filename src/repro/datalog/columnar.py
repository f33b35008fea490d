"""The columnar storage backend: dictionary-encoded batch relations.

Facts live per ``(predicate, arity)`` table as **interned constant
codes** -- every distinct value (by Python equality, exactly the dedup
relation of the dict backend's ``set[Row]``) is assigned one small int,
so rows are tuples of ints, hash joins key on ints, and equality guards
compare ints.  Each table keeps a coded-row spine (insertion order) and
projects per-position column arrays from it lazily (``columns``); the
spine is what batch operators stream, the columns serve whole-column
scans without re-walking rows.

Two API layers:

* the row-level :class:`~repro.datalog.storage.StorageBackend` contract
  (``rows``/``bucket``/``candidates``/``contains``/``add``...), speaking
  *decoded* values so the naive oracle and the answer rules run
  unchanged against this store;
* a batch layer for the native ``vectorized`` plans
  (:mod:`repro.datalog.plan`'s :class:`~repro.datalog.plan.BatchRule`):
  ``batch_index`` builds (and incrementally extends) a hash table from
  coded key columns to projected keep-tuples, ``insert_coded``
  bulk-inserts a derived batch with one set-difference dedup and a single
  version bump, ``coded_rows``/``coded_set`` expose whole relations as
  coded batches.

Every cache (decoded rows, row-level probe indexes, batch hash tables)
is maintained **lazily by watermark**: each remembers how many rows of
its table it has absorbed and catches up on access, so inserts are O(1)
amortized regardless of how many indexes exist -- the same trick the
dict backend plays with its composite indexes, lifted to column batches.

Counters: ``batch_probe_count`` (one per batch probe operation, i.e. per
join op per firing -- not per row), ``batch_build_count`` (hash-table
builds/extensions that processed rows) and ``batch_dedup_rows`` (rows a
bulk insert dropped as duplicates) feed the observability stack next to
the row-level ``probe_count``/``candidate_calls``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator

from repro.datalog.atoms import Atom
from repro.datalog.database import Row, _EMPTY
from repro.datalog.terms import Constant
from repro.datalog.unify import Substitution, walk

#: coded batch: rows of one (predicate, arity) table as tuples of codes.
CodedRow = tuple[int, ...]

_EMPTY_SET: frozenset = frozenset()


class _Table:
    """One ``(predicate, arity)`` relation: coded-row spine + projections.

    The spine is ``_coded_list`` (rows as code tuples, insertion order)
    plus ``coded`` (the same rows as a set: the dedup relation and
    anti-join target).  Column arrays, decoded rows, row-level probe
    indexes and batch hash tables are all *projections* of the spine,
    maintained lazily by watermark -- inserts append to the spine in
    O(1) per row no matter how many projections exist, and each
    projection catches up on its next access.  (Appends must stay this
    cheap: a fixpoint round inserts a whole derived batch, and eagerly
    transposing million-row batches dominated vectorized runtime.)
    """

    __slots__ = ("arity", "coded", "n", "_coded_list", "_columns",
                 "_columns_upto", "_decoded", "_decoded_upto",
                 "_row_indexes", "_batch_indexes", "_lock")

    def __init__(self, arity: int):
        self.arity = arity
        #: coded-row set -- the dedup relation and anti-join target.
        self.coded: set[CodedRow] = set()
        #: row count (drives every watermark).
        self.n = 0
        #: the spine: coded rows in insertion order.
        self._coded_list: list[CodedRow] = []
        #: dictionary-encoded column arrays + watermark (lazy projection).
        self._columns: tuple[list[int], ...] = tuple([] for _ in range(arity))
        self._columns_upto = 0
        #: decoded value rows + watermark (row-level ``rows()`` view).
        self._decoded: set[Row] = set()
        self._decoded_upto = 0
        #: row-level probe indexes: positions -> [key -> decoded rows,
        #: upto, owned] (``owned``: see :func:`_share_indexes`).
        self._row_indexes: dict[tuple[int, ...], list] = {}
        #: batch hash tables: (key_pos, keep_pos, eq_pairs) ->
        #: [key -> list of keep-tuples, upto, owned].
        self._batch_indexes: dict[tuple, list] = {}
        #: held while a projection catches up: a published least model is
        #: read by many threads, and two catching up at once would append
        #: the same rows twice.
        self._lock = threading.Lock()

    def coded_rows(self) -> list[CodedRow]:
        """All rows as coded tuples, insertion order (the spine itself)."""
        return self._coded_list

    def columns(self) -> tuple[list[int], ...]:
        """Per-position code arrays, caught up to the spine on access."""
        if self._columns_upto < self.n:
            with self._lock:
                tail = self._coded_list[self._columns_upto:]
                for position, column in enumerate(self._columns):
                    column.extend([row[position] for row in tail])
                self._columns_upto = self.n
        return self._columns

    def append(self, fresh) -> None:
        """Append pre-deduplicated coded rows to the spine (O(1)/row)."""
        self._coded_list.extend(fresh)
        self.n = len(self._coded_list)


class ColumnarDatabase:
    """Column-array fact store with interned constants and batch joins."""

    __slots__ = ("_intern", "_values", "_tables", "_version", "probe_count",
                 "candidate_calls", "batch_probe_count", "batch_build_count",
                 "batch_dedup_rows", "__weakref__")

    backend = "columnar"

    def __init__(self) -> None:
        #: value -> code, keyed on Python equality: ``1``/``1.0``/``True``
        #: canonicalize to one code, exactly as they collapse to one
        #: element in the dict backend's ``set[Row]`` -- the property the
        #: byte-identical-answers guarantee rests on.
        self._intern: dict[object, int] = {}
        #: code -> first-inserted representative value.
        self._values: list[object] = []
        self._tables: dict[str, dict[int, _Table]] = {}
        self._version = 0
        self.probe_count = 0
        self.candidate_calls = 0
        self.batch_probe_count = 0
        self.batch_build_count = 0
        self.batch_dedup_rows = 0

    @property
    def version(self) -> int:
        """Monotone counter bumped on every successful mutation."""
        return self._version

    # -- encoding ----------------------------------------------------------
    def encode_value(self, value: object) -> int:
        """The code for ``value``, interning it on first sight."""
        code = self._intern.get(value)
        if code is None:
            code = len(self._values)
            self._intern[value] = code
            self._values.append(value)
        return code

    def probe_code(self, value: object) -> int:
        """The code for ``value`` without interning; -1 when absent.

        -1 is never a valid code, so probes and equality guards against
        never-stored constants miss naturally.
        """
        return self._intern.get(value, -1)

    @property
    def values_list(self) -> list[object]:
        """Code -> value decode table (order comparisons decode through it)."""
        return self._values

    def _table(self, predicate: str, arity: int) -> _Table:
        tables = self._tables.setdefault(predicate, {})
        table = tables.get(arity)
        if table is None:
            table = _Table(arity)
            tables[arity] = table
        return table

    def _existing(self, predicate: str, arity: int) -> _Table | None:
        tables = self._tables.get(predicate)
        return tables.get(arity) if tables else None

    # -- mutation ----------------------------------------------------------
    def add(self, predicate: str, row: Row) -> bool:
        """Insert one fact; returns True when it was new."""
        table = self._table(predicate, len(row))
        coded = tuple(self.encode_value(value) for value in row)
        if coded in table.coded:
            return False
        table.coded.add(coded)
        table.append([coded])
        self._version += 1
        return True

    def add_atom(self, atom: Atom) -> bool:
        return self.add(atom.predicate, atom.ground_tuple())

    def add_facts(self, predicate: str, rows: Iterable[Row]) -> int:
        """Bulk-insert value rows; one dedup pass, one version bump."""
        encode = self.encode_value
        by_arity: dict[int, list[CodedRow]] = {}
        for row in rows:
            by_arity.setdefault(len(row), []).append(
                tuple(encode(value) for value in row))
        added = 0
        for arity, coded_rows in by_arity.items():
            added += len(self.insert_coded(predicate, arity, coded_rows))
        return added

    def insert_coded(self, predicate: str, arity: int,
                     rows: Iterable[CodedRow]):
        """Bulk-insert a coded batch; returns the genuinely fresh rows
        (as a list, or the caller's set when it arrived deduplicated).

        The vectorized strategy's store step: set-semantics dedup against
        the table (and within the batch) in one pass, a single version
        bump, and the fresh rows back out as the next semi-naive delta
        batch.  Duplicate rows dropped here land in ``batch_dedup_rows``.
        """
        table = self._table(predicate, arity)
        coded = table.coded
        if isinstance(rows, (set, frozenset)):
            # Rule fires hand over deduplicated sets with no ordering
            # contract: the set difference IS the fresh batch, all at C
            # speed -- crucial on dense workloads where most derived
            # rows are duplicates.
            news = rows - coded
            self.batch_dedup_rows += len(rows) - len(news)
            if news:
                coded |= news
            fresh: Iterable[CodedRow] = news
        else:
            batch = rows if isinstance(rows, list) else list(rows)
            news = set(batch) - coded
            self.batch_dedup_rows += len(batch) - len(news)
            if len(news) == len(batch):
                # The whole batch is fresh and duplicate-free: nothing
                # left to check row by row.
                coded |= news
                fresh = batch
            elif news:
                # Preserve first-occurrence order within a value load.
                fresh = []
                push = fresh.append
                add = coded.add
                for row in batch:
                    if row not in coded:
                        add(row)
                        push(row)
            else:
                fresh = []
        if fresh:
            table.append(fresh)
            self._version += 1
        return fresh

    def merge(self, other) -> None:
        """Bulk-insert every fact of ``other`` (any backend)."""
        for predicate in other.predicates():
            self.add_facts(predicate, other.rows(predicate))

    def copy(self) -> "ColumnarDatabase":
        """An independent copy sharing no mutable state.

        The intern table is copied so codes stay stable.  Every
        projection (columns, decoded rows, row indexes, batch hash
        tables) is copied as far as it has caught up -- under its
        table's lock, since a published model may be catching up in
        another thread -- so the copy extends them by watermark instead
        of re-decoding and re-indexing whole relations.  Index buckets
        are shared, and each side copies a bucket before its first
        append to it (:func:`_share_indexes`).
        """
        out = ColumnarDatabase()
        out._intern = dict(self._intern)
        out._values = list(self._values)
        for predicate, tables in self._tables.items():
            for arity, table in tables.items():
                fresh = out._table(predicate, arity)
                with table._lock:
                    fresh.coded = set(table.coded)
                    fresh._coded_list = list(table._coded_list)
                    fresh.n = table.n
                    fresh._columns = tuple(list(column) for column in table._columns)
                    fresh._columns_upto = table._columns_upto
                    fresh._decoded = set(table._decoded)
                    fresh._decoded_upto = table._decoded_upto
                    fresh._row_indexes = _share_indexes(table._row_indexes)
                    fresh._batch_indexes = _share_indexes(table._batch_indexes)
        out._version = self._version
        return out

    # -- row-level reads (StorageBackend contract) -------------------------
    def _decode(self, coded: CodedRow) -> Row:
        values = self._values
        return tuple(values[code] for code in coded)

    def rows(self, predicate: str) -> set[Row]:
        """All decoded rows of ``predicate`` (cached, all arities)."""
        tables = self._tables.get(predicate)
        if not tables:
            return set()
        if len(tables) == 1:
            return self._decoded_rows(next(iter(tables.values())))
        out: set[Row] = set()
        for table in tables.values():
            out |= self._decoded_rows(table)
        return out

    def _decoded_rows(self, table: _Table) -> set[Row]:
        if table._decoded_upto < table.n:
            with table._lock:
                decode = self._decode
                coded = table.coded_rows()
                table._decoded.update(
                    decode(row) for row in coded[table._decoded_upto:])
                table._decoded_upto = table.n
        return table._decoded

    def contains(self, predicate: str, row: Row) -> bool:
        table = self._existing(predicate, len(row))
        if table is None:
            return False
        probe = self._intern.get
        coded = []
        for value in row:
            code = probe(value)
            if code is None:
                return False
            coded.append(code)
        return tuple(coded) in table.coded

    def predicates(self) -> list[str]:
        return sorted(
            predicate for predicate, tables in self._tables.items()
            if any(table.n for table in tables.values()))

    def __len__(self) -> int:
        return sum(table.n for tables in self._tables.values()
                   for table in tables.values())

    def index(self, predicate: str, positions: tuple[int, ...]):
        """Row-level composite index (decoded), built and extended lazily."""
        merged: dict[tuple, list[Row]] = {}
        tables = self._tables.get(predicate)
        if not tables:
            return merged
        single = len(tables) == 1
        for table in tables.values():
            if any(p >= table.arity for p in positions):
                continue
            entry = table._row_indexes.get(positions)
            if entry is None or entry[1] < table.n:
                with table._lock:
                    entry = table._row_indexes.setdefault(positions, [{}, 0, None])
                    index, upto, owned = entry
                    decode = self._decode
                    for coded in table.coded_rows()[upto:]:
                        row = decode(coded)
                        key = tuple(row[p] for p in positions)
                        if owned is None:
                            index.setdefault(key, []).append(row)
                        else:
                            _append_shared(index, owned, key, row)
                    entry[1] = table.n
            index = entry[0]
            if single:
                return index
            for key, bucket in index.items():
                merged.setdefault(key, []).extend(bucket)
        return merged

    def bucket(self, predicate: str, positions: tuple[int, ...],
               key: tuple) -> Iterable[Row]:
        """Decoded rows whose values at ``positions`` equal ``key``."""
        self.probe_count += 1
        return self.index(predicate, positions).get(key, _EMPTY)

    def candidates(self, atom: Atom, subst: Substitution) -> Iterable[Row]:
        """Selectivity-aware probe (mirrors the dict backend exactly)."""
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
        return self.rows(atom.predicate)

    def as_atoms(self) -> Iterator[Atom]:
        for predicate in self.predicates():
            for row in sorted(self.rows(predicate), key=repr):
                yield Atom(predicate, tuple(Constant(v) for v in row))

    # -- batch layer (vectorized strategy) ---------------------------------
    def coded_rows(self, predicate: str, arity: int) -> list[CodedRow]:
        """The whole relation as a coded batch (insertion order)."""
        table = self._existing(predicate, arity)
        return table.coded_rows() if table is not None else []

    def coded_set(self, predicate: str, arity: int) -> set[CodedRow]:
        """Coded-row membership set (the batch anti-join target)."""
        table = self._existing(predicate, arity)
        return table.coded if table is not None else _EMPTY_SET

    def column(self, predicate: str, arity: int, position: int) -> list[int]:
        """One argument position as a code array (lazy column projection)."""
        table = self._existing(predicate, arity)
        return table.columns()[position] if table is not None else []

    def batch_index(self, predicate: str, arity: int,
                    key_positions: tuple[int, ...],
                    keep_positions: tuple[int, ...],
                    eq_pairs: tuple[tuple[int, int], ...] = (),
                    bare_keep: bool = False) -> dict:
        """Build-side hash table: coded key -> list of coded keep-tuples.

        A single-position key maps the bare code (no 1-tuple churn on the
        probe side); multi-position keys map code tuples.  ``bare_keep``
        plays the same trick on the value side -- a single-position keep
        stored as bare codes for consumers (the fused join+project) that
        never concatenate the match onto the probe tuple.  ``eq_pairs``
        filters rows whose repeated-variable positions disagree at build
        time, so probes never re-check them.  Extended incrementally by
        watermark; an empty ``key_positions`` yields the full-scan table
        ``{(): [keep-tuples...]}``.
        """
        table = self._existing(predicate, arity)
        if table is None:
            return {}
        spec = (key_positions, keep_positions, eq_pairs, bare_keep)
        entry = table._batch_indexes.get(spec)
        if entry is not None and entry[1] >= table.n:
            return entry[0]
        with table._lock:
            entry = table._batch_indexes.setdefault(spec, [{}, 0, None])
            index, upto, owned = entry
            if upto < table.n:
                self.batch_build_count += 1
                rows = table.coded_rows()
                single = len(key_positions) == 1
                key0 = key_positions[0] if single else None
                keep0 = keep_positions[0] if bare_keep else None
                setdefault = index.setdefault
                for row in rows[upto:]:
                    if eq_pairs and any(row[a] != row[b] for a, b in eq_pairs):
                        continue
                    key = row[key0] if single else tuple(row[p] for p in key_positions)
                    value = (row[keep0] if bare_keep
                             else tuple(row[p] for p in keep_positions))
                    if owned is None:
                        setdefault(key, []).append(value)
                    else:
                        _append_shared(index, owned, key, value)
                entry[1] = table.n
        return index


def _share_indexes(indexes: dict) -> dict:
    """A copy of ``{spec: [key -> bucket list, upto, owned]}`` whose
    bucket lists are shared with ``indexes``.

    Both sides then copy a bucket before their first append to it: an
    entry's ``owned`` holds the keys whose buckets it no longer shares
    (``None``: it shares none).  Call under the table's lock.
    """
    shared = {}
    for spec, entry in indexes.items():
        entry[2] = set()
        shared[spec] = [dict(entry[0]), entry[1], set()]
    return shared


def _append_shared(index: dict, owned: set, key, value) -> None:
    """Append ``value`` to ``key``'s bucket, copying it first while
    another database may share it (:func:`_share_indexes`)."""
    if key in owned:
        index[key].append(value)
    else:
        index[key] = [*index.get(key, ()), value]
        owned.add(key)
