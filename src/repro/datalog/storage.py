"""The storage-backend seam: protocol, registry and factory.

The engine evaluates against anything satisfying :class:`StorageBackend`
-- the row-level contract the naive oracle and the compiled row plans
program against.  Two implementations ship:

* ``dict`` -- :class:`repro.datalog.database.Database`, the original
  per-predicate ``set[Row]`` store with lazy composite hash indexes; the
  default, and the reference semantics for the differential suite.
* ``columnar`` -- :class:`repro.datalog.columnar.ColumnarDatabase`,
  per-predicate column arrays over dictionary-encoded constants with a
  batch join API on top, which its native ``vectorized`` plans use.

Backend selection resolves in precedence order: an explicit argument
(``evaluate(..., backend=...)``, ``MultiLogSession(..., backend=...)``,
``--backend``), then the ``MULTILOG_BACKEND`` environment variable, then
``dict``.  The backend also picks the semi-naive plan
(:func:`repro.datalog.engine.native_plan`).  Answers are byte-identical
across backends -- the backend x {native, naive} differential matrix
pins that down.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import DatalogError

if TYPE_CHECKING:
    from repro.datalog.atoms import Atom
    from repro.datalog.database import Row
    from repro.datalog.unify import Substitution

#: registered backend names, default first.
BACKENDS = ("dict", "columnar")

#: environment variable consulted when no explicit backend is given.
BACKEND_ENV = "MULTILOG_BACKEND"


@runtime_checkable
class StorageBackend(Protocol):
    """What every fact store must provide to the evaluation engine.

    The contract is row-level and value-typed: ``rows``/``bucket``/
    ``candidates`` speak decoded Python values regardless of the internal
    representation, so the naive oracle and the answer rules run
    unchanged on any backend.  Backends may expose extra batch APIs (see
    :class:`~repro.datalog.columnar.ColumnarDatabase`) that only the
    ``vectorized`` plans use.
    """

    #: registry name of this implementation (``"dict"``, ``"columnar"``).
    backend: str

    @property
    def version(self) -> int: ...

    def add(self, predicate: str, row: "Row") -> bool: ...

    def add_atom(self, atom: "Atom") -> bool: ...

    def add_facts(self, predicate: str, rows: Iterable["Row"]) -> int: ...

    def rows(self, predicate: str) -> set["Row"]: ...

    def contains(self, predicate: str, row: "Row") -> bool: ...

    def bucket(self, predicate: str, positions: tuple[int, ...],
               key: tuple) -> Iterable["Row"]: ...

    def candidates(self, atom: "Atom", subst: "Substitution") -> Iterable["Row"]: ...

    def predicates(self) -> list[str]: ...

    def as_atoms(self) -> Iterator["Atom"]: ...

    def __len__(self) -> int: ...


def resolve_backend(backend: str | None = None) -> str:
    """The effective backend name: explicit > ``MULTILOG_BACKEND`` > dict."""
    name = backend
    if name is None or name == "":
        name = os.environ.get(BACKEND_ENV) or "dict"
    if name not in BACKENDS:
        raise DatalogError(
            f"unknown storage backend {name!r}; available: {', '.join(BACKENDS)}")
    return name


def make_database(backend: str | None = None):
    """A fresh fact store for the resolved backend name."""
    name = resolve_backend(backend)
    if name == "columnar":
        from repro.datalog.columnar import ColumnarDatabase

        return ColumnarDatabase()
    from repro.datalog.database import Database

    return Database()
