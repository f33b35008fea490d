"""Admissibility of MultiLog databases (Definition 5.3).

A database ``<Lambda, Sigma, Pi, Q>`` is admissible when:

1. every Lambda clause's dependency graph stays inside l-/h-atoms (the
   lattice must be self-contained -- its meaning cannot depend on secured
   data or plain predicates);
2. every security label appearing in a Sigma clause is asserted by
   ``[[Lambda]]``;
3. ``[[Lambda]]`` induces a partial order on the declared levels.

``[[Lambda]]`` is computed by translating the l-/h-clauses to Datalog and
taking the least model (Lambda clauses may have bodies, e.g. mirrored
orders), then materialized as a :class:`~repro.lattice.SecurityLattice`
-- whose constructor rejects cycles, giving condition 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog import Atom as DAtom
from repro.datalog import Literal as DLiteral
from repro.datalog import Program, Rule, evaluate
from repro.datalog.terms import Constant
from repro.errors import AdmissibilityError, LatticeError
from repro.lattice import SecurityLattice
from repro.multilog.ast import (
    BAtom,
    BMolecule,
    Clause,
    HAtom,
    LAtom,
    MAtom,
    MMolecule,
    MultiLogDatabase,
)


@dataclass(frozen=True)
class LatticeContext:
    """The materialized meaning of Lambda: levels, order facts, the lattice."""

    lattice: SecurityLattice
    level_rows: frozenset[tuple[object, ...]]
    order_rows: frozenset[tuple[object, ...]]


def _lambda_to_datalog(clauses: list[Clause]) -> Program:
    program = Program()
    for clause in clauses:
        head = clause.head
        if isinstance(head, LAtom):
            head_atom = DAtom("level", (head.level,))
        elif isinstance(head, HAtom):
            head_atom = DAtom("order", (head.low, head.high))
        else:  # unreachable: MultiLogDatabase.add files by head kind
            raise AdmissibilityError(f"clause {clause} is not an l- or h-clause")
        body = []
        for atom in clause.body:
            if isinstance(atom, LAtom):
                body.append(DLiteral(DAtom("level", (atom.level,))))
            elif isinstance(atom, HAtom):
                body.append(DLiteral(DAtom("order", (atom.low, atom.high))))
            else:
                raise AdmissibilityError(
                    f"Lambda clause {clause} depends on a non-lattice atom {atom} "
                    "(Definition 5.3, condition 1)"
                )
        program.add_rule(Rule(head_atom, tuple(body)))
    return program


def clause_labels(clause: Clause) -> set[str]:
    """Every ground security label occurring in one Sigma clause."""
    labels: set[str] = set()

    def collect_matom(atom: MAtom) -> None:
        for t in (atom.level, atom.cls):
            if isinstance(t, Constant):
                labels.add(str(t.value))

    atoms: list[object] = [clause.head, *clause.body]
    for atom in atoms:
        if isinstance(atom, MAtom):
            collect_matom(atom)
        elif isinstance(atom, MMolecule):
            for component in atom.atoms():
                collect_matom(component)
        elif isinstance(atom, BAtom):
            collect_matom(atom.matom)
        elif isinstance(atom, BMolecule):
            for component in atom.molecule.atoms():
                collect_matom(component)
    return labels


def _labels_used_in_sigma(db: MultiLogDatabase) -> set[str]:
    """Every ground security label occurring in a Sigma clause."""
    labels: set[str] = set()
    for clause in db.secured_clauses:
        labels |= clause_labels(clause)
    return labels


def _check_labels(context: LatticeContext, used: set[str]) -> None:
    """Definition 5.3, condition 2, for the labels ``used`` in Sigma."""
    undeclared = used - context.lattice.levels
    if undeclared:
        raise AdmissibilityError(
            f"Sigma uses security label(s) {sorted(undeclared)} not asserted by "
            "[[Lambda]] (Definition 5.3, condition 2)"
        )


def lambda_meaning(db: MultiLogDatabase) -> LatticeContext:
    """Compute ``[[Lambda]]`` and materialize the security lattice."""
    program = _lambda_to_datalog(db.lattice_clauses)
    model = evaluate(program)
    level_rows = frozenset(model.rows("level"))
    order_rows = frozenset(model.rows("order"))
    levels = {str(row[0]) for row in level_rows}
    orders = [(str(row[0]), str(row[1])) for row in order_rows]
    undeclared = {lo for lo, _hi in orders} | {hi for _lo, hi in orders}
    missing = undeclared - levels
    if missing:
        raise AdmissibilityError(
            f"order/2 references undeclared level(s) {sorted(missing)}"
        )
    try:
        lattice = SecurityLattice(levels, orders)
    except LatticeError as exc:
        raise AdmissibilityError(
            f"[[Lambda]] does not define a partial order: {exc}"
        ) from exc
    return LatticeContext(lattice, level_rows, order_rows)


def check_admissibility(db: MultiLogDatabase) -> LatticeContext:
    """Definition 5.3; returns the lattice context on success."""
    context = lambda_meaning(db)
    _check_labels(context, _labels_used_in_sigma(db))
    return context


def admit_clause(context: LatticeContext, clause: Clause) -> LatticeContext:
    """Definition 5.3 for an admissible database with lattice ``context``
    that gains ``clause``, which must not be a Lambda clause.

    ``[[Lambda]]`` depends on the Lambda clauses alone, so conditions 1
    and 3 still hold and ``context`` is still the lattice; condition 2
    only needs the new clause's own labels (:func:`clause_labels`, the
    per-clause half of :func:`check_admissibility`).  Returns ``context``.
    """
    if clause.kind() in ("l", "h"):
        raise AdmissibilityError(
            f"{clause} is a Lambda clause: it changes [[Lambda]], so the "
            "whole database must be rechecked (check_admissibility)")
    if clause.kind() == "m":
        _check_labels(context, clause_labels(clause))
    return context


def is_admissible(db: MultiLogDatabase) -> bool:
    """Predicate form of :func:`check_admissibility`."""
    try:
        check_admissibility(db)
    except AdmissibilityError:
        return False
    return True
