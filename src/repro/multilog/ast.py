"""Abstract syntax of MultiLog (Section 5.1).

The language has five atom kinds:

* **m-atoms** ``s[p(k : a -c-> v)]`` -- one classified column of an MLS
  tuple; ``s`` plays the tuple-class role, ``c`` the cell classification.
* **m-molecules** ``s[p(k : a1 -c1-> v1; ...; an -cn-> vn)]`` -- syntactic
  sugar for the conjunction of the component m-atoms (footnote 8).
* **b-atoms** ``m-atom << mode`` -- belief in one of the modes; never
  allowed in clause heads.
* **p-atoms** -- ordinary Datalog atoms.
* **l-atoms** ``level(s)`` and **h-atoms** ``order(l, h)`` -- the security
  lattice declarations.

A database (Definition 5.1) is ``<Lambda, Sigma, Pi, Q>``: lattice
clauses, secured-data clauses, plain clauses, and queries.

Terms are shared with the Datalog substrate
(:mod:`repro.datalog.terms`): constants and variables; attribute names
are plain strings (the paper draws them from the finite set ``A``).
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.datalog.terms import Term, Variable, make_term
from repro.errors import MultiLogError

#: The distinguished null value inside MultiLog programs.
NULL_VALUE = "null"


def term(value: object) -> Term:
    """Coerce ``value`` using the Datalog variable/constant convention."""
    return make_term(value)


def format_term(term: Term) -> str:
    """Render a term in re-parseable concrete syntax.

    Variables print by name; lower-case identifier constants and numbers
    print bare; any other string constant is single-quoted.
    """
    if isinstance(term, Variable):
        return term.name
    value = term.value
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if re.fullmatch(r"[a-z][A-Za-z0-9_]*", text):
        return text
    return f"'{text}'"


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MAtom:
    """``level[pred(key : attr -cls-> value)]``."""

    level: Term
    pred: str
    key: Term
    attr: str
    cls: Term
    value: Term

    def __str__(self) -> str:
        return (f"{format_term(self.level)}[{self.pred}({format_term(self.key)} : "
                f"{self.attr} -{format_term(self.cls)}-> {format_term(self.value)})]")

    def variables(self) -> set[Variable]:
        return {t for t in (self.level, self.key, self.cls, self.value) if isinstance(t, Variable)}


@dataclass(frozen=True)
class MMolecule:
    """``level[pred(key : a1 -c1-> v1; ...)]`` -- sugar for m-atom conjunction."""

    level: Term
    pred: str
    key: Term
    assignments: tuple[tuple[str, Term, Term], ...]  # (attr, cls, value)

    def atoms(self) -> tuple[MAtom, ...]:
        """The equivalent atomic conjunction (footnote 8)."""
        return tuple(
            MAtom(self.level, self.pred, self.key, attr, cls, value)
            for attr, cls, value in self.assignments
        )

    def __str__(self) -> str:
        inner = "; ".join(
            f"{a} -{format_term(c)}-> {format_term(v)}" for a, c, v in self.assignments
        )
        return f"{format_term(self.level)}[{self.pred}({format_term(self.key)} : {inner})]"

    def variables(self) -> set[Variable]:
        out = {t for t in (self.level, self.key) if isinstance(t, Variable)}
        for _attr, cls, value in self.assignments:
            out |= {t for t in (cls, value) if isinstance(t, Variable)}
        return out


@dataclass(frozen=True)
class BAtom:
    """``m-atom << mode`` -- belief in mode ``mode`` (a constant or variable)."""

    matom: MAtom
    mode: Term

    def __str__(self) -> str:
        return f"{self.matom} << {format_term(self.mode)}"

    def variables(self) -> set[Variable]:
        out = self.matom.variables()
        if isinstance(self.mode, Variable):
            out.add(self.mode)
        return out


@dataclass(frozen=True)
class BMolecule:
    """``m-molecule << mode`` -- believes every component cell."""

    molecule: MMolecule
    mode: Term

    def atoms(self) -> tuple[BAtom, ...]:
        return tuple(BAtom(m, self.mode) for m in self.molecule.atoms())

    def __str__(self) -> str:
        return f"{self.molecule} << {format_term(self.mode)}"

    def variables(self) -> set[Variable]:
        out = self.molecule.variables()
        if isinstance(self.mode, Variable):
            out.add(self.mode)
        return out


@dataclass(frozen=True)
class PAtom:
    """An ordinary predicate atom ``p(t1, ..., tn)``."""

    pred: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(format_term(a) for a in self.args)})"

    def variables(self) -> set[Variable]:
        return {t for t in self.args if isinstance(t, Variable)}


@dataclass(frozen=True)
class LAtom:
    """``level(s)`` -- declares a security level."""

    level: Term

    def __str__(self) -> str:
        return f"level({format_term(self.level)})"

    def variables(self) -> set[Variable]:
        return {self.level} if isinstance(self.level, Variable) else set()


@dataclass(frozen=True)
class HAtom:
    """``order(l, h)`` -- declares ``l`` immediately below ``h``."""

    low: Term
    high: Term

    def __str__(self) -> str:
        return f"order({format_term(self.low)}, {format_term(self.high)})"

    def variables(self) -> set[Variable]:
        return {t for t in (self.low, self.high) if isinstance(t, Variable)}


@dataclass(frozen=True)
class LeqGoal:
    """An internal goal ``l <= h`` (proved by REFLEXIVITY/TRANSITIVITY)."""

    low: Term
    high: Term

    def __str__(self) -> str:
        return f"{self.low} <= {self.high}"

    def variables(self) -> set[Variable]:
        return {t for t in (self.low, self.high) if isinstance(t, Variable)}


BodyAtom = MAtom | MMolecule | BAtom | BMolecule | PAtom | LAtom | HAtom | LeqGoal
HeadAtom = MAtom | MMolecule | PAtom | LAtom | HAtom


# ----------------------------------------------------------------------
# Clauses and databases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Clause:
    """``head <- body`` (a fact when the body is empty).

    b-atoms may not appear in heads (Section 5.1: "we do not allow
    b-atoms to appear in the consequent").
    """

    head: HeadAtom
    body: tuple[BodyAtom, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.head, (BAtom, BMolecule)):
            raise MultiLogError(f"b-atoms may not appear in clause heads: {self.head}")

    @property
    def is_fact(self) -> bool:
        return not self.body

    def kind(self) -> str:
        """m-, p-, l- or h-clause, by the head atom (Section 5.1)."""
        if isinstance(self.head, (MAtom, MMolecule)):
            return "m"
        if isinstance(self.head, LAtom):
            return "l"
        if isinstance(self.head, HAtom):
            return "h"
        return "p"

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(b) for b in self.body)}."


@dataclass(frozen=True)
class Query:
    """``<- B1, ..., Bm`` (written ``?- ...`` in the concrete syntax)."""

    body: tuple[BodyAtom, ...]

    def __str__(self) -> str:
        return f"?- {', '.join(str(b) for b in self.body)}."

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for atom in self.body:
            out |= atom.variables()
        return out


@dataclass(eq=False)  # identity hash so memo layers can hold it weakly
class MultiLogDatabase:
    """A MultiLog database ``<Lambda, Sigma, Pi, Q>`` (Definition 5.1)."""

    lattice_clauses: list[Clause] = field(default_factory=list)   # Lambda
    secured_clauses: list[Clause] = field(default_factory=list)   # Sigma
    plain_clauses: list[Clause] = field(default_factory=list)     # Pi
    queries: list[Query] = field(default_factory=list)            # Q
    #: monotone counter bumped on every added clause; the tau-translation
    #: memo (:mod:`repro.cache`) keys reduced programs on it.
    version: int = field(default=0, compare=False, repr=False)

    def _component_for(self, clause: Clause) -> list[Clause]:
        """The Lambda/Sigma/Pi list a clause files into, by head kind."""
        kind = clause.kind()
        if kind in ("l", "h"):
            return self.lattice_clauses
        if kind == "m":
            return self.secured_clauses
        return self.plain_clauses

    def add(self, clause: Clause) -> None:
        """File a clause into the right component by its head kind."""
        self._component_for(clause).append(clause)
        self.version += 1

    def add_clauses(self, clauses: Iterable[Clause]) -> int:
        """Bulk-load: file every clause, bump ``version`` once.

        The single bump is the point -- loaders (program text, journal
        replay, workload generators) add thousands of clauses before the
        first query, and a per-clause bump would invalidate version-keyed
        memo layers once per clause instead of once per load.  Returns
        the number of clauses filed.
        """
        count = 0
        for clause in clauses:
            self._component_for(clause).append(clause)
            count += 1
        if count:
            self.version += 1
        return count

    def add_query(self, query: Query) -> None:
        self.queries.append(query)
        self.version += 1

    def with_clause(self, clause: Clause) -> "MultiLogDatabase":
        """A copy that also holds ``clause``: the candidate an update is
        validated against before this database takes the clause."""
        candidate = MultiLogDatabase(list(self.lattice_clauses),
                                     list(self.secured_clauses),
                                     list(self.plain_clauses), list(self.queries))
        candidate._component_for(clause).append(clause)
        return candidate

    def clauses(self) -> list[Clause]:
        return self.lattice_clauses + self.secured_clauses + self.plain_clauses

    @staticmethod
    def atomize(clause: Clause) -> list[Clause]:
        """``clause`` with every molecule broken into atomic conjunctions.

        Head molecules expand into one clause per component m-atom (the
        preprocessor step of Section 5.3); body molecules expand in place.
        """
        body: list[BodyAtom] = []
        for atom in clause.body:
            if isinstance(atom, (MMolecule, BMolecule)):
                body.extend(atom.atoms())
            else:
                body.append(atom)
        heads: Iterable[HeadAtom]
        if isinstance(clause.head, MMolecule):
            heads = clause.head.atoms()
        else:
            heads = (clause.head,)
        return [Clause(head, tuple(body)) for head in heads]

    def atomized_secured_clauses(self) -> list[Clause]:
        """Sigma with every clause atomized (:meth:`atomize`)."""
        return [atomic for clause in self.secured_clauses
                for atomic in self.atomize(clause)]

    def atomized_plain_clauses(self) -> list[Clause]:
        """Pi with body molecules expanded (heads are already p-atoms)."""
        return [atomic for clause in self.plain_clauses
                for atomic in self.atomize(clause)]

    def __str__(self) -> str:
        sections = []
        for title, clauses in (
            ("% Lambda (lattice)", self.lattice_clauses),
            ("% Sigma (secured data)", self.secured_clauses),
            ("% Pi (plain clauses)", self.plain_clauses),
        ):
            if clauses:
                sections.append(title)
                sections.extend(str(c) for c in clauses)
        if self.queries:
            sections.append("% Queries")
            sections.extend(str(q) for q in self.queries)
        return "\n".join(sections)
