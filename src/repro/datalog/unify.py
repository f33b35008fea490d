"""Substitutions, matching and unification.

The bottom-up engine only ever *matches* rule literals against ground
facts, but the top-down resolver and the MultiLog operational prover need
full (function-free) unification, so both are provided.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.datalog.atoms import Atom, Literal
from repro.datalog.terms import Constant, Term, Variable

Substitution = dict[Variable, Term]


def walk(term: Term, subst: Mapping[Variable, Term]) -> Term:
    """Resolve a term through the substitution until fixed."""
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    return term


def apply_to_term(term: Term, subst: Mapping[Variable, Term]) -> Term:
    return walk(term, subst)


def apply_to_atom(atom: Atom, subst: Mapping[Variable, Term]) -> Atom:
    """A copy of ``atom`` with the substitution applied."""
    return Atom(atom.predicate, tuple(walk(a, subst) for a in atom.args))


def apply_to_literal(literal: Literal, subst: Mapping[Variable, Term]) -> Literal:
    return Literal(apply_to_atom(literal.atom, subst), literal.positive)


def unify_terms(a: Term, b: Term, subst: Substitution) -> Substitution | None:
    """Extend ``subst`` so that ``a`` and ``b`` become equal, or ``None``.

    The input substitution is not mutated.
    """
    a = walk(a, subst)
    b = walk(b, subst)
    if a == b:
        return subst
    if isinstance(a, Variable):
        out = dict(subst)
        out[a] = b
        return out
    if isinstance(b, Variable):
        out = dict(subst)
        out[b] = a
        return out
    return None  # two distinct constants


def unify_atoms(a: Atom, b: Atom, subst: Substitution | None = None) -> Substitution | None:
    """Unify two atoms; returns the extended substitution or ``None``."""
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return None
    current: Substitution | None = dict(subst) if subst else {}
    for ta, tb in zip(a.args, b.args):
        current = unify_terms(ta, tb, current)
        if current is None:
            return None
    return current


def match_atom(pattern: Atom, fact_row: tuple[object, ...], subst: Substitution) -> Substitution | None:
    """Match a (possibly partially bound) atom against a ground fact row.

    One-way matching: variables in the pattern bind to the fact's
    constants; a bound variable must agree with the row.
    """
    if len(pattern.args) != len(fact_row):
        return None
    out: Substitution | None = None
    for term, value in zip(pattern.args, fact_row):
        term = walk(term, out if out is not None else subst)
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            if out is None:
                out = dict(subst)
            out[term] = Constant(value)
    return out if out is not None else dict(subst)
