"""Binding-mode abstract interpretation over a stratified program.

Approximates every predicate position by a *constant domain* -- either a
finite set of values (at most :data:`MAX_WIDTH`, else widened to TOP) --
and runs the rules to an abstract fixpoint.  Three program properties
fall out:

* **statically-empty relations** (ML017): an IDB predicate whose every
  defining rule is abstractly unsatisfiable can never hold a tuple, a
  strictly stronger verdict than ML010's reachability-based dead code;
* **unsatisfiable built-in guards** (ML019): a guard whose two sides
  have disjoint finite domains (or that compares a term against itself
  contradictorily) kills its rule at compile time;
* **delta safety** (ML018): rules whose incremental deltas are provably
  monotone versus rules that need DRed-style overdeletion when facts are
  retracted -- the classification ROADMAP item 2 (incremental view
  maintenance) consumes.  A rule is delta-monotone iff neither it nor
  anything it transitively depends on derives through negation.

The abstraction is sound in one direction only: "abstractly
unsatisfiable" implies "never fires"; "abstractly satisfiable" implies
nothing.  Negated literals are ignored (a negation can only shrink the
concrete relation, never grow it), so the computed domains always cover
the real least model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datalog.atoms import Atom, Literal
from repro.datalog.builtins import COMPARATORS
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable

from repro.analysis.diagnostics import AnalysisReport

__all__ = ["BindingAnalysis", "MAX_WIDTH", "analyze_bindings", "delta_safety",
           "lint_bindings"]

#: Domain width cap: a position tracking more distinct constants than
#: this widens to TOP ("any value") so the fixpoint stays linear.
MAX_WIDTH = 16

#: TOP -- the unconstrained domain.  ``None`` keeps domains hashable.
_TOP = None

_Key = tuple[str, int]


def _join(a, b):
    """Least upper bound of two domains (set union, widened at the cap)."""
    if a is _TOP or b is _TOP:
        return _TOP
    union = a | b
    return _TOP if len(union) > MAX_WIDTH else union


def _meet(a, b):
    """Greatest lower bound (set intersection; TOP is the identity)."""
    if a is _TOP:
        return b
    if b is _TOP:
        return a
    return a & b


@dataclass
class BindingAnalysis:
    """The abstract fixpoint: per-position domains + derived verdicts."""

    #: ``(predicate, arity) -> per-position domain`` (frozenset or TOP).
    domains: dict[_Key, list] = field(default_factory=dict)
    #: keys that may hold at least one tuple.
    nonempty: set[_Key] = field(default_factory=set)
    #: rules that can never fire, with the reason.
    dead_rules: list[tuple[Rule, str]] = field(default_factory=list)
    #: ``(rule, guard atom)`` pairs whose guard is unsatisfiable.
    unsat_guards: list[tuple[Rule, Atom]] = field(default_factory=list)

    def binding_pattern(self, predicate: str, arity: int) -> str:
        """``b``/``f`` per position: ``b`` when the abstract domain pins
        the position to exactly one constant, ``f`` otherwise."""
        domains = self.domains.get((predicate, arity))
        if domains is None:
            return "f" * arity
        return "".join(
            "b" if d is not _TOP and len(d) == 1 else "f" for d in domains)

    def is_statically_empty(self, predicate: str, arity: int) -> bool:
        return (predicate, arity) not in self.nonempty


def _key(atom: Atom) -> _Key:
    return (atom.predicate, len(atom.args))


def _guard_unsatisfiable(atom: Atom, var_domains: dict) -> bool:
    """True when no assignment from the abstract domains satisfies the guard.

    Sound, not complete: TOP on either side always satisfies, and value
    pairs that raise (incomparable types) count as satisfying -- the
    runtime raises there, it does not silently filter.
    """
    op = atom.predicate
    left, right = atom.args
    if isinstance(left, Variable) and left == right:
        return op in ("!=", "<", ">")
    sides = []
    for term in (left, right):
        if isinstance(term, Constant):
            sides.append(frozenset({term.value}))
        else:
            sides.append(var_domains.get(term, _TOP))
    a, b = sides
    if a is _TOP or b is _TOP:
        return False
    for x in a:
        for y in b:
            try:
                if COMPARATORS[op](x, y):
                    return False
            except TypeError:
                return False
    return True


def _abstract_body(rule: Rule, domains: dict, nonempty: set):
    """Abstractly evaluate ``rule``'s body.

    Returns ``(var_domains, None)`` when the body may be satisfiable, or
    ``(None, reason)`` when it provably is not; ``reason`` is either the
    string ``"empty"`` (an empty body relation) or the offending guard
    :class:`Atom`.
    """
    var_domains: dict[Variable, object] = {}
    for literal in rule.body:
        atom = literal.atom
        if atom.is_builtin:
            if len(atom.args) == 2 and _guard_unsatisfiable(atom, var_domains):
                return None, atom
            continue
        if not literal.positive:
            continue  # negation only shrinks; ignore (sound over-approx.)
        key = _key(atom)
        if key not in nonempty:
            return None, "empty"
        position_domains = domains.get(key) or [_TOP] * len(atom.args)
        for position, term in enumerate(atom.args):
            domain = position_domains[position]
            if isinstance(term, Constant):
                if domain is not _TOP and term.value not in domain:
                    return None, "empty"
            else:
                narrowed = _meet(var_domains.get(term, _TOP), domain)
                if narrowed is not _TOP and not narrowed:
                    return None, "empty"
                var_domains[term] = narrowed
    return var_domains, None


def analyze_bindings(program: Program) -> BindingAnalysis:
    """Run the abstract interpretation to fixpoint over ``program``."""
    analysis = BindingAnalysis()
    domains = analysis.domains
    nonempty = analysis.nonempty

    for fact in program.facts:
        key = _key(fact)
        nonempty.add(key)
        position_domains = domains.setdefault(key, [frozenset()] * len(fact.args))
        for position, term in enumerate(fact.args):
            value = term.value if isinstance(term, Constant) else _TOP
            current = position_domains[position]
            position_domains[position] = (
                _TOP if value is _TOP else _join(current, frozenset({value})))

    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            var_domains, _ = _abstract_body(rule, domains, nonempty)
            if var_domains is None:
                continue
            key = _key(rule.head)
            if key not in nonempty:
                nonempty.add(key)
                changed = True
            position_domains = domains.setdefault(
                key, [frozenset()] * len(rule.head.args))
            for position, term in enumerate(rule.head.args):
                if isinstance(term, Constant):
                    update = frozenset({term.value})
                else:
                    update = var_domains.get(term, _TOP)
                current = position_domains[position]
                joined = _TOP if update is _TOP else _join(current, update)
                if joined != current:
                    position_domains[position] = joined
                    changed = True

    for rule in program.rules:
        var_domains, reason = _abstract_body(rule, domains, nonempty)
        if var_domains is not None:
            continue
        if isinstance(reason, Atom):
            analysis.unsat_guards.append((rule, reason))
            analysis.dead_rules.append(
                (rule, f"guard {reason!r} is unsatisfiable"))
        else:
            analysis.dead_rules.append(
                (rule, "a body relation is statically empty"))
    return analysis


def delta_safety(program: Program) -> dict[str, str]:
    """``predicate -> "monotone" | "overdelete"`` for every IDB predicate.

    A predicate needs DRed-style overdeletion when any of its rules uses
    negation, or when it (transitively) consumes a predicate that does:
    retracting a fact may then *grow* a relation downstream, so deltas
    alone cannot maintain it.  Everything else is monotone -- inserted
    facts only ever add derived tuples, so semi-naive deltas suffice.
    """
    tainted: set[str] = set()
    consumers: dict[str, set[str]] = {}
    for rule in program.rules:
        head = rule.head.predicate
        if rule.negative_body():
            tainted.add(head)
        for literal in rule.body:
            if not literal.atom.is_builtin:
                consumers.setdefault(literal.predicate, set()).add(head)
    frontier = list(tainted)
    while frontier:
        tainted_pred = frontier.pop()
        for consumer in consumers.get(tainted_pred, ()):
            if consumer not in tainted:
                tainted.add(consumer)
                frontier.append(consumer)
    return {
        predicate: "overdelete" if predicate in tainted else "monotone"
        for predicate in program.idb_predicates()
    }


def lint_bindings(program: Program, report: AnalysisReport) -> BindingAnalysis:
    """Surface the abstract verdicts as ML017/ML018/ML019 diagnostics."""
    analysis = analyze_bindings(program)

    dead_by_head: dict[_Key, list] = {}
    for rule, reason in analysis.dead_rules:
        dead_by_head.setdefault(_key(rule.head), []).append((rule, reason))
    for predicate in sorted(program.idb_predicates()):
        for key in sorted(k for k in dead_by_head if k[0] == predicate):
            if key in analysis.nonempty:
                continue
            arity = key[1]
            report.add(
                "ML017",
                f"relation {predicate}/{arity} is statically empty: no "
                f"defining rule can ever fire and no facts exist",
                location=f"predicate {predicate}",
                hint="every body is unsatisfiable (empty relation or dead "
                     "guard); the rules are unreachable code")

    for rule, atom in analysis.unsat_guards:
        report.add(
            "ML019",
            f"built-in guard {atom!r} can never be satisfied; rule "
            f"{rule!r} never fires",
            location=f"rule {rule!r}",
            hint="the guard's sides have disjoint constant domains")

    safety = delta_safety(program)
    for rule in program.rules:
        if safety.get(rule.head.predicate) == "overdelete":
            why = ("uses negation" if rule.negative_body()
                   else "depends on a negation-derived predicate")
            report.add(
                "ML018",
                f"rule for {rule.head.predicate!r} {why}: incremental "
                f"deltas are not monotone and need DRed-style overdeletion",
                location=f"rule {rule!r}",
                hint="see ROADMAP item 2 (incremental maintenance)")
    return analysis
