"""Reduction semantics: MultiLog -> Datalog (Section 6, Figure 12).

The translation ``tau`` maps every MultiLog construct to flat Datalog:

* ``l[p(k : a -c-> v)]``          -> ``rel(p, k, a, v, c, l)``
* ``l[p(k : a -c-> v)] << m``     -> ``bel(p, k, a, v, c, l, m)``
* p-/l-/h-atoms map to themselves,

and the encoding ``lambda`` guards every m- and b-atom in rule bodies with
``dominate(l, u)`` and ``dominate(c, u)`` for the session clearance ``u``
(baked in at compile time, as Section 6.2 prescribes).  The invariant
axiom set **A** -- the "MultiLog inference engine" -- is added to every
reduced program.

Two documented repairs to the published Figure 12 (see DESIGN.md):

1. **Safety.** Axioms a6-a9 as printed contain negated atoms with free
   variables (not range-restricted).  :func:`figure12_axioms` reproduces
   them verbatim so the defect is demonstrable (our safety checker
   rejects them); :func:`engine_axioms` is the repaired, stratified
   equivalent using projection predicates (``vis``/``outranked``).

2. **Stratification.** When an m-clause body contains a b-atom (database
   D1's rule r8), the reduced program has recursion through negation
   (``rel -> bel -> not outranked -> vis -> rel``) and no stratified
   model -- despite the paper's claim that "the axioms are actually
   stratified".  The repair is *level specialization*: ``rel``/``bel``/
   ``vis``/``outranked`` are split per security level, which restores
   stratifiability exactly when the program's belief recursion is
   level-acyclic.  :func:`translate` applies it automatically.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import Counter
from dataclasses import dataclass, field

from repro.cache import VersionedMemo, build_lock
from repro.datalog import Atom as DAtom
from repro.datalog import (
    Database,
    Increment,
    Literal as DLiteral,
    Program,
    Rule,
    evaluate,
    evaluate_goal_rules,
    resolve_backend,
)
from repro.datalog.terms import Constant, Term, Variable
from repro.errors import MultiLogError
from repro.lattice import SecurityLattice
from repro.multilog.admissibility import LatticeContext, check_admissibility
from repro.multilog.ast import (
    BAtom,
    BodyAtom,
    Clause,
    HAtom,
    LAtom,
    LeqGoal,
    MAtom,
    MultiLogDatabase,
    PAtom,
    Query,
)
from repro.multilog.proof import BUILTIN_MODES, USER_BELIEF_PREDICATE, atomize_body
from repro.obs.context import current as _current_obs

ANSWER_PREDICATE = "__answer"


def figure12_axioms() -> list[Rule]:
    """The axiom set **A** exactly as printed in Figure 12.

    Axioms a6, a7 and a9 are *not range-restricted* (e.g. a7 negates
    ``rel(P,K,A,V',C',H)`` with ``V'``/``C'`` appearing nowhere
    positively).  They are reproduced verbatim so tests can demonstrate
    that a safety-checking engine rejects them; use
    :func:`engine_axioms` for the repaired set.
    """
    v = Variable
    return [
        # a1-a3: dominate
        Rule(DAtom("dominate", (v("X"), v("Y"))), (DLiteral(DAtom("order", (v("X"), v("Y")))),)),
        Rule(DAtom("dominate", (v("X"), v("X"))), (DLiteral(DAtom("level", (v("X"),))),)),
        Rule(DAtom("dominate", (v("X"), v("Y"))),
             (DLiteral(DAtom("order", (v("X"), v("Z")))),
              DLiteral(DAtom("dominate", (v("Z"), v("Y")))))),
        # a4: firm
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("fir"))),
             (DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H")))),)),
        # a5: optimistic
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("opt"))),
             (DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L")))),
              DLiteral(DAtom("dominate", (v("L"), v("H")))))),
        # a6: cautious, local cell at the bottom of its chain (UNSAFE: L free)
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("cau"))),
             (DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H")))),
              DLiteral(DAtom("order", (v("L"), v("H"))), positive=False))),
        # a7: cautious, inherited (UNSAFE: V', C' free under negation)
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("cau"))),
             (DLiteral(DAtom("order", (v("L"), v("H")))),
              DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("Vp"), v("Cp"), v("H"))),
                       positive=False),
              DLiteral(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L"),
                                     Constant("cau")))))),
        # a8: cautious, lower cell overrides the local one
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("cau"))),
             (DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("Vp"), v("Cp"), v("H")))),
              DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L")))),
              DLiteral(DAtom("dominate", (v("L"), v("H")))),
              DLiteral(DAtom("dominate", (v("Cp"), v("C")))))),
        # a9: cautious, local cell survives (UNSAFE: V', C', L free)
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("cau"))),
             (DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H")))),
              DLiteral(DAtom("rel", (v("P"), v("K"), v("A"), v("Vp"), v("Cp"), v("L"))),
                       positive=False),
              DLiteral(DAtom("dominate", (v("L"), v("H")))),
              DLiteral(DAtom("dominate", (v("C"), v("Cp")))))),
    ]


def engine_axioms() -> list[Rule]:
    """The repaired, range-restricted, stratified MultiLog inference engine.

    Semantically equivalent to the intent of Figure 12 (cautious =
    "visible and not outranked"), expressed with projection predicates so
    every negated atom is ground at call time.
    """
    v = Variable
    rel = lambda *args: DLiteral(DAtom("rel", args))  # noqa: E731
    return [
        Rule(DAtom("dominate", (v("X"), v("Y"))), (DLiteral(DAtom("order", (v("X"), v("Y")))),)),
        Rule(DAtom("dominate", (v("X"), v("X"))), (DLiteral(DAtom("level", (v("X"),))),)),
        Rule(DAtom("dominate", (v("X"), v("Y"))),
             (DLiteral(DAtom("order", (v("X"), v("Z")))),
              DLiteral(DAtom("dominate", (v("Z"), v("Y")))))),
        Rule(DAtom("strictly_below", (v("X"), v("Y"))),
             (DLiteral(DAtom("dominate", (v("X"), v("Y")))),
              DLiteral(DAtom("!=", (v("X"), v("Y")))))),
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("fir"))),
             (rel(v("P"), v("K"), v("A"), v("V"), v("C"), v("H")),)),
        Rule(DAtom("vis", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L"), v("H"))),
             (rel(v("P"), v("K"), v("A"), v("V"), v("C"), v("L")),
              DLiteral(DAtom("dominate", (v("L"), v("H")))),
              DLiteral(DAtom("level", (v("H"),))))),
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("opt"))),
             (DLiteral(DAtom("vis", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L"), v("H")))),)),
        Rule(DAtom("outranked", (v("P"), v("K"), v("A"), v("C"), v("H"))),
             (DLiteral(DAtom("vis", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L"), v("H")))),
              DLiteral(DAtom("vis", (v("P"), v("K"), v("A"), v("V2"), v("C2"), v("L2"), v("H")))),
              DLiteral(DAtom("strictly_below", (v("C"), v("C2")))))),
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), Constant("cau"))),
             (DLiteral(DAtom("vis", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L"), v("H")))),
              DLiteral(DAtom("outranked", (v("P"), v("K"), v("A"), v("C"), v("H"))),
                       positive=False))),
    ]


def faithful_figure12_axioms() -> list[Rule]:
    """Figure 12's cautious axioms a6-a9 made *safe* but not *repaired*.

    Each printed axiom's logic is preserved; only the range-restriction
    defects are patched with projection predicates:

    * a6 -- a cell stored at a level with no level below it is believed
      (``not has_parent(H)`` replaces the unsafe ``not order(L, H)``);
    * a7 -- inherit a cautious belief from an immediate predecessor when
      the believing level stores no cell for the same column
      (``not has_cell(P,K,A,H)`` replaces the unsafe negated rel);
    * a8 -- verbatim (it was already safe);
    * a9 -- keep a local cell unless some lower-level cell's
      classification dominates it (projected through ``overridden9``).

    :func:`compare_cautious_axiomatizations` measures where this faithful
    reading diverges from the Definition 3.1 semantics implemented by
    :func:`engine_axioms` -- the printed axioms are not only unsafe, they
    are also *incomplete* on databases the definition handles.
    """
    v = Variable
    rel = lambda *args: DLiteral(DAtom("rel", args))  # noqa: E731
    cau = Constant("cau")
    return [
        Rule(DAtom("dominate", (v("X"), v("Y"))), (DLiteral(DAtom("order", (v("X"), v("Y")))),)),
        Rule(DAtom("dominate", (v("X"), v("X"))), (DLiteral(DAtom("level", (v("X"),))),)),
        Rule(DAtom("dominate", (v("X"), v("Y"))),
             (DLiteral(DAtom("order", (v("X"), v("Z")))),
              DLiteral(DAtom("dominate", (v("Z"), v("Y")))))),
        Rule(DAtom("has_parent", (v("H"),)), (DLiteral(DAtom("order", (v("L"), v("H")))),)),
        Rule(DAtom("has_cell", (v("P"), v("K"), v("A"), v("H"))),
             (rel(v("P"), v("K"), v("A"), v("V"), v("C"), v("H")),)),
        # a6: local cell at a bottom level.
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), cau)),
             (rel(v("P"), v("K"), v("A"), v("V"), v("C"), v("H")),
              DLiteral(DAtom("has_parent", (v("H"),)), positive=False))),
        # a7: inherit through an immediate predecessor when nothing local.
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), cau)),
             (DLiteral(DAtom("order", (v("L"), v("H")))),
              DLiteral(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("L"), cau))),
              DLiteral(DAtom("has_cell", (v("P"), v("K"), v("A"), v("H"))), positive=False))),
        # a8: a lower cell whose classification dominates the local one.
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), cau)),
             (rel(v("P"), v("K"), v("A"), v("Vp"), v("Cp"), v("H")),
              rel(v("P"), v("K"), v("A"), v("V"), v("C"), v("L")),
              DLiteral(DAtom("dominate", (v("L"), v("H")))),
              DLiteral(DAtom("dominate", (v("Cp"), v("C")))))),
        # a9: local cell survives unless a lower cell's class dominates it.
        Rule(DAtom("overridden9", (v("P"), v("K"), v("A"), v("C"), v("H"))),
             (rel(v("P"), v("K"), v("A"), v("V"), v("C"), v("H")),
              rel(v("P"), v("K"), v("A"), v("Vp"), v("Cp"), v("L")),
              DLiteral(DAtom("dominate", (v("L"), v("H")))),
              DLiteral(DAtom("dominate", (v("C"), v("Cp")))))),
        Rule(DAtom("bel", (v("P"), v("K"), v("A"), v("V"), v("C"), v("H"), cau)),
             (rel(v("P"), v("K"), v("A"), v("V"), v("C"), v("H")),
              DLiteral(DAtom("overridden9", (v("P"), v("K"), v("A"), v("C"), v("H"))),
                       positive=False))),
    ]


def compare_cautious_axiomatizations(db: MultiLogDatabase, clearance: str) -> dict[str, set[tuple]]:
    """Cautious beliefs: faithful Figure 12 reading vs Definition 3.1.

    Returns ``{"faithful_only": ..., "spec_only": ...}`` per
    ``(p,k,a,v,c,h)`` row over all levels dominated by ``clearance``;
    empty sets mean the printed axioms (made safe) coincide with the
    repaired engine on this database.
    """
    context = check_admissibility(db)
    lattice = context.lattice
    lattice.check_level(clearance)

    def run(axioms: list[Rule]) -> set[tuple]:
        translator = _Translator(clearance, context, False, frozenset())
        program = Program()
        for row in sorted(context.level_rows):
            program.add_fact(DAtom("level", tuple(Constant(x) for x in row)))
        for row in sorted(context.order_rows):
            program.add_fact(DAtom("order", tuple(Constant(x) for x in row)))
        for clause in db.atomized_secured_clauses() + db.atomized_plain_clauses():
            for rule in translator.translate_clause(clause):
                program.add_rule(rule)
        for rule in axioms:
            program.add_rule(rule)
        model = evaluate(program)
        return {
            row for row in model.rows("bel")
            if str(row[6]) == "cau" and lattice.leq(str(row[5]), clearance)
        }

    faithful = run(faithful_figure12_axioms())
    spec = run(engine_axioms())
    return {"faithful_only": faithful - spec, "spec_only": spec - faithful}


# ----------------------------------------------------------------------
# Translation
# ----------------------------------------------------------------------
#: guards every :class:`ReducedProgram`'s ``_audited`` set (held briefly).
_AUDITED_LOCK = threading.Lock()


@dataclass
class ReducedProgram:
    """``Delta_r = <tau(Delta), A>`` ready for bottom-up evaluation."""

    program: Program
    clearance: str
    context: LatticeContext
    specialized: bool
    user_modes: frozenset[str]
    #: resolved storage backend the least model is computed on; it picks
    #: the semi-naive plan (:func:`~repro.datalog.engine.native_plan`).
    backend: str = "dict"
    #: the database prefix this program translates: the clause counts of
    #: Lambda, Sigma and Pi.
    source: tuple[int, ...] = ()
    #: how many of ``program.rules`` translate clauses; the axioms follow.
    clause_rules: int = 0
    #: the least model, published whole by :meth:`model` and never edited
    #: afterwards: every session at this program's clearance reads it.
    _model: Database | None = None
    #: what :meth:`model` extends -- a predecessor's model plus the facts
    #: added since, or why there is none to extend; dropped once the
    #: model is built, so the predecessor can be collected.
    _base: Increment | None = None
    #: how many times the fixpoint actually ran (from scratch or by
    #: extending a predecessor) -- repeated queries against the cached
    #: least model must leave this at 1.
    fixpoint_runs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    #: audit logs this model has been walked into (:meth:`audit_once`).
    _audited: "weakref.WeakSet" = field(default_factory=weakref.WeakSet,
                                        repr=False, compare=False)

    # -- evaluation -------------------------------------------------------
    def model(self) -> Database:
        """The stratified least model, built once.

        When :func:`translate` extended a predecessor snapshot by facts
        only, the model is built from the predecessor's published model
        by insert-only maintenance (``evaluate(..., increment=...)``):
        the predecessor's model is copied, never edited, and the copy
        is recomputed from scratch when a stratum negates a predicate
        that gained rows.  Either way the model equals the from-scratch
        least model of :attr:`program`.

        Concurrent callers wait for the build in progress; a build that
        raises (a budget abort, say) publishes nothing, and the next
        caller builds again.
        """
        model = self._model
        if model is None:
            with build_lock(self._lock, "reduction-model"):
                model = self._model
                if model is None:
                    model = evaluate(self.program, backend=self.backend,
                                     increment=self._base)
                    self.fixpoint_runs += 1
                    self._model = model
                    self._base = None
        return model

    def rel_rows(self) -> set[tuple]:
        """All derived cells as ``(p, k, a, v, c, l)`` rows."""
        if not self.specialized:
            return set(self.model().rows("rel"))
        rows: set[tuple] = set()
        for level in self.context.lattice.levels:
            for row in self.model().rows(_rel_at(level)):
                rows.add((*row, level))
        return rows

    def bel_rows(self, mode: str, level: str) -> set[tuple]:
        """Cells believed at ``level`` in ``mode``: ``(p, k, a, v, c)`` rows.

        Note the projection: the reduction's ``bel`` carries the believing
        level and the *cell's* classification, not its source level.
        """
        self.context.lattice.check_level(level)
        rows: set[tuple] = set()
        if not self.specialized or mode in self.user_modes:
            for row in self.model().rows("bel"):
                if str(row[5]) == level and str(row[6]) == mode:
                    rows.add(tuple(row[:5]))
        if self.specialized and mode in BUILTIN_MODES:
            for row in self.model().rows(_bel_at(level)):
                if str(row[5]) == mode:
                    rows.add(tuple(row[:5]))
        return rows

    def audit_once(self, audit) -> None:
        """Walk the model into ``audit`` (:meth:`audit_model`) once per log.

        Every session sharing this program would emit the same events, so
        the trail of a snapshot does not depend on how its asks spread
        over the pooled sessions.
        """
        with _AUDITED_LOCK:
            if audit in self._audited:
                return
            self._audited.add(audit)
        self.audit_model(audit)

    def audit_model(self, audit) -> None:
        """Emit MLS audit events implied by the computed least model.

        The reduction path never *enumerates* downward reads while
        joining -- they are ordinary Datalog tuples -- but the repaired
        axioms materialize exactly the projections an auditor needs:
        every ``vis`` row with source level below believing level is a
        ``cross_level_read``, and every ``outranked`` row is a cautious
        ``override``.  Only believing levels at or below this program's
        clearance are reported (levels above it are never served).

        Events are counted per distinct event and emitted in sorted
        order, each once with its count, so the trail does not depend on
        the order the model's row sets iterate in (which varies with the
        string hash seed).
        """
        lattice = self.context.lattice
        model = self.model()
        # (kind, believer, source or class, predicate, attribute); reads
        # carry no attribute.
        events: Counter[tuple[str, str, str, str, str]] = Counter()
        if self.specialized:
            for level in sorted(lattice.levels):
                if not lattice.leq(level, self.clearance):
                    continue
                for row in model.rows(_vis_at(level)):
                    source = str(row[5])
                    if source != level:
                        events["cross_level_read", level, source,
                               str(row[0]), ""] += 1
                for row in model.rows(_outranked_at(level)):
                    events["override", level, str(row[3]),
                           str(row[0]), str(row[2])] += 1
        else:
            for row in model.rows("vis"):
                source, believer = str(row[5]), str(row[6])
                if source != believer and lattice.leq(believer, self.clearance):
                    events["cross_level_read", believer, source,
                           str(row[0]), ""] += 1
            for row in model.rows("outranked"):
                believer = str(row[4])
                if lattice.leq(believer, self.clearance):
                    events["override", believer, str(row[3]),
                           str(row[0]), str(row[2])] += 1
        for (kind, subject, source, pred, attr), times in sorted(events.items()):
            if kind == "cross_level_read":
                audit.emit(kind, subject=subject, object=source, mode="opt",
                           predicate=pred, times=times)
            else:
                audit.emit(kind, subject=subject, object=source, mode="cau",
                           predicate=pred, attribute=attr, times=times)

    def query(self, query: Query,
              model: Database | None = None) -> list[dict[str, object]]:
        """Answer a MultiLog query against the reduced program.

        Returns one ``{variable_name: value}`` dict per distinct answer,
        in a fixed order (sorted by row).  The least model is computed once (see :meth:`model`); each query
        only fires its non-recursive ``__answer`` rules against it, so
        repeated asks never re-run the fixpoint.  ``model`` serves the
        query from the partial model a budget abort left behind instead
        (the resilience executor's salvage), leaving the shared one
        untouched.
        """
        body = atomize_body(query.body)
        variables = sorted(
            {v for atom in body for v in atom.variables()}, key=lambda v: v.name
        )
        translator = _Translator(self.clearance, self.context, self.specialized,
                                 self.user_modes)
        goal_rules = []
        for grounding, datalog_body in translator.body_alternatives(body):
            head_args = tuple(translator._subst_term(v, grounding) for v in variables)
            goal_rules.append(Rule(DAtom(ANSWER_PREDICATE, head_args), datalog_body))
        if model is None:
            model = self.model()
        rows = evaluate_goal_rules(model, goal_rules).get(ANSWER_PREDICATE, set())
        # Sorted: a row set iterates in an order that varies with the
        # string hash seed and the model's insertion history.
        return [
            {v.name: value for v, value in zip(variables, row)}
            for row in sorted(rows, key=repr)
        ]


def _rel_at(level: str) -> str:
    return f"rel@{level}"


def _bel_at(level: str) -> str:
    return f"bel@{level}"


def _vis_at(level: str) -> str:
    return f"vis@{level}"


def _outranked_at(level: str) -> str:
    return f"outranked@{level}"


class _Translator:
    """Implements tau and lambda for one session clearance."""

    def __init__(self, clearance: str, context: LatticeContext,
                 specialized: bool, user_modes: frozenset[str]):
        self.clearance = clearance
        self.context = context
        self.lattice: SecurityLattice = context.lattice
        self.specialized = specialized
        self.user_modes = user_modes

    # -- level grounding (specialized mode) --------------------------------
    def _level_variables(self, atoms: list[BodyAtom]) -> list[Variable]:
        """Variables occurring in level slots of m-/b-atoms."""
        out: list[Variable] = []
        for atom in atoms:
            matom = atom.matom if isinstance(atom, BAtom) else atom
            if isinstance(matom, MAtom) and isinstance(matom.level, Variable):
                if matom.level not in out:
                    out.append(matom.level)
        return out

    def _level_groundings(self, atoms: list[BodyAtom]) -> list[dict[Variable, Constant]]:
        if not self.specialized:
            return [{}]
        level_vars = self._level_variables(atoms)
        if not level_vars:
            return [{}]
        candidates = sorted(self.lattice.down_set(self.clearance))
        groundings = []
        for combo in itertools.product(candidates, repeat=len(level_vars)):
            groundings.append({var: Constant(level) for var, level in zip(level_vars, combo)})
        return groundings

    @staticmethod
    def _subst_term(term: Term, grounding: dict[Variable, Constant]) -> Term:
        if isinstance(term, Variable) and term in grounding:
            return grounding[term]
        return term

    # -- atoms --------------------------------------------------------------
    def _rel_atom(self, matom: MAtom, grounding: dict[Variable, Constant]) -> DAtom:
        level = self._subst_term(matom.level, grounding)
        args = (Constant(matom.pred), self._subst_term(matom.key, grounding),
                Constant(matom.attr), self._subst_term(matom.value, grounding),
                self._subst_term(matom.cls, grounding))
        if self.specialized:
            if not isinstance(level, Constant):
                raise MultiLogError(
                    f"level of {matom} must be ground for the specialized reduction"
                )
            return DAtom(_rel_at(str(level.value)), args)
        return DAtom("rel", (*args, level))

    def _bel_atom(self, batom: BAtom, grounding: dict[Variable, Constant]) -> DAtom:
        matom = batom.matom
        level = self._subst_term(matom.level, grounding)
        args = (Constant(matom.pred), self._subst_term(matom.key, grounding),
                Constant(matom.attr), self._subst_term(matom.value, grounding),
                self._subst_term(matom.cls, grounding))
        mode = batom.mode
        if isinstance(mode, Constant) and str(mode.value) in self.user_modes:
            if not isinstance(level, Constant):
                raise MultiLogError(
                    f"level of {batom} must be ground for a user-defined mode"
                )
            return DAtom(USER_BELIEF_PREDICATE, (*args, level, mode))
        if self.specialized:
            if not isinstance(level, Constant):
                raise MultiLogError(
                    f"level of {batom} must be ground for the specialized reduction"
                )
            return DAtom(_bel_at(str(level.value)), (*args, mode))
        return DAtom("bel", (*args, level, mode))

    def _guards(self, level: Term, cls: Term,
                grounding: dict[Variable, Constant]) -> list[DLiteral]:
        """The lambda encoding: ``dominate(l, u)`` and ``dominate(c, u)``."""
        u = Constant(self.clearance)
        return [
            DLiteral(DAtom("dominate", (self._subst_term(level, grounding), u))),
            DLiteral(DAtom("dominate", (self._subst_term(cls, grounding), u))),
        ]

    def translate_body_atom(self, atom: BodyAtom,
                            grounding: dict[Variable, Constant]) -> list[DLiteral]:
        if isinstance(atom, MAtom):
            return [DLiteral(self._rel_atom(atom, grounding))] + \
                self._guards(atom.level, atom.cls, grounding)
        if isinstance(atom, BAtom):
            return [DLiteral(self._bel_atom(atom, grounding))] + \
                self._guards(atom.matom.level, atom.matom.cls, grounding)
        if isinstance(atom, PAtom):
            args = tuple(self._subst_term(a, grounding) for a in atom.args)
            return [DLiteral(DAtom(atom.pred, args))]
        if isinstance(atom, LAtom):
            return [DLiteral(DAtom("level", (self._subst_term(atom.level, grounding),)))]
        if isinstance(atom, HAtom):
            return [DLiteral(DAtom("order", (self._subst_term(atom.low, grounding),
                                             self._subst_term(atom.high, grounding))))]
        if isinstance(atom, LeqGoal):
            return [DLiteral(DAtom("dominate", (self._subst_term(atom.low, grounding),
                                                self._subst_term(atom.high, grounding))))]
        raise MultiLogError(f"cannot translate body atom {atom!r}")

    def body_alternatives(
        self, body: tuple[BodyAtom, ...]
    ) -> list[tuple[dict[Variable, Constant], tuple[DLiteral, ...]]]:
        """All grounded translations of a body, with their level groundings."""
        alternatives = []
        for grounding in self._level_groundings(list(body)):
            literals: list[DLiteral] = []
            for atom in body:
                literals.extend(self.translate_body_atom(atom, grounding))
            alternatives.append((grounding, tuple(literals)))
        return alternatives

    # -- clauses --------------------------------------------------------------
    def translate_clause(self, clause: Clause) -> list[Rule]:
        """tau of one atomized clause (:meth:`MultiLogDatabase.atomize`)."""
        head = clause.head
        body = clause.body
        rules: list[Rule] = []
        if isinstance(head, MAtom):
            for grounding in self._level_groundings(list(body)):
                head_atom = self._rel_atom(head, grounding)
                literals: list[DLiteral] = []
                for atom in body:
                    literals.extend(self.translate_body_atom(atom, grounding))
                rules.append(Rule(head_atom, tuple(literals)))
            return rules
        if isinstance(head, PAtom):
            head_atom = DAtom(head.pred, head.args)
        elif isinstance(head, LAtom):
            head_atom = DAtom("level", (head.level,))
        elif isinstance(head, HAtom):
            head_atom = DAtom("order", (head.low, head.high))
        else:
            raise MultiLogError(f"cannot translate clause head {head!r}")
        for grounding in self._level_groundings(list(body)):
            literals = []
            for atom in body:
                literals.extend(self.translate_body_atom(atom, grounding))
            rules.append(Rule(head_atom, tuple(literals)))
        return rules

    def specialized_axioms(self) -> list[Rule]:
        """The engine axioms split per security level."""
        v = Variable
        rules = [
            Rule(DAtom("dominate", (v("X"), v("Y"))),
                 (DLiteral(DAtom("order", (v("X"), v("Y")))),)),
            Rule(DAtom("dominate", (v("X"), v("X"))),
                 (DLiteral(DAtom("level", (v("X"),))),)),
            Rule(DAtom("dominate", (v("X"), v("Y"))),
                 (DLiteral(DAtom("order", (v("X"), v("Z")))),
                  DLiteral(DAtom("dominate", (v("Z"), v("Y")))))),
            Rule(DAtom("strictly_below", (v("X"), v("Y"))),
                 (DLiteral(DAtom("dominate", (v("X"), v("Y")))),
                  DLiteral(DAtom("!=", (v("X"), v("Y")))))),
        ]
        cell = (v("P"), v("K"), v("A"), v("V"), v("C"))
        for h in sorted(self.lattice.levels):
            rules.append(Rule(
                DAtom(_bel_at(h), (*cell, Constant("fir"))),
                (DLiteral(DAtom(_rel_at(h), cell)),),
            ))
            for low in sorted(self.lattice.down_set(h)):
                rules.append(Rule(
                    DAtom(_vis_at(h), (*cell, Constant(low))),
                    (DLiteral(DAtom(_rel_at(low), cell)),),
                ))
            rules.append(Rule(
                DAtom(_bel_at(h), (*cell, Constant("opt"))),
                (DLiteral(DAtom(_vis_at(h), (*cell, v("L")))),),
            ))
            rules.append(Rule(
                DAtom(_outranked_at(h), (v("P"), v("K"), v("A"), v("C"))),
                (DLiteral(DAtom(_vis_at(h), (*cell, v("L")))),
                 DLiteral(DAtom(_vis_at(h), (v("P"), v("K"), v("A"), v("V2"), v("C2"), v("L2")))),
                 DLiteral(DAtom("strictly_below", (v("C"), v("C2"))))),
            ))
            rules.append(Rule(
                DAtom(_bel_at(h), (*cell, Constant("cau"))),
                (DLiteral(DAtom(_vis_at(h), (*cell, v("L")))),
                 DLiteral(DAtom(_outranked_at(h), (v("P"), v("K"), v("A"), v("C"))),
                          positive=False)),
            ))
            # Bridge: expose built-in beliefs as bel/7 so user-defined
            # modes (plain bel/7 rules in Pi) keep working when the
            # program is level-specialized.
            rules.append(Rule(
                DAtom(USER_BELIEF_PREDICATE, (*cell, Constant(h), v("M"))),
                (DLiteral(DAtom(_bel_at(h), (*cell, v("M")))),),
            ))
        return rules


def needs_specialization(db: MultiLogDatabase) -> bool:
    """True when any clause body contains a b-atom (possible belief feedback).

    A b-atom in a Sigma body makes the single-predicate reduction
    unstratifiable outright; one in a Pi body can do so through a
    p-predicate consumed by Sigma.  Specialization is sound in both cases,
    so the check is deliberately syntactic and conservative.
    """
    return _scan(db.atomized_secured_clauses() + db.atomized_plain_clauses())[0]


def _scan(clauses: list[Clause]) -> tuple[bool, frozenset[str]]:
    """Over atomized clauses: whether a body holds a b-atom
    (:func:`needs_specialization`), and the user-defined belief modes
    their ``bel/7`` heads define."""
    has_batom = False
    modes: set[str] = set()
    for clause in clauses:
        head = clause.head
        if (isinstance(head, PAtom) and head.pred == USER_BELIEF_PREDICATE
                and len(head.args) == 7 and isinstance(head.args[6], Constant)):
            modes.add(str(head.args[6].value))
        if not has_batom:
            has_batom = any(isinstance(atom, BAtom) for atom in clause.body)
    return has_batom, frozenset(modes)


def _source(db: MultiLogDatabase) -> tuple[int, ...]:
    return (len(db.lattice_clauses), len(db.secured_clauses), len(db.plain_clauses))


#: tau-translations memoized per database: key ``(clearance, specialize,
#: backend)``, stamped with the database's clause-count version.  Sessions
#: over the same database at the same clearance (and backend) share one
#: ReducedProgram -- and therefore one cached least model.
_TRANSLATE_MEMO = VersionedMemo("tau-translations")


def translate(db: MultiLogDatabase, clearance: str,
              context: LatticeContext | None = None,
              specialize: bool | None = None,
              backend: str | None = None) -> ReducedProgram:
    """``tau`` applied to a whole database, plus the axiom set **A**.

    Memoized per ``(database-version, clearance, specialize, backend)``;
    adding any clause bumps the database version and invalidates.  The
    entry a new version evicts is the predecessor the new translation
    extends (:func:`_translate`).
    """
    resolved = resolve_backend(backend)
    key = (clearance, specialize, resolved)
    return _TRANSLATE_MEMO.get_or_extend(
        db, db.version, key,
        lambda previous: _translate(db, clearance, context, specialize,
                                    resolved, previous))


def _translate(db: MultiLogDatabase, clearance: str,
               context: LatticeContext | None = None,
               specialize: bool | None = None,
               backend: str = "dict",
               previous: ReducedProgram | None = None) -> ReducedProgram:
    """tau of ``db``: :func:`_extend` ``previous`` when it can, else the
    whole database.  The ``tau-translate`` span records ``incremental``
    and, when ``previous`` was not extended, the ``reason``."""
    with _current_obs().recorder.span("tau-translate", clearance=clearance) as span:
        reason = ""
        reduced = None
        if previous is not None:
            reduced, reason = _extend(previous, db, specialize)
        incremental = reduced is not None
        if reduced is None:
            reduced = _translate_all(db, clearance, context, specialize, backend)
            if reason:
                reduced._base = Increment(None, reason=reason)
        span.set(rules=len(reduced.program.rules), facts=len(reduced.program.facts),
                 specialized=reduced.specialized, incremental=incremental)
        if reason:
            span.set(reason=reason)
    return reduced


def _translate_all(db: MultiLogDatabase, clearance: str,
                   context: LatticeContext | None, specialize: bool | None,
                   backend: str) -> ReducedProgram:
    """tau of every clause of ``db``, atomized once."""
    resolved_context = context if context is not None else check_admissibility(db)
    resolved_context.lattice.check_level(clearance)
    # Recorded before the clauses are read, so it never claims more.
    source = _source(db)
    clauses = db.atomized_secured_clauses() + db.atomized_plain_clauses()
    has_batom, user_modes = _scan(clauses)
    # Prefer the paper-faithful single rel/bel reduction; fall back to
    # level specialization when belief feedback makes it unstratifiable.
    specialized = has_batom if specialize is None else specialize
    translator = _Translator(clearance, resolved_context, specialized, user_modes)
    program = Program()
    for row in sorted(resolved_context.level_rows):
        program.add_fact(DAtom("level", tuple(Constant(v) for v in row)))
    for row in sorted(resolved_context.order_rows):
        program.add_fact(DAtom("order", tuple(Constant(v) for v in row)))
    for clause in clauses:
        for rule in translator.translate_clause(clause):
            program.add_rule(rule)
    clause_rules = len(program.rules)
    axioms = translator.specialized_axioms() if specialized else engine_axioms()
    for rule in axioms:
        program.add_rule(rule)
    return ReducedProgram(program, clearance, resolved_context, specialized,
                          user_modes, backend=backend, source=source,
                          clause_rules=clause_rules)


def _extend(previous: ReducedProgram, db: MultiLogDatabase,
            specialize: bool | None) -> tuple[ReducedProgram | None, str]:
    """tau of ``db`` as ``previous`` plus tau of the clauses appended since.

    tau is clause-local: a clause's rules depend only on the clause, the
    clearance, the lattice, whether the program is level-specialized and
    the user-defined modes.  So the extension is exact unless one of
    those moved; then it returns ``(None, reason)``:

    * ``lattice`` -- a Lambda clause was added;
    * ``specialization`` -- a new body b-atom would switch the automatic
      choice to the level-specialized reduction;
    * ``user-mode`` -- a new ``bel/7`` head defines a user mode.

    The extended program keeps ``previous``'s facts and clause rules,
    appends the new ones and then the axioms.  When the new clauses are
    facts only, its least model is ``previous``'s plus those facts
    (:class:`~repro.datalog.Increment`); a new rule records ``rule``.
    """
    source = _source(db)
    lattice_count, secured_count, plain_count = previous.source
    lattice_now, secured_now, plain_now = source
    if lattice_now != lattice_count:
        return None, "lattice"
    added = [atomic for clause in db.secured_clauses[secured_count:secured_now]
             + db.plain_clauses[plain_count:plain_now] for atomic in db.atomize(clause)]
    has_batom, modes = _scan(added)
    if has_batom and specialize is None and not previous.specialized:
        return None, "specialization"
    if not modes <= previous.user_modes:
        return None, "user-mode"
    translator = _Translator(previous.clearance, previous.context,
                             previous.specialized, previous.user_modes)
    old = previous.program
    program = Program()
    program.facts = list(old.facts)
    program.rules = old.rules[:previous.clause_rules]
    for clause in added:
        for rule in translator.translate_clause(clause):
            program.add_rule(rule)
    clause_rules = len(program.rules)
    program.rules.extend(old.rules[previous.clause_rules:])
    facts = tuple(program.facts[len(old.facts):])
    # ``_base`` before ``_model``: a build finishing in between publishes
    # the model first, so one of the two is always seen.
    base, model = previous._base, previous._model
    if clause_rules > previous.clause_rules:
        increment = Increment(None, reason="rule")
    elif model is not None:
        increment = Increment(model, facts)
    elif base is not None and base.model is not None:
        increment = Increment(base.model, base.facts + facts)
    else:
        increment = None
    return ReducedProgram(program, previous.clearance, previous.context,
                          previous.specialized, previous.user_modes,
                          backend=previous.backend, source=source,
                          clause_rules=clause_rules, _base=increment), ""
