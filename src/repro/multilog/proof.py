"""Operational semantics of MultiLog (Sections 5.2-5.4, Figures 9 and 11).

Two cooperating pieces:

* :class:`OperationalEngine` -- materializes everything derivable under
  ``<Delta, u>``: the set of m-cells (ground columns) and plain facts.
  Derivability is the least fixpoint of the proof rules; belief atoms in
  clause bodies are non-monotonic (cautious belief involves "no dominating
  cell"), so the engine runs an *alternating* fixpoint: an inner monotone
  round derives cells with b-atoms frozen against the previous round's
  cells, and outer rounds repeat until the cell set stabilizes.  Programs
  whose belief recursion is level-acyclic (every example in the paper)
  converge in at most ``|S| + 1`` outer rounds; oscillation raises
  :class:`~repro.errors.BeliefRecursionError` -- the operational analogue
  of recursion through negation.

* :class:`Prover` -- reconstructs sequent-style proof trees (Figure 11)
  for provable goals, with nodes named after the Figure 9 rules: EMPTY,
  AND, DEDUCTION-G, DEDUCTION-G', BELIEF, DEDUCTION-B, DESCEND-O,
  DESCEND-C1..C4, REFLEXIVITY, TRANSITIVITY, plus USER-BELIEF (Figure
  13).  Well-foundedness of the reconstruction is guaranteed by the
  derivation round recorded for every materialized fact: an explanation
  only recurses into strictly earlier rounds.

Bell-LaPadula is enforced exactly where the paper puts it: m-atom and
b-atom provability is guarded by ``level <= u`` and ``cls <= u``
(DEDUCTION-G' / BELIEF, and the ``lambda`` encoding of Section 6.1).
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.cache import build_lock
from repro.datalog.engine import MAX_ROUND_SPANS
from repro.datalog.terms import Constant, Term
from repro.datalog.unify import Substitution, unify_terms, walk
from repro.errors import BeliefRecursionError, MultiLogError, UnknownModeError
from repro.obs.context import current as _current_obs
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_SPAN
from repro.lattice import SecurityLattice
from repro.multilog.admissibility import LatticeContext, check_admissibility
from repro.multilog.ast import (
    BAtom,
    BMolecule,
    BodyAtom,
    Clause,
    HAtom,
    LAtom,
    LeqGoal,
    MAtom,
    MMolecule,
    MultiLogDatabase,
    PAtom,
    Query,
)

#: A ground m-cell: (pred, key, attr, value, cls, level).
CellRow = tuple[str, object, str, object, str, str]
#: A ground plain fact: (pred, args).
PRow = tuple[str, tuple[object, ...]]

BUILTIN_MODES = frozenset({"fir", "opt", "cau"})

#: The distinguished predicate of user-defined belief modes (Section 7).
USER_BELIEF_PREDICATE = "bel"


def _ground(term: Term, subst: Substitution) -> object:
    resolved = walk(term, subst)
    if not isinstance(resolved, Constant):
        raise MultiLogError(f"term {resolved!r} is not ground at derivation time")
    return resolved.value


def _bound_value(term: Term, subst: Substitution) -> object | None:
    """The value ``term`` is bound to under ``subst``, or ``None``."""
    resolved = walk(term, subst)
    return resolved.value if isinstance(resolved, Constant) else None


def atomize_body(body: tuple[BodyAtom, ...]) -> tuple[BodyAtom, ...]:
    """Expand molecules in a body into their atomic conjunctions."""
    out: list[BodyAtom] = []
    for atom in body:
        if isinstance(atom, (MMolecule, BMolecule)):
            out.extend(atom.atoms())
        else:
            out.append(atom)
    return tuple(out)



class CellStore(dict):
    """A ``{CellRow: stamp}`` dict with a ``(pred, attr)`` hash index.

    m-atom goals always carry a ground predicate and attribute name, so
    candidate matching probes the index instead of scanning the whole
    cell base -- the difference between O(matching) and O(all cells) per
    body literal on large databases.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._index: dict[tuple[str, str], list[CellRow]] = {}
        for row in self:
            self._index.setdefault((row[0], row[2]), []).append(row)

    def __setitem__(self, row: CellRow, stamp: int) -> None:
        if row not in self:
            self._index.setdefault((row[0], row[2]), []).append(row)
        super().__setitem__(row, stamp)

    def candidates(self, pred: str, attr: str) -> list[CellRow]:
        return self._index.get((pred, attr), [])


# ----------------------------------------------------------------------
# Proof trees
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProofTree:
    """A node of a sequent-style proof (Figure 11)."""

    rule: str
    conclusion: str
    premises: tuple["ProofTree", ...] = ()
    note: str = ""

    def height(self) -> int:
        """Maximum number of nodes on any root-to-leaf branch (Section 5.4)."""
        if not self.premises:
            return 1
        return 1 + max(p.height() for p in self.premises)

    def size(self) -> int:
        """Total number of nodes (Section 5.4)."""
        return 1 + sum(p.size() for p in self.premises)

    def rules_used(self) -> set[str]:
        out = {self.rule}
        for premise in self.premises:
            out |= premise.rules_used()
        return out

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        note = f"   % {self.note}" if self.note else ""
        lines = [f"{pad}({self.rule}) {self.conclusion}{note}"]
        lines.extend(p.pretty(indent + 1) for p in self.premises)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()


EMPTY_TREE = ProofTree("EMPTY", "[]")


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class OperationalEngine:
    """Materialized derivability under ``<Delta, u>``."""

    def __init__(self, db: MultiLogDatabase, clearance: str,
                 context: LatticeContext | None = None):
        self.db = db
        self.context = context if context is not None else check_admissibility(db)
        self.lattice: SecurityLattice = self.context.lattice
        self.clearance = self.lattice.check_level(clearance)
        self._sigma = [
            Clause(c.head, atomize_body(c.body)) for c in db.atomized_secured_clauses()
        ]
        self._pi = [
            Clause(c.head, atomize_body(c.body)) for c in db.atomized_plain_clauses()
        ]
        self._clauses = self._sigma + self._pi
        # Firing labels, precomputed once: str(clause) per inner pass
        # would dominate the instrumented path.
        self._labels = [str(c) for c in self._clauses]
        self._user_modes = self._discover_user_modes()
        self._cells: dict[CellRow, int] = {}
        self._pfacts: dict[PRow, int] = {}
        #: set only after ``_cells``/``_pfacts`` hold the finished fixpoint;
        #: sessions at this clearance share the engine and read them.
        self._computed = False
        self._lock = threading.Lock()

    # -- user-defined belief modes --------------------------------------
    def _discover_user_modes(self) -> set[str]:
        modes: set[str] = set()
        for clause in self._pi:
            head = clause.head
            if (isinstance(head, PAtom) and head.pred == USER_BELIEF_PREDICATE
                    and len(head.args) == 7 and isinstance(head.args[6], Constant)):
                mode = str(head.args[6].value)
                if mode in BUILTIN_MODES:
                    raise MultiLogError(
                        f"user rules may not redefine the built-in mode {mode!r}"
                    )
                modes.add(mode)
        return modes

    @property
    def modes(self) -> frozenset[str]:
        """All usable belief modes: built-ins plus user-defined ones."""
        return frozenset(BUILTIN_MODES | self._user_modes)

    # -- fixpoint ---------------------------------------------------------
    def compute(self) -> "OperationalEngine":
        """Run the alternating fixpoint (idempotent, built once).

        Reports into the ambient observation context: a ``fixpoint`` span
        with one ``round[i]`` child per outer round, per-clause firing
        counts and ``operational-outer``/``operational-inner`` round
        counts.  An ambient budget meter bounds the inner passes.
        Concurrent callers wait for the run in progress; a run that
        raises publishes nothing.
        """
        if self._computed:
            return self
        with build_lock(self._lock, "operational-fixpoint"):
            if not self._computed:
                self._compute()
        return self

    def _compute(self) -> None:
        ctx = _current_obs()
        recorder, metrics, meter = ctx.recorder, ctx.metrics, ctx.meter
        has_batoms = any(
            isinstance(atom, BAtom)
            or (isinstance(atom, PAtom) and atom.pred == USER_BELIEF_PREDICATE
                and len(atom.args) == 7)
            for clause in self._clauses
            for atom in clause.body
        )
        previous: dict[CellRow, int] = {}
        limit = 1 if not has_batoms else len(self.lattice) + 2
        with recorder.span("fixpoint", clearance=self.clearance) as fixpoint_span:
            for outer in range(1, limit + 2):
                with recorder.span(f"round[{outer}]", scope="operational-outer") as span:
                    cells, pfacts = self._inner_fixpoint(previous, recorder,
                                                         metrics, meter)
                    span.set(cells=len(cells), pfacts=len(pfacts))
                if not has_batoms or set(cells) == set(previous):
                    self._cells, self._pfacts = cells, pfacts
                    self._computed = True
                    metrics.record_rounds("operational-outer", outer)
                    fixpoint_span.set(outer_rounds=outer, cells=len(cells),
                                      pfacts=len(pfacts))
                    return
                previous = cells
        raise BeliefRecursionError(
            "the belief fixpoint did not converge within "
            f"{limit} rounds; the program's belief recursion is not level-stratified"
        )

    def _inner_fixpoint(self, belief_cells: dict[CellRow, int],
                        recorder=None, metrics=NULL_METRICS,
                        meter=None) -> tuple[dict[CellRow, int], dict[PRow, int]]:
        # Every fact is stamped with a strictly increasing derivation
        # counter; a fact's supporting body facts always carry smaller
        # stamps, which makes proof reconstruction well-founded.
        cells: CellStore = CellStore()
        pfacts: dict[PRow, int] = {}
        stamp = 0
        changed = True
        rounds = 0
        while changed:
            rounds += 1
            if meter is not None:
                meter.begin_round("operational")
            if recorder is not None and rounds <= MAX_ROUND_SPANS:
                span = recorder.span(f"round[{rounds}]", scope="operational-inner")
            else:
                span = NULL_SPAN
            with span:
                changed = False
                added = 0
                for clause, label in zip(self._clauses, self._labels):
                    if meter is not None:
                        meter.check_time("operational")
                    fired = 0
                    for subst in self._solve_body(clause.body, 0, {}, cells,
                                                  pfacts, belief_cells):
                        fired += 1
                        stamp += 1
                        if self._derive_head(clause.head, subst, cells, pfacts, stamp):
                            changed = True
                            added += 1
                    metrics.rule_fired(label, fired)
                span.set(delta=added)
            if meter is not None and added:
                meter.charge_rows(added, "operational")
        metrics.record_rounds("operational-inner", rounds)
        return cells, pfacts

    def _derive_head(self, head: object, subst: Substitution,
                     cells: dict[CellRow, int], pfacts: dict[PRow, int],
                     round_index: int) -> bool:
        if isinstance(head, MAtom):
            level = str(_ground(head.level, subst))
            cls = str(_ground(head.cls, subst))
            self.lattice.check_level(level)
            self.lattice.check_level(cls)
            # DEDUCTION-G': m-cells above the session clearance are not
            # derivable at <Delta, u>.
            if not self.lattice.leq(level, self.clearance):
                return False
            row: CellRow = (
                head.pred,
                _ground(head.key, subst),
                head.attr,
                _ground(head.value, subst),
                cls,
                level,
            )
            if row not in cells:
                cells[row] = round_index
                return True
            return False
        if isinstance(head, PAtom):
            row_p: PRow = (head.pred, tuple(_ground(a, subst) for a in head.args))
            if row_p not in pfacts:
                pfacts[row_p] = round_index
                return True
            return False
        raise MultiLogError(f"unexpected head atom {head!r}")

    # -- body solving -------------------------------------------------------
    def _solve_body(self, body: tuple[BodyAtom, ...], index: int, subst: Substitution,
                    cells: dict[CellRow, int], pfacts: dict[PRow, int],
                    belief_cells: dict[CellRow, int],
                    round_cap: int | None = None) -> Iterator[Substitution]:
        if index == len(body):
            yield subst
            return
        atom = body[index]
        for extended in self._solve_atom(atom, subst, cells, pfacts, belief_cells, round_cap):
            yield from self._solve_body(body, index + 1, extended, cells, pfacts,
                                        belief_cells, round_cap)

    def _solve_atom(self, atom: BodyAtom, subst: Substitution,
                    cells: dict[CellRow, int], pfacts: dict[PRow, int],
                    belief_cells: dict[CellRow, int],
                    round_cap: int | None = None) -> Iterator[Substitution]:
        if isinstance(atom, MAtom):
            yield from self._solve_matom(atom, subst, cells, round_cap)
        elif isinstance(atom, BAtom):
            yield from self._solve_batom(atom, subst, belief_cells, pfacts, round_cap)
        elif isinstance(atom, PAtom):
            yield from self._solve_patom(atom, subst, pfacts, round_cap, belief_cells)
        elif isinstance(atom, LAtom):
            for level in sorted(self.lattice.levels):
                extended = unify_terms(atom.level, Constant(level), subst)
                if extended is not None:
                    yield extended
        elif isinstance(atom, HAtom):
            for low, high in sorted(self.context.order_rows):
                extended = unify_terms(atom.low, Constant(low), subst)
                if extended is None:
                    continue
                extended = unify_terms(atom.high, Constant(high), extended)
                if extended is not None:
                    yield extended
        elif isinstance(atom, LeqGoal):
            yield from self._solve_leq(atom.low, atom.high, subst)
        else:
            raise MultiLogError(f"unexpected body atom {atom!r}")

    def _solve_leq(self, low: Term, high: Term, subst: Substitution) -> Iterator[Substitution]:
        for lo in sorted(self.lattice.levels):
            extended = unify_terms(low, Constant(lo), subst)
            if extended is None:
                continue
            for hi in sorted(self.lattice.up_set(lo)):
                final = unify_terms(high, Constant(hi), extended)
                if final is not None:
                    yield final

    def _solve_matom(self, atom: MAtom, subst: Substitution,
                     cells: dict[CellRow, int],
                     round_cap: int | None = None) -> Iterator[Substitution]:
        if isinstance(cells, CellStore):
            candidates: Iterable[CellRow] = list(cells.candidates(atom.pred, atom.attr))
        else:
            candidates = list(cells)
        for row in candidates:
            round_index = cells[row]
            if round_cap is not None and round_index >= round_cap:
                continue
            extended = self._unify_cell(atom, row, subst)
            if extended is None:
                continue
            # lambda guards (Section 6.1): level <= u and cls <= u.
            if self.lattice.leq(row[5], self.clearance) and self.lattice.leq(row[4], self.clearance):
                yield extended

    def _unify_cell(self, atom: MAtom, row: CellRow, subst: Substitution) -> Substitution | None:
        pred, key, attr, value, cls, level = row
        if atom.pred != pred or atom.attr != attr:
            return None
        out: Substitution | None = subst
        for term, ground in ((atom.level, level), (atom.key, key),
                             (atom.cls, cls), (atom.value, value)):
            out = unify_terms(term, Constant(ground), out)
            if out is None:
                return None
        return out

    def _solve_patom(self, atom: PAtom, subst: Substitution,
                     pfacts: dict[PRow, int],
                     round_cap: int | None,
                     belief_cells: dict[CellRow, int] | None = None) -> Iterator[Substitution]:
        if atom.pred == "dominate" and len(atom.args) == 2:
            yield from self._solve_leq(atom.args[0], atom.args[1], subst)
            return
        if atom.pred == "level" and len(atom.args) == 1:
            yield from self._solve_atom(LAtom(atom.args[0]), subst, {}, pfacts, {}, None)
            return
        if atom.pred == USER_BELIEF_PREDICATE and len(atom.args) == 7:
            # Built-in beliefs are visible to Pi rules as ordinary bel/7
            # facts, so user-defined modes can refine fir/opt/cau.
            base = belief_cells if belief_cells is not None else self._cells
            yield from self._solve_bel_predicate(atom, subst, base)
        for (pred, args), round_index in list(pfacts.items()):
            if pred != atom.pred or len(args) != len(atom.args):
                continue
            if round_cap is not None and round_index >= round_cap:
                continue
            out: Substitution | None = subst
            for term, ground in zip(atom.args, args):
                out = unify_terms(term, Constant(ground), out)
                if out is None:
                    break
            if out is not None:
                yield out

    def _solve_bel_predicate(self, atom: PAtom, subst: Substitution,
                             belief_cells: dict[CellRow, int]) -> Iterator[Substitution]:
        """Match ``bel(P, K, A, V, C, H, m)`` against built-in beliefs."""
        mode_term = walk(atom.args[6], subst)
        if isinstance(mode_term, Constant):
            if str(mode_term.value) not in BUILTIN_MODES:
                return
            mode_names = [str(mode_term.value)]
        else:
            mode_names = sorted(BUILTIN_MODES)
        pred, attr = _bound_value(atom.args[0], subst), _bound_value(atom.args[2], subst)
        for mode in mode_names:
            with_mode = unify_terms(atom.args[6], Constant(mode), subst)
            if with_mode is None:
                continue
            for h, level_subst in self._believing_levels(atom.args[5], with_mode):
                for row in self.believed_cells(mode, h, belief_cells):
                    if ((pred is not None and row[0] != pred)
                            or (attr is not None and row[2] != attr)):
                        continue
                    out: Substitution | None = level_subst
                    for term, ground in zip(atom.args[:5], row[:5]):
                        out = unify_terms(term, Constant(ground), out)
                        if out is None:
                            break
                    if out is not None and self.lattice.leq(row[4], self.clearance):
                        yield out

    # -- belief ------------------------------------------------------------
    def _believing_levels(self, term: Term, subst: Substitution) -> Iterator[tuple[str, Substitution]]:
        """Levels h <= u the b-atom's level term can denote (BELIEF guard)."""
        for level in sorted(self.lattice.down_set(self.clearance)):
            extended = unify_terms(term, Constant(level), subst)
            if extended is not None:
                yield level, extended

    def _solve_batom(self, atom: BAtom, subst: Substitution,
                     belief_cells: dict[CellRow, int], pfacts: dict[PRow, int],
                     round_cap: int | None) -> Iterator[Substitution]:
        mode_term = walk(atom.mode, subst)
        if isinstance(mode_term, Constant):
            mode_names: list[str] = [str(mode_term.value)]
        else:
            mode_names = sorted(self.modes)
        for mode in mode_names:
            if mode not in self.modes:
                raise UnknownModeError(
                    f"belief mode {mode!r} is neither built-in nor defined by "
                    f"'{USER_BELIEF_PREDICATE}/7' rules"
                )
            mode_subst = unify_terms(atom.mode, Constant(mode), subst)
            if mode_subst is None:
                continue
            if mode in BUILTIN_MODES:
                yield from self._solve_builtin_belief(atom, mode, mode_subst, belief_cells)
            else:
                yield from self._solve_user_belief(atom, mode, mode_subst, pfacts, round_cap)

    def _solve_builtin_belief(self, atom: BAtom, mode: str, subst: Substitution,
                              belief_cells: dict[CellRow, int]) -> Iterator[Substitution]:
        matom = atom.matom
        pred, attr = matom.pred, matom.attr
        for h, level_subst in self._believing_levels(matom.level, subst):
            at_h = MAtom(Constant(h), pred, matom.key, attr, matom.cls, matom.value)
            for row in self.believed_cells(mode, h, belief_cells):
                if row[0] != pred or row[2] != attr:
                    continue
                extended = self._unify_cell(
                    at_h, (row[0], row[1], row[2], row[3], row[4], h), level_subst)
                if extended is None:
                    continue
                if self.lattice.leq(row[4], self.clearance):
                    yield extended

    def believed_cells(self, mode: str, level: str,
                       cells: dict[CellRow, int] | None = None) -> list[CellRow]:
        """All cells believed at ``level`` in a built-in ``mode``.

        Rows keep their *source* classification and level, so callers can
        see where a belief came from; the believing level is the argument.
        """
        base = cells if cells is not None else self.cells()
        self.lattice.check_level(level)
        if mode == "fir":
            return [row for row in base if row[5] == level]
        below = self.lattice.down_set(level)
        visible = [row for row in base if row[5] in below]
        audit = _current_obs().audit
        if audit.enabled:
            # Each distinct event is emitted once, first occurrence
            # first, with its row count: the same trail as one emit per
            # row.  Overrides below are batched the same way.
            reads: Counter[tuple[str, str]] = Counter(
                (row[5], row[0]) for row in visible if row[5] != level)
            for (source, pred), times in reads.items():
                audit.emit("cross_level_read", subject=level, object=source,
                           mode=mode, predicate=pred, times=times)
        if mode == "opt":
            return visible
        if mode != "cau":
            raise UnknownModeError(f"{mode!r} is not a built-in mode")
        # A row is overridden iff a visible row of its (pred, key, attr)
        # slot has a strictly higher class.  Intersecting the slot's
        # distinct classes with the classes strictly above the row's is
        # that test verbatim, so it is exact on partial orders as well
        # as chains.
        classes: dict[tuple, set[str]] = {}
        for row in visible:
            classes.setdefault(row[:3], set()).add(row[4])
        above = {cls: self.lattice.up_set(cls) - {cls} for cls in self.lattice.levels}
        believed: list[CellRow] = []
        overrides: Counter[tuple[str, str, str]] = Counter()
        for row in visible:
            if above[row[4]].isdisjoint(classes[row[:3]]):
                believed.append(row)
            elif audit.enabled:
                overrides[row[4], row[0], row[2]] += 1
        for (cls, pred, attr), times in overrides.items():
            audit.emit("override", subject=level, object=cls, mode="cau",
                       predicate=pred, attribute=attr, times=times)
        return believed

    def _solve_user_belief(self, atom: BAtom, mode: str, subst: Substitution,
                           pfacts: dict[PRow, int],
                           round_cap: int | None) -> Iterator[Substitution]:
        matom = atom.matom
        for h, level_subst in self._believing_levels(matom.level, subst):
            goal = PAtom(USER_BELIEF_PREDICATE, (
                Constant(matom.pred), matom.key, Constant(matom.attr),
                matom.value, matom.cls, Constant(h), Constant(mode),
            ))
            for extended in self._solve_patom(goal, level_subst, pfacts, round_cap, {}):
                cls = walk(matom.cls, extended)
                if isinstance(cls, Constant) and not self.lattice.leq(str(cls.value), self.clearance):
                    continue
                yield extended

    # -- public accessors ---------------------------------------------------
    def cells(self) -> dict[CellRow, int]:
        self.compute()
        return self._cells

    def pfacts(self) -> dict[PRow, int]:
        self.compute()
        return self._pfacts

    def solve(self, query: Query) -> list[Substitution]:
        """All answer substitutions of a query under ``<Delta, u>``."""
        self.compute()
        # The fixpoint may have been built by another request (engines are
        # shared per snapshot): the caller's deadline still applies, as it
        # does to the reduction engine's answer rules.
        meter = _current_obs().meter
        if meter is not None:
            meter.check_time("solve")
        body = atomize_body(query.body)
        answers: list[Substitution] = []
        seen: set[tuple] = set()
        variables = sorted(query.variables(), key=lambda v: v.name)
        for subst in self._solve_body(body, 0, {}, self._cells, self._pfacts, self._cells):
            key = tuple(repr(walk(v, subst)) for v in variables)
            if key not in seen:
                seen.add(key)
                answers.append({
                    v.name: getattr(walk(v, subst), "value", walk(v, subst))
                    for v in variables
                })
        return answers


# ----------------------------------------------------------------------
# Proof-tree reconstruction
# ----------------------------------------------------------------------
class Prover:
    """Builds Figure 11-style proof trees over a computed engine."""

    def __init__(self, engine: OperationalEngine):
        engine.compute()
        self.engine = engine
        self.lattice = engine.lattice
        self.clearance = engine.clearance

    # -- public entry points ------------------------------------------------
    def prove_query(self, query: Query) -> list[tuple[Substitution, ProofTree]]:
        """One proof tree per distinct answer substitution."""
        body = atomize_body(query.body)
        results: list[tuple[Substitution, ProofTree]] = []
        seen: set[tuple] = set()
        variables = sorted(query.variables(), key=lambda v: v.name)
        for subst, tree in self._prove_conjunction(body, {}):
            key = tuple(repr(walk(v, subst)) for v in variables)
            if key in seen:
                continue
            seen.add(key)
            answer = {
                v.name: getattr(walk(v, subst), "value", walk(v, subst))
                for v in variables
            }
            results.append((answer, tree))
        return results

    def prove(self, query: Query) -> ProofTree | None:
        """The first proof tree for the query, or ``None`` when unprovable."""
        for _subst, tree in self.prove_query(query):
            return tree
        return None

    # -- conjunctions ---------------------------------------------------------
    def _prove_conjunction(self, body: tuple[BodyAtom, ...],
                           subst: Substitution) -> Iterator[tuple[Substitution, ProofTree]]:
        if not body:
            yield subst, EMPTY_TREE
            return
        if len(body) == 1:
            yield from self._prove_atom(body[0], subst)
            return
        head, *rest = body
        for subst1, tree1 in self._prove_atom(head, subst):
            for subst2, tree2 in self._prove_conjunction(tuple(rest), subst1):
                conclusion = ", ".join(str(a) for a in body)
                yield subst2, ProofTree("AND", self._seq(conclusion), (tree1, tree2))

    def _seq(self, goal: str) -> str:
        return f"<D, {self.clearance}> |- {goal}"

    # -- dispatch ---------------------------------------------------------
    def _prove_atom(self, atom: BodyAtom, subst: Substitution) -> Iterator[tuple[Substitution, ProofTree]]:
        if isinstance(atom, MAtom):
            yield from self._prove_matom(atom, subst)
        elif isinstance(atom, BAtom):
            yield from self._prove_batom(atom, subst)
        elif isinstance(atom, PAtom):
            yield from self._prove_patom(atom, subst)
        elif isinstance(atom, LAtom):
            for extended in self.engine._solve_atom(atom, subst, {}, {}, {}):
                level = walk(atom.level, extended)
                yield extended, ProofTree("LEVEL", self._seq(f"level({level})"), (EMPTY_TREE,))
        elif isinstance(atom, HAtom):
            for extended in self.engine._solve_atom(atom, subst, {}, {}, {}):
                low = walk(atom.low, extended)
                high = walk(atom.high, extended)
                yield extended, ProofTree("ORDER", self._seq(f"order({low}, {high})"), (EMPTY_TREE,))
        elif isinstance(atom, LeqGoal):
            yield from self._prove_leq(atom.low, atom.high, subst)
        else:
            raise MultiLogError(f"cannot prove atom {atom!r}")

    # -- lattice goals ------------------------------------------------------
    def _prove_leq(self, low: Term, high: Term,
                   subst: Substitution) -> Iterator[tuple[Substitution, ProofTree]]:
        for extended in self.engine._solve_leq(low, high, subst):
            lo = str(walk(low, extended).value)       # type: ignore[union-attr]
            hi = str(walk(high, extended).value)      # type: ignore[union-attr]
            yield extended, self.leq_tree(lo, hi)

    def leq_tree(self, low: str, high: str) -> ProofTree:
        """REFLEXIVITY for ``l <= l``; TRANSITIVITY over a cover path otherwise."""
        conclusion = self._seq(f"{low} <= {high}")
        if low == high:
            return ProofTree("REFLEXIVITY", conclusion, (EMPTY_TREE,))
        path = self._cover_path(low, high)
        premises = tuple(
            ProofTree("ORDER", self._seq(f"order({a}, {b})"), (EMPTY_TREE,))
            for a, b in zip(path, path[1:])
        )
        if len(premises) == 1:
            return ProofTree("TRANSITIVITY", conclusion, premises)
        return ProofTree("TRANSITIVITY", conclusion, premises)

    def _cover_path(self, low: str, high: str) -> list[str]:
        """A shortest cover-edge path ``low -> ... -> high``."""
        frontier = [[low]]
        seen = {low}
        while frontier:
            path = frontier.pop(0)
            last = path[-1]
            if last == high:
                return path
            for lo, hi in self.engine.context.order_rows:
                if str(lo) == last and str(hi) not in seen:
                    seen.add(str(hi))
                    frontier.append(path + [str(hi)])
        raise MultiLogError(f"no cover path from {low!r} to {high!r}")

    # -- m-atoms ------------------------------------------------------------
    def _prove_matom(self, atom: MAtom, subst: Substitution) -> Iterator[tuple[Substitution, ProofTree]]:
        cells = self.engine.cells()
        for extended in self.engine._solve_matom(atom, subst, cells):
            row = self._resolve_row(atom, extended)
            tree = self._explain_cell(row)
            yield extended, tree

    def _resolve_row(self, atom: MAtom, subst: Substitution) -> CellRow:
        return (
            atom.pred,
            walk(atom.key, subst).value,    # type: ignore[union-attr]
            atom.attr,
            walk(atom.value, subst).value,  # type: ignore[union-attr]
            str(walk(atom.cls, subst).value),    # type: ignore[union-attr]
            str(walk(atom.level, subst).value),  # type: ignore[union-attr]
        )

    def _cell_str(self, row: CellRow) -> str:
        pred, key, attr, value, cls, level = row
        return f"{level}[{pred}({key} : {attr} -{cls}-> {value})]"

    def _explain_cell(self, row: CellRow) -> ProofTree:
        """A DEDUCTION-G' node for a derivable cell.

        Recursion is well-founded: a cell derived in round ``r`` has a
        clause instance whose body facts come from rounds ``< r``.
        """
        cells = self.engine.cells()
        pfacts = self.engine.pfacts()
        round_index = cells[row]
        conclusion = self._seq(self._cell_str(row))
        guard = self.leq_tree(row[5], self.clearance)
        for clause in self.engine._sigma:
            head = clause.head
            if not isinstance(head, MAtom):
                continue
            head_subst = self.engine._unify_cell(head, row, {})
            if head_subst is None:
                continue
            if clause.is_fact:
                return ProofTree("DEDUCTION-G'", conclusion, (guard, EMPTY_TREE),
                                 note="fact in Sigma")
            for body_subst in self.engine._solve_body(
                    clause.body, 0, head_subst, cells, pfacts, cells, round_cap=round_index):
                body_tree = self._explain_body(clause.body, body_subst)
                return ProofTree("DEDUCTION-G'", conclusion, (guard, body_tree),
                                 note=f"via clause: {clause}")
        raise MultiLogError(f"cell {row!r} has no recorded derivation")

    def _explain_body(self, body: tuple[BodyAtom, ...], subst: Substitution) -> ProofTree:
        """A proof tree for an already-satisfied ground body instance."""
        trees: list[ProofTree] = []
        for atom in body:
            for _s, tree in self._prove_atom(self._substitute(atom, subst), subst):
                trees.append(tree)
                break
            else:
                raise MultiLogError(f"body atom {atom} lost its derivation")
        if not trees:
            return EMPTY_TREE
        if len(trees) == 1:
            return trees[0]
        conclusion = ", ".join(str(a) for a in body)
        return ProofTree("AND", self._seq(conclusion), tuple(trees))

    def _substitute(self, atom: BodyAtom, subst: Substitution) -> BodyAtom:
        if isinstance(atom, MAtom):
            return MAtom(walk(atom.level, subst), atom.pred, walk(atom.key, subst),
                         atom.attr, walk(atom.cls, subst), walk(atom.value, subst))
        if isinstance(atom, BAtom):
            inner = self._substitute(atom.matom, subst)
            assert isinstance(inner, MAtom)
            return BAtom(inner, walk(atom.mode, subst))
        if isinstance(atom, PAtom):
            return PAtom(atom.pred, tuple(walk(a, subst) for a in atom.args))
        if isinstance(atom, LAtom):
            return LAtom(walk(atom.level, subst))
        if isinstance(atom, HAtom):
            return HAtom(walk(atom.low, subst), walk(atom.high, subst))
        if isinstance(atom, LeqGoal):
            return LeqGoal(walk(atom.low, subst), walk(atom.high, subst))
        return atom

    # -- p-atoms ------------------------------------------------------------
    def _prove_patom(self, atom: PAtom, subst: Substitution) -> Iterator[tuple[Substitution, ProofTree]]:
        pfacts = self.engine.pfacts()
        if atom.pred == "dominate" and len(atom.args) == 2:
            yield from self._prove_leq(atom.args[0], atom.args[1], subst)
            return
        for extended in self.engine._solve_patom(atom, subst, pfacts, None):
            row: PRow = (atom.pred, tuple(
                walk(a, extended).value for a in atom.args  # type: ignore[union-attr]
            ))
            if row in pfacts:
                yield extended, self._explain_pfact(row)
                continue
            # A bel/7 body atom satisfied by a built-in belief: prove it
            # as the corresponding b-atom (DEDUCTION-B lifts |- to |-m).
            if atom.pred == USER_BELIEF_PREDICATE and len(row[1]) == 7:
                pred, key, attr, value, cls, h, mode = row[1]
                batom = BAtom(
                    MAtom(Constant(str(h)), str(pred), Constant(key), str(attr),
                          Constant(str(cls)), Constant(value)),
                    Constant(str(mode)),
                )
                produced = False
                for _s, tree in self._prove_batom(batom, {}):
                    yield extended, ProofTree(
                        "DEDUCTION-B", self._seq(f"{atom.pred}{row[1]!r}"), (tree,)
                    )
                    produced = True
                    break
                if not produced:
                    raise MultiLogError(f"belief fact {row!r} lost its derivation")
                continue
            raise MultiLogError(f"plain fact {row!r} has no recorded derivation")

    def _explain_pfact(self, row: PRow) -> ProofTree:
        pfacts = self.engine.pfacts()
        cells = self.engine.cells()
        round_index = pfacts[row]
        pred, args = row
        conclusion = self._seq(f"{pred}({', '.join(str(a) for a in args)})")
        goal = PAtom(pred, tuple(Constant(a) for a in args))
        for clause in self.engine._pi:
            head = clause.head
            if not isinstance(head, PAtom) or head.pred != pred or len(head.args) != len(args):
                continue
            head_subst: Substitution | None = {}
            for term, ground in zip(head.args, args):
                head_subst = unify_terms(term, Constant(ground), head_subst)
                if head_subst is None:
                    break
            if head_subst is None:
                continue
            if clause.is_fact:
                return ProofTree("DEDUCTION-G", conclusion, (EMPTY_TREE,), note="fact in Pi")
            for body_subst in self.engine._solve_body(
                    clause.body, 0, head_subst, cells, pfacts, cells, round_cap=round_index):
                body_tree = self._explain_body(clause.body, body_subst)
                return ProofTree("DEDUCTION-G", conclusion, (body_tree,),
                                 note=f"via clause: {clause}")
        raise MultiLogError(f"plain fact {goal} has no recorded derivation")

    # -- b-atoms ------------------------------------------------------------
    def _prove_batom(self, atom: BAtom, subst: Substitution) -> Iterator[tuple[Substitution, ProofTree]]:
        cells = self.engine.cells()
        pfacts = self.engine.pfacts()
        for extended in self.engine._solve_batom(atom, subst, cells, pfacts, None):
            grounded = self._substitute(atom, extended)
            assert isinstance(grounded, BAtom)
            mode = str(walk(grounded.mode, extended).value)  # type: ignore[union-attr]
            h = str(walk(grounded.matom.level, extended).value)  # type: ignore[union-attr]
            conclusion = self._seq(str(grounded))
            guard = self.leq_tree(h, self.clearance)
            mode_tree = self._mode_tree(grounded.matom, mode, h, extended)
            yield extended, ProofTree("BELIEF", conclusion, (guard, mode_tree))

    def _mode_tree(self, matom: MAtom, mode: str, h: str, subst: Substitution) -> ProofTree:
        source = self._believed_source(matom, mode, h, subst)
        if mode in BUILTIN_MODES and source is not None:
            cell_tree = self._explain_cell(source)
            if mode == "fir":
                return cell_tree
            descend = self.leq_tree(source[5], h)
            inner = f"|-{mode} {self._cell_str(source)} believed at {h}"
            if mode == "opt":
                return ProofTree("DESCEND-O", inner, (descend, cell_tree))
            rule, note = self._classify_cautious(source, h)
            return ProofTree(rule, inner, (descend, cell_tree), note=note)
        # User-defined mode: USER-BELIEF copies the bel/7 proof (Figure 13).
        pred_args = (
            Constant(matom.pred), walk(matom.key, subst), Constant(matom.attr),
            walk(matom.value, subst), walk(matom.cls, subst), Constant(h), Constant(mode),
        )
        goal = PAtom(USER_BELIEF_PREDICATE, pred_args)
        for _s, tree in self._prove_patom(goal, subst):
            return ProofTree("USER-BELIEF", self._seq(str(goal)), (tree,))
        raise MultiLogError(f"believed atom {matom} << {mode} lost its derivation")

    def _believed_source(self, matom: MAtom, mode: str, h: str,
                         subst: Substitution) -> CellRow | None:
        if mode not in BUILTIN_MODES:
            return None
        key = walk(matom.key, subst).value      # type: ignore[union-attr]
        value = walk(matom.value, subst).value  # type: ignore[union-attr]
        cls = str(walk(matom.cls, subst).value)  # type: ignore[union-attr]
        for row in self.engine.believed_cells(mode, h):
            if row[0] != matom.pred or row[2] != matom.attr:
                continue
            if (row[1], row[3], row[4]) == (key, value, cls):
                return row
        return None

    def _classify_cautious(self, source: CellRow, h: str) -> tuple[str, str]:
        """Name the DESCEND-C case (mirrors axioms a6-a9 of Figure 12)."""
        visible = [
            row for row in self.engine.cells()
            if row[0] == source[0] and row[1] == source[1] and row[2] == source[2]
            and self.lattice.leq(row[5], h)
        ]
        local = [row for row in visible if row[5] == h]
        others = [row for row in visible if row != source]
        note = "no visible cell with a dominating classification"
        if source[5] == h and not others:
            return "DESCEND-C1", note          # local cell, no competition (a6)
        if source[5] != h and not local:
            return "DESCEND-C2", note          # inherited, nothing local (a7)
        if source[5] != h and local:
            return "DESCEND-C3", note + "; overrides the local cell"   # (a8)
        return "DESCEND-C4", note + "; local cell survives lower ones"  # (a9)

