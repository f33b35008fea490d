"""Bottom-up evaluation: naive and semi-naive least fixpoints.

This is the engine the reduction semantics (Section 6) targets -- the
CORAL stand-in.  Programs are stratified; each stratum is evaluated to a
least fixpoint before the next begins, so negation always consults a
fully computed lower stratum.

Two evaluations, and the storage backend picks the semi-naive one:

* the **native** plan (the default) -- classic delta iteration by
  :func:`_evaluate_stratum`: a recursive rule only refires when one of
  its recursive body literals matches a fact derived in the previous
  round.  Rule bodies run in the greedy join order, and the backend
  decides the plan kind (:data:`_PLANS`):

  - ``dict`` runs ``compiled`` :class:`~repro.datalog.plan.CompiledRule`
    join plans: each rule body is compiled once per stratum into a
    nested-loop function probing composite indexes, with
    delta-specialized variants for the refiring step, and a round's
    fresh rows are kept in a row :class:`Database`;
  - ``columnar`` runs ``vectorized``
    :class:`~repro.datalog.plan.BatchRule` batch pipelines: each round
    probes the whole delta batch through build-side hash tables in a
    handful of comprehensions over interned codes, and fresh rows are
    coded batches per ``(predicate, arity)``.

* ``naive=True`` -- re-derive everything each round through the
  :func:`_match_body` interpreter, in the written body order: the
  textbook baseline, kept as the oracle the differential tests check
  the native plans against, never served in their place.  It runs on
  either backend
  through the row-level :class:`~repro.datalog.storage.StorageBackend`
  contract.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.datalog.atoms import Atom, Literal
from repro.datalog.builtins import evaluate_builtin
from repro.datalog.database import Database, Row
from repro.datalog.plan import compile_batch_rule, compile_rule
from repro.datalog.rules import Program, Rule
from repro.datalog.storage import make_database, resolve_backend
from repro.datalog.stratify import stratify
from repro.datalog.terms import Variable
from repro.datalog.unify import Substitution, apply_to_atom, match_atom
from repro.errors import BudgetExceededError, DatalogError
from repro.obs.budget import BudgetMeter, EvaluationBudget
from repro.obs.context import current as _current_obs
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_SPAN

#: Cap on per-round trace spans per stratum: a runaway fixpoint (the very
#: case budgets exist for) must not also explode the span tree.  Rounds
#: past the cap are still counted in the metrics, just not recorded as
#: individual spans.
MAX_ROUND_SPANS = 64


def _match_body(
    body: tuple[Literal, ...],
    db: Database,
    subst: Substitution,
    index: int = 0,
) -> Iterable[Substitution]:
    """All substitutions satisfying ``body[index:]`` against ``db``."""
    if index == len(body):
        yield subst
        return
    literal = body[index]
    atom = literal.atom
    if atom.is_builtin:
        if evaluate_builtin(atom, subst):
            yield from _match_body(body, db, subst, index + 1)
        return
    if not literal.positive:
        # Safety guarantees the atom is ground here.
        grounded = apply_to_atom(atom, subst)
        if not grounded.is_ground():
            raise DatalogError(f"negated literal {grounded!r} not ground at evaluation time")
        if not db.contains(grounded.predicate, grounded.ground_tuple()):
            yield from _match_body(body, db, subst, index + 1)
        return
    # No defensive copy: _fire_rule drains this generator into a list
    # before any caller mutates the database, so the live bucket/set from
    # candidates() is never resized under us.
    for row in db.candidates(atom, subst):
        extended = match_atom(atom, row, subst)
        if extended is not None:
            yield from _match_body(body, db, extended, index + 1)


def reorder_body(body: tuple[Literal, ...], rule: Rule | None = None) -> tuple[Literal, ...]:
    """Reorder a rule body so negatives/built-ins run once ground.

    Positive literals keep their relative order; each negated or built-in
    literal is emitted as soon as every one of its variables is bound by
    the positives already emitted.  Safety guarantees nothing is left
    over; a leftover means the rule is not range-restricted and raises
    :class:`~repro.errors.DatalogError` *here*, naming the rule and the
    offending literal, instead of surfacing later as a cryptic
    "negated literal not ground at evaluation time".
    """
    positives = [l for l in body if l.positive and not l.atom.is_builtin]
    deferred = [l for l in body if not (l.positive and not l.atom.is_builtin)]
    ordered: list[Literal] = []
    bound: set[Variable] = set()

    def flush() -> None:
        emitted = True
        while emitted:
            emitted = False
            for literal in list(deferred):
                if literal.variables() <= bound:
                    ordered.append(literal)
                    deferred.remove(literal)
                    emitted = True

    flush()
    for literal in positives:
        ordered.append(literal)
        bound |= literal.variables()
        flush()
    if deferred:
        offender = deferred[0]
        kind = "negated" if not offender.positive else "built-in"
        unbound = sorted(v.name for v in offender.variables() - bound)
        where = f" of rule {rule!r}" if rule is not None else ""
        raise DatalogError(
            f"cannot order body{where}: variable(s) {unbound} of {kind} "
            f"literal {offender!r} are never bound by a positive literal "
            "(rule is not range-restricted)"
        )
    return tuple(ordered)


def greedy_join_order(body: tuple[Literal, ...]) -> tuple[Literal, ...]:
    """Reorder positive literals most-bound-first (a classic greedy
    sideways-information-passing heuristic).

    At each step the literal with the highest fraction of bound arguments
    (constants or variables bound by already-placed literals) is placed
    next, with arity and the original position as tie-breakers.  Negated
    and built-in literals are untouched here; :func:`reorder_body` slots
    them in once ground.
    """
    positives = [
        (index, literal) for index, literal in enumerate(body)
        if literal.positive and not literal.atom.is_builtin
    ]
    others = [
        literal for literal in body
        if not (literal.positive and not literal.atom.is_builtin)
    ]
    ordered: list[Literal] = []
    bound: set[Variable] = set()
    remaining = list(positives)
    while remaining:
        def score(entry: tuple[int, Literal]) -> tuple:
            index, literal = entry
            args = literal.atom.args
            bound_args = sum(
                1 for a in args if not isinstance(a, Variable) or a in bound
            )
            fraction = bound_args / len(args) if args else 1.0
            return (-fraction, len(args), index)

        remaining.sort(key=score)
        index, literal = remaining.pop(0)
        ordered.append(literal)
        bound |= literal.variables()
    return tuple(ordered) + tuple(others)


def _fire_rule(rule: Rule, db: Database) -> list[Row]:
    """All head rows derivable by one rule in the current state."""
    derived: list[Row] = []
    for subst in _match_body(rule.body, db, {}):
        head = apply_to_atom(rule.head, subst)
        if not head.is_ground():
            raise DatalogError(f"derived non-ground head {head!r}; rule is unsafe")
        derived.append(head.ground_tuple())
    return derived


class _RowFrontier:
    """A round's fresh rows as a row :class:`Database` (compiled plans):
    each derived row is stored with ``db.add``."""

    __slots__ = ("fresh",)

    def __init__(self) -> None:
        self.fresh = Database()

    def __len__(self) -> int:
        return len(self.fresh)

    def store(self, db: Database, plan, rows: list[Row]) -> None:
        self.load(db, plan.head_predicate, rows)

    def load(self, db: Database, predicate: str, rows: Iterable[Row]) -> None:
        """Add value ``rows`` to ``db``, keeping the ones that were new."""
        add = self.fresh.add
        for row in rows:
            if db.add(predicate, row):
                add(predicate, row)

    def absorb(self, other: "_RowFrontier") -> None:
        for predicate in other.fresh.predicates():
            self.fresh.add_facts(predicate, other.fresh.rows(predicate))

    def predicates(self) -> set[str]:
        return set(self.fresh.predicates())

    def get(self, key: list) -> Database | None:
        """The delta argument for a variant on ``key = [predicate]``."""
        return self.fresh if self.fresh.rows(key[0]) else None


class _CodedFrontier:
    """A round's fresh coded rows, one batch per ``(predicate, arity)``
    (vectorized plans).

    :meth:`~repro.datalog.columnar.ColumnarDatabase.insert_coded` stores
    a whole derived batch with one dedup pass and hands back the
    genuinely fresh rows, which are filed here without copying: the
    batches are only ever iterated, so a list is materialized only when
    a second rule head lands on the same key.
    """

    __slots__ = ("batches", "size")

    def __init__(self) -> None:
        self.batches: dict[tuple[str, int], list | set] = {}
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def store(self, db, plan, rows) -> None:
        self._file((plan.head_predicate, plan.head_arity),
                   db.insert_coded(plan.head_predicate, plan.head_arity, rows))

    def load(self, db, predicate: str, rows: Iterable[Row]) -> None:
        """Add value ``rows`` to ``db``, keeping the ones that were new."""
        encode = db.encode_value
        by_arity: dict[int, list] = {}
        for row in rows:
            by_arity.setdefault(len(row), []).append(
                tuple(encode(value) for value in row))
        for arity, coded in by_arity.items():
            self._file((predicate, arity), db.insert_coded(predicate, arity, coded))

    def absorb(self, other: "_CodedFrontier") -> None:
        for key, batch in other.batches.items():
            # Copied: ``other``'s batches are the next round's delta.
            self._file(key, list(batch))

    def _file(self, key: tuple[str, int], fresh) -> None:
        if not fresh:
            return
        have = self.batches.get(key)
        if have is None:
            self.batches[key] = fresh
        else:
            if not isinstance(have, list):
                have = self.batches[key] = list(have)
            have.extend(fresh)
        self.size += len(fresh)

    def predicates(self) -> set[str]:
        return {predicate for predicate, _arity in self.batches}

    def get(self, key: list):
        """The batch for a variant on ``key = [predicate, arity]``."""
        return self.batches.get((key[0], key[1]))


@dataclass(frozen=True)
class Increment:
    """What an insert-only :func:`evaluate` starts from.

    ``model`` is the published least model of a program with the same
    rules whose facts are a prefix of the evaluated program's; ``facts``
    are the ground facts the evaluated program has beyond that prefix.
    The model is copied, never edited.  ``model=None`` records that a
    predecessor existed but cannot be extended -- ``reason`` says why --
    so the evaluation runs from scratch and its span says so.
    """

    model: object | None
    facts: tuple[Atom, ...] = ()
    reason: str = ""


#: storage backend -> (plan label, plan compiler, frontier type) of its
#: native semi-naive plan.  Every plan has ``rule``, ``head_predicate``,
#: ``fire(db)`` and ``delta_variants``, whose entries end in
#: ``fire(db, delta)`` after the frontier's lookup key.
_PLANS = {
    "dict": ("compiled", compile_rule, _RowFrontier),
    "columnar": ("vectorized", compile_batch_rule, _CodedFrontier),
}


def native_plan(backend: str | None = None) -> str:
    """The label of the semi-naive plan ``backend`` evaluates with
    (``compiled`` or ``vectorized``; ``None`` resolves as :func:`evaluate`
    does)."""
    return _PLANS[resolve_backend(backend)][0]


def _stratum_rules(program: Program, stratum_predicates: set[str],
                   naive: bool = False) -> list[Rule]:
    """The stratum's rules with their bodies ordered for evaluation: the
    greedy join order, or the written order for ``naive``."""
    rules = []
    for r in program.rules:
        if r.head.predicate not in stratum_predicates:
            continue
        body = r.body if naive else greedy_join_order(r.body)
        rules.append(Rule(r.head, reorder_body(body, r)))
    return rules


def _round_span(recorder, rounds: int, scope: str):
    """A per-round span, capped so runaway fixpoints stay traceable."""
    if rounds > MAX_ROUND_SPANS:
        return NULL_SPAN
    return recorder.span(f"round[{rounds}]", scope=scope)


def _reads(rule: Rule, predicates: set[str]) -> bool:
    """True when a positive relational body literal of ``rule`` reads one
    of ``predicates``."""
    return any(literal.positive and not literal.atom.is_builtin
               and literal.predicate in predicates for literal in rule.body)


def _evaluate_stratum(rules: list[Rule], db,
                      stratum_predicates: set[str],
                      recorder, metrics, meter, scope: str,
                      seed=None) -> None:
    """Semi-naive iteration, the one driver behind both plan kinds.

    Round 0 fires every rule once against the current database; each
    later round refires only the recursive rules, once per recursive
    literal whose predicate gained rows in the previous round, with that
    literal restricted to those fresh rows.

    With a ``seed`` frontier -- an insert-only evaluation, the rows the
    database gained since it held the least model of the same rules --
    round 0 is the seed itself: the rules refire through delta variants
    on the seed's predicates as well as on the stratum's own, and every
    fresh row joins the seed, so later strata see all the rows gained
    below them.
    """
    _label, compile_plan, frontier = _PLANS[db.backend]
    if seed is None:
        plans = [compile_plan(rule, stratum_predicates) for rule in rules]
    else:
        gained = seed.predicates()
        if not any(_reads(rule, gained) for rule in rules):
            return  # nothing this stratum reads has changed
        variant_predicates = stratum_predicates | gained
        plans = [compile_plan(rule, variant_predicates) for rule in rules
                 if _reads(rule, variant_predicates)]
    labels = [repr(plan.rule) for plan in plans]
    if seed is None:
        delta = frontier()
        with recorder.span("rule-fire", scope=scope, phase="initial") as span:
            for plan, label in zip(plans, labels):
                rows = plan.fire(db)
                metrics.rule_fired(label, len(rows))
                delta.store(db, plan, rows)
            span.set(delta=len(delta))
        if meter is not None:
            meter.charge_rows(len(delta), scope)
    else:
        delta = seed
    recursive = [(plan, label) for plan, label in zip(plans, labels)
                 if plan.delta_variants]
    rounds = 0
    while len(delta):
        rounds += 1
        if meter is not None:
            meter.begin_round(scope)
        with _round_span(recorder, rounds, scope) as span:
            fresh = frontier()
            for plan, label in recursive:
                for *key, fire in plan.delta_variants:
                    batch = delta.get(key)
                    if batch is None:
                        continue
                    rows = fire(db, batch)
                    metrics.rule_fired(label, len(rows))
                    fresh.store(db, plan, rows)
            span.set(delta=len(fresh))
        if meter is not None:
            meter.charge_rows(len(fresh), scope)
        if seed is not None:
            seed.absorb(fresh)
        delta = fresh
    metrics.record_rounds(scope, rounds + 1)


def _evaluate_stratum_naive(rules: list[Rule], db: Database,
                            recorder, metrics, meter, scope: str) -> None:
    """Re-derive everything each round: the test oracle."""
    labels = [repr(rule) for rule in rules]
    changed = True
    rounds = 0
    while changed:
        rounds += 1
        if meter is not None:
            meter.begin_round(scope)
        with _round_span(recorder, rounds, scope) as span:
            changed = False
            added = 0
            for rule, label in zip(rules, labels):
                derived = _fire_rule(rule, db)
                metrics.rule_fired(label, len(derived))
                predicate = rule.head.predicate
                for row in derived:
                    if db.add(predicate, row):
                        changed = True
                        added += 1
            span.set(delta=added)
        if meter is not None and added:
            meter.charge_rows(added, scope)
    metrics.record_rounds(scope, rounds)


def _counters(db) -> tuple[int, ...]:
    return (db.probe_count, db.candidate_calls, db.batch_probe_count,
            db.batch_build_count, db.batch_dedup_rows)


def _account(metrics, db, before: tuple[int, ...]) -> None:
    """Fold ``db``'s probe and batch counters since ``before`` into metrics."""
    probes, candidates, batch_probes, builds, dedup = (
        now - then for now, then in zip(_counters(db), before))
    metrics.add_probes(probes)
    metrics.add_candidate_calls(candidates)
    metrics.add_batch_ops(batch_probes, builds, dedup)


def _run_strata(program: Program, assignment: dict[str, int], naive: bool,
                db, seed, recorder, metrics, meter) -> str | None:
    """Evaluate every stratum of ``program`` into ``db``, lowest first.

    With a ``seed`` (an insert-only evaluation, see :func:`evaluate`)
    each stratum first checks its negated literals: when one negates a
    predicate that gained rows, the copied model's rows above need not
    hold any more, so the run stops and returns that predicate.
    Otherwise returns ``None``.
    """
    before = _counters(db)
    negated = None
    try:
        for level in range(max(assignment.values(), default=0) + 1):
            stratum_predicates = {p for p, s in assignment.items() if s == level}
            rules = _stratum_rules(program, stratum_predicates, naive)
            if not rules:
                continue
            if seed is not None:
                gained = seed.predicates()
                negated = next((literal.predicate for rule in rules
                                for literal in rule.body
                                if not literal.positive
                                and literal.predicate in gained), None)
                if negated is not None:
                    break
            scope = f"stratum[{level}]"
            with recorder.span(scope, rules=len(rules)) as span:
                if naive:
                    _evaluate_stratum_naive(rules, db, recorder, metrics,
                                            meter, scope)
                else:
                    _evaluate_stratum(rules, db, stratum_predicates,
                                      recorder, metrics, meter, scope, seed)
                span.set(facts=len(db))
    except BudgetExceededError as exc:
        _account(metrics, db, before)
        if exc.metrics is None and metrics.enabled:
            exc.metrics = metrics.snapshot(recorder)
        # Everything derived before the abort; the resilience layer
        # serves PartialResults from it when the caller opts in.  An
        # insert-only run started from a whole older model, whose rows
        # above the abort need not hold in the new one, so it leaves none.
        exc.partial_database = db if seed is None else None
        raise
    _account(metrics, db, before)
    return negated


def evaluate(program: Program, *, naive: bool = False,
             budget: EvaluationBudget | None = None,
             analyze: bool = False,
             backend: str | None = None,
             increment: Increment | None = None):
    """The stratified least model of ``program`` as a fact store.

    ``backend`` picks the storage backend (explicit argument >
    ``MULTILOG_BACKEND`` env var > ``dict``), and the backend picks the
    semi-naive plan: ``compiled`` row plans on ``dict``, ``vectorized``
    batch plans on ``columnar`` (:func:`native_plan`).  ``naive=True``
    runs the naive oracle instead.  Answers are identical either way;
    the ``evaluate`` span's ``strategy`` attribute names the plan run.

    ``increment`` makes the evaluation insert-only (the delta half of
    counting/DRed view maintenance): the predecessor's model is copied,
    the new facts are added, and each stratum runs through the
    semi-naive driver seeded with every row gained so far.  That is
    exact while no stratum negates a predicate that gained rows -- a
    stratified program is monotone in its grown inputs then -- so the
    check runs per stratum, and a failing one recomputes the whole model
    from scratch.  The ``evaluate`` span records ``incremental`` and,
    when a predecessor was not used, its ``reason``.  The naive oracle
    always starts from scratch.

    Observability: spans, per-rule firing counts and join-probe totals
    are reported into the ambient :class:`repro.obs.ObsContext` (no-ops
    unless one is installed via :func:`repro.obs.use`).  ``budget``
    bounds the evaluation (rows / rounds / wall clock) and wins over any
    ambient budget meter; an overrun raises
    :class:`~repro.errors.BudgetExceededError` with the partial metrics
    attached when a collector is active.

    ``analyze=True`` runs the full static analyzer (:mod:`repro.
    analysis`) first and raises :class:`DatalogError` listing *every*
    error-severity finding -- unlike the default fail-fast path, which
    stops at the first unsafe rule or stratification failure.
    """
    backend = resolve_backend(backend)
    label = "naive" if naive else _PLANS[backend][0]
    ctx = _current_obs()
    recorder, metrics = ctx.recorder, ctx.metrics
    meter = BudgetMeter(budget) if budget is not None else ctx.meter
    if analyze:
        from repro.analysis import analyze_program
        report = analyze_program(program)
        if not report.ok:
            raise DatalogError(
                "static analysis rejected the program:\n" + report.render_text())
    program.check_safety()
    with recorder.span("evaluate", strategy=label) as evaluate_span:
        with recorder.span("stratify") as span:
            assignment = stratify(program)
            span.set(strata=max(assignment.values(), default=0) + 1)
        reason = increment.reason if increment is not None else ""
        db = None
        if increment is not None and increment.model is not None and not naive:
            if increment.model.backend != backend:
                raise DatalogError(
                    f"cannot extend a {increment.model.backend} model on the "
                    f"{backend} backend")
            db = increment.model.copy()
            seed = _PLANS[backend][2]()
            for predicate, rows in _rows_by_predicate(increment.facts).items():
                seed.load(db, predicate, rows)
            negated = _run_strata(program, assignment, naive, db, seed,
                                  recorder, metrics, meter)
            if negated is not None:
                reason = f"negation:{negated}"
                db = None
        incremental = db is not None
        if db is None:
            db = make_database(backend)
            for predicate, rows in _rows_by_predicate(program.facts).items():
                db.add_facts(predicate, rows)
            if program.rules:
                _run_strata(program, assignment, naive, db, None,
                            recorder, metrics, meter)
        evaluate_span.set(facts=len(db), incremental=incremental)
        if reason:
            evaluate_span.set(reason=reason)
    return db


def _rows_by_predicate(facts: Iterable[Atom]) -> dict[str, list[Row]]:
    grouped: dict[str, list[Row]] = {}
    for fact in facts:
        grouped.setdefault(fact.predicate, []).append(fact.ground_tuple())
    return grouped


def evaluate_goal_rules(db: Database, rules: Iterable[Rule]) -> dict[str, set[Row]]:
    """Fire non-recursive goal rules once against a computed model.

    The rules' head predicates must not occur in any body (true for the
    reduction's ``__answer`` rules); ``db`` is read, never written, so a
    cached least model can answer repeated queries without re-running the
    fixpoint.  Returns derived rows grouped by head predicate.
    """
    ctx = _current_obs()
    recorder, metrics, meter = ctx.recorder, ctx.metrics, ctx.meter
    probes_before = db.probe_count
    candidates_before = db.candidate_calls
    derived: dict[str, set[Row]] = {}
    with recorder.span("answer-rules") as span:
        for rule in rules:
            if meter is not None:
                meter.check_time("answer-rules")
            rule.check_safety()
            ordered = Rule(rule.head, reorder_body(greedy_join_order(rule.body), rule))
            plan = compile_rule(ordered)
            rows = plan.fire(db)
            # Labelled by head predicate, not source text: goal rules carry
            # the query's constants, and one label per distinct query
            # would grow the collector without bound in a long-lived
            # session.
            metrics.rule_fired(plan.head_predicate, len(rows))
            derived.setdefault(plan.head_predicate, set()).update(rows)
        span.set(answers=sum(len(rows) for rows in derived.values()))
    metrics.add_probes(db.probe_count - probes_before)
    metrics.add_candidate_calls(db.candidate_calls - candidates_before)
    return derived


def query(program: Program, goal: Atom) -> list[Substitution]:
    """Answer substitutions for ``goal`` against the least model."""
    db = evaluate(program)
    return query_database(db, goal)


def query_database(db: Database, goal: Atom) -> list[Substitution]:
    """Match a goal atom against an already-computed database."""
    answers: list[Substitution] = []
    for row in db.candidates(goal, {}):
        subst = match_atom(goal, row, {})
        if subst is not None:
            answers.append(subst)
    return answers


def answer_rows(db: Database, goal: Atom) -> set[Row]:
    """Ground rows the goal maps to (projection of the answers)."""
    rows: set[Row] = set()
    for subst in query_database(db, goal):
        grounded = apply_to_atom(goal, subst)
        rows.add(grounded.ground_tuple())
    return rows
