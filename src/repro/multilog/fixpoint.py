"""The fixpoint characterization behind Theorem 6.1's proof sketch.

The paper argues correctness of the reduction by relating proof-tree
*height* to the step at which the immediate-consequence operator
``T_{Delta_r}`` computes the corresponding fact: "if the proof tree in
MultiLog has height k, then the goal tau(G)[theta] is computed at step k
by the fix-point operator", and the model is ``lfp(T_{Delta_r})``.

This module makes that argument inspectable:

* :func:`fixpoint_steps` runs a *naive*, stepwise immediate-consequence
  iteration over a reduced program and records, for every derived fact,
  the first step at which it appears (strata are evaluated in order and
  step counts accumulate across them).
* :func:`height_step_report` pairs each provable m-/b-atom goal with its
  operational proof height and its fixpoint step, so the paper's bound
  can be checked empirically (``tests/multilog/test_fixpoint.py``).

The bound validated is the monotone formulation: a goal provable with a
tree of height ``k`` is computed within ``k`` fixpoint steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.database import Database, Row
from repro.datalog.engine import _fire_rule, reorder_body
from repro.datalog.rules import Program, Rule
from repro.datalog.stratify import stratify

Fact = tuple[str, Row]


def fixpoint_steps(program: Program) -> dict[Fact, int]:
    """First-appearance step of every fact under stepwise naive iteration.

    Facts of the program are step 0.  Each subsequent step applies every
    rule of the current stratum once to the accumulated database; strata
    are processed lowest-first with a shared, monotonically increasing
    step counter (the stratified analogue of iterating ``T`` to its least
    fixpoint).
    """
    program.check_safety()
    assignment = stratify(program)
    db = Database()
    steps: dict[Fact, int] = {}
    for fact in program.facts:
        if db.add_atom(fact):
            steps[(fact.predicate, fact.ground_tuple())] = 0
    step = 0
    max_stratum = max(assignment.values(), default=0)
    for level in range(max_stratum + 1):
        stratum_predicates = {p for p, s in assignment.items() if s == level}
        rules = [
            Rule(r.head, reorder_body(r.body, r))
            for r in program.rules if r.head.predicate in stratum_predicates
        ]
        if not rules:
            continue
        while True:
            derived: list[Fact] = []
            for rule in rules:
                predicate = rule.head.predicate
                derived.extend((predicate, row) for row in _fire_rule(rule, db))
            new = [fact for fact in derived if fact not in steps]
            if not new:
                break
            step += 1
            for predicate, row in new:
                if db.add(predicate, row):
                    steps[(predicate, row)] = step
    return steps


@dataclass(frozen=True)
class HeightStepPair:
    """One goal's operational proof height vs its fixpoint step.

    ``specialized`` records whether the reduced program used level
    specialization (the DESIGN.md repair for belief-recursive programs).
    """

    goal: str
    proof_height: int
    fixpoint_step: int
    specialized: bool = False

    @property
    def bounded(self) -> bool:
        """The paper's bound, adjusted for the documented repair.

        For the paper's direct rel/bel reduction the proof-sketch bound
        ``step <= height`` holds as stated.  The level-specialized repair
        routes every belief hop through up to three auxiliary predicates
        (``vis@h``, ``outranked@h``, the ``bel/7`` bridge), so there the
        checkable invariant weakens to ``step <= 3 * height``.
        """
        limit = 3 * self.proof_height if self.specialized else self.proof_height
        return self.fixpoint_step <= limit


def height_step_report(db, clearance: str) -> list[HeightStepPair]:
    """Pair proof heights with fixpoint steps for every derivable cell.

    ``db`` is a MultiLog database; every m-cell derivable at
    ``clearance`` is proved operationally (its tree height measured) and
    located in the reduced program's fixpoint iteration.
    """
    from repro.multilog.proof import OperationalEngine, Prover
    from repro.multilog.reduction import _rel_at, translate

    engine = OperationalEngine(db, clearance)
    prover = Prover(engine)
    reduced = translate(db, clearance)
    steps = fixpoint_steps(reduced.program)
    pairs: list[HeightStepPair] = []
    for cell in sorted(engine.cells(), key=repr):
        pred, key, attr, value, cls, level = cell
        tree = prover._explain_cell(cell)
        if reduced.specialized:
            fact: Fact = (_rel_at(level), (pred, key, attr, value, cls))
        else:
            fact = ("rel", (pred, key, attr, value, cls, level))
        step = steps.get(fact)
        if step is None:
            # Facts asserted directly appear at step 0.
            step = 0
        pairs.append(HeightStepPair(str(cell), tree.height(), step,
                                    reduced.specialized))
    return pairs
