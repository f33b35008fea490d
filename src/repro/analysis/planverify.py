"""Static verification of codegen'd join/batch plans (ML014/ML015/ML016).

The compiled (:class:`~repro.datalog.plan.CompiledRule`) and vectorized
(:class:`~repro.datalog.plan.BatchRule`) strategies ``exec`` generated
Python.  That source is trusted nowhere else in the system: a bug in the
emitters -- or a corrupted plan -- would silently produce wrong answers
behind the differential tests' backs.  This pass re-checks every plan
against the declarative semantics of its rule *before* the ``exec``:

* **structural** -- walk ``rule.body`` next to the recorded access paths
  and simulate variable binding: every index/batch probe may only key on
  constants and variables bound by *earlier* positive literals (join-key
  soundness, ML014), guards and anti-joins must come after all their
  variables are bound (ML015), and the access-path kinds must match the
  literal kinds (ML014).  Duplicate literals and tautological guards are
  dead ops (ML016).
* **definite assignment** -- parse the generated source with :mod:`ast`
  and prove every loaded name is a parameter, an earlier local
  assignment in an enclosing block, an emitter-namespace constant, or a
  builtin (ML014): the generated function can never hit ``NameError``
  or read a stale slot.
* **head coverage & dedup** -- the emitted head projection has exactly
  the rule's head arity with every head variable bound (ML014), and a
  batch plan's merged result is duplicate-free: its returns must be set
  comprehensions or provably ≤1-row literals (ML014).

:func:`verify_plan_source` is the core check over ``(rule, source,
access_paths)``; :func:`verify_plan` re-verifies an already-constructed
plan object (used by the differential-corpus CI job).  Wiring into the
compile path lives in :mod:`repro.datalog.plan` behind
``verify_plans=True`` / the ``MULTILOG_VERIFY_PLANS`` env var, with a
memo keyed on the generated source so production pays one check per
distinct plan.
"""

from __future__ import annotations

import ast
import builtins
import re
import threading

from repro.analysis.diagnostics import AnalysisReport
from repro.datalog.atoms import Literal
from repro.datalog.builtins import COMPARATORS
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable

__all__ = ["verify_plan", "verify_plan_source"]

#: access kinds the row emitter may record, per literal kind.
_ROW_POSITIVE = {"index-probe", "full-scan"}
_BATCH_POSITIVE = {"batch-probe", "batch-scan"}

#: emitter-namespace names when the real namespace is unavailable
#: (post-hoc verification of a stored plan): interned constants plus the
#: guard helpers.  Everything else the emitters reference is a local.
_DEFAULT_NAMESPACE = re.compile(r"C\d+$")
_HELPERS = frozenset({"_lt", "_le", "_gt", "_ge"})

#: Serializes ``ast.parse``: CPython 3.11 keeps the AST constructor's
#: recursion depth in interpreter-wide state, so a parse that yields the
#: GIL mid-build (a finalizer run by the garbage collector) lets another
#: thread's parse corrupt it, and both fail with ``SystemError``.
_PARSE_LOCK = threading.Lock()

#: builtins whose guard is a tautology / contradiction on identical terms.
_ALWAYS_TRUE_ON_SELF = frozenset({"=", "<=", ">="})


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def verify_plan(plan, kind: str | None = None) -> AnalysisReport:
    """Verify an already-built ``CompiledRule`` / ``BatchRule`` plan.

    The plan's stored ``source``/``access_paths`` describe its main
    (non-delta) variant, so this checks exactly what ``fire(db)`` runs.
    """
    if kind is None:
        kind = "batch" if hasattr(plan, "head_arity") else "row"
    return verify_plan_source(plan.rule, plan.source, plan.access_paths, kind,
                              delta_position=None)


def verify_plan_source(rule: Rule, source: str, access_paths,
                       kind: str, namespace=None,
                       delta_position: int | None = None,
                       _delta_known: bool = True) -> AnalysisReport:
    """Check one generated plan against its rule; never raises."""
    report = AnalysisReport()
    where = f"{kind} plan for rule {rule!r}"
    _check_structure(rule, tuple(access_paths), kind, report, where,
                     delta_position, _delta_known)
    names = _namespace_names(namespace)
    _check_source(rule, source, kind, names, report, where)
    return report


def _namespace_names(namespace):
    if namespace is None:
        return None  # fall back to the _DEFAULT_NAMESPACE pattern
    return frozenset(namespace)


# ---------------------------------------------------------------------------
# structural pass: rule body vs. recorded access paths
# ---------------------------------------------------------------------------

def _literal_vars(literal: Literal) -> set[Variable]:
    return {t for t in literal.atom.args if isinstance(t, Variable)}


def _check_structure(rule: Rule, paths: tuple, kind: str,
                     report: AnalysisReport, where: str,
                     delta_position: int | None, delta_known: bool) -> None:
    body = rule.body
    if len(paths) != len(body):
        report.add("ML014",
                   f"plan records {len(paths)} access paths for "
                   f"{len(body)} body literals",
                   location=where,
                   hint="the op pipeline does not cover the rule body")
        return
    positive_kinds = _BATCH_POSITIVE if kind == "batch" else _ROW_POSITIVE
    bound: set[Variable] = set()
    seen_literals: list[Literal] = []
    for index, (literal, path) in enumerate(zip(body, paths)):
        atom = literal.atom
        access = path.get("access")
        if literal in seen_literals:
            report.add("ML016",
                       f"literal {literal!r} repeats an earlier body literal; "
                       f"the op is dead",
                       location=where,
                       hint="drop the duplicate literal from the rule")
        seen_literals.append(literal)
        if atom.is_builtin:
            if access != "guard":
                report.add("ML014",
                           f"built-in {atom!r} compiled as {access!r}, "
                           f"expected a guard",
                           location=where)
            if not _literal_vars(literal) <= bound:
                unbound = sorted(v.name for v in _literal_vars(literal) - bound)
                report.add("ML015",
                           f"guard {atom!r} placed before variable(s) "
                           f"{unbound} are bound",
                           location=where,
                           hint="guards must follow the literals binding "
                                "their variables")
            _lint_trivial_guard(atom, report, where)
            continue
        if not literal.positive:
            if access != "anti-join":
                report.add("ML014",
                           f"negated literal {literal!r} compiled as "
                           f"{access!r}, expected an anti-join",
                           location=where)
            if not _literal_vars(literal) <= bound:
                unbound = sorted(v.name for v in _literal_vars(literal) - bound)
                report.add("ML015",
                           f"anti-join {literal!r} placed before variable(s) "
                           f"{unbound} are bound",
                           location=where)
            continue
        # positive relation literal
        if access not in positive_kinds:
            report.add("ML014",
                       f"literal {literal!r} compiled as {access!r}, expected "
                       f"one of {sorted(positive_kinds)}",
                       location=where)
            bound |= _literal_vars(literal)
            continue
        probeable = {
            position for position, term in enumerate(atom.args)
            if isinstance(term, Constant) or term in bound
        }
        probed = set(path.get("positions", ()))
        if access in ("index-probe", "batch-probe") and not probed:
            report.add("ML014",
                       f"probe on {literal!r} records no key positions",
                       location=where)
        illegal = probed - probeable
        if illegal:
            report.add("ML014",
                       f"probe on {literal!r} keys on unbound position(s) "
                       f"{sorted(illegal)}",
                       location=where,
                       hint="a join key must be a constant or bound by an "
                            "earlier literal")
        if delta_known:
            expected_source = "delta" if index == delta_position else "db"
            if path.get("source", "db") != expected_source:
                report.add("ML014",
                           f"literal {literal!r} scans "
                           f"{path.get('source')!r}, expected "
                           f"{expected_source!r}",
                           location=where)
        bound |= _literal_vars(literal)
    head_vars = {t for t in rule.head.args if isinstance(t, Variable)}
    if not head_vars <= bound:
        unbound = sorted(v.name for v in head_vars - bound)
        report.add("ML014",
                   f"head variable(s) {unbound} are not bound by the op "
                   f"pipeline",
                   location=where,
                   hint="the plan cannot construct the head row")


def _lint_trivial_guard(atom, report: AnalysisReport, where: str) -> None:
    """ML016 for guards decidable at compile time (always-true only).

    Always-*false* identical-term guards (``X < X``) are left to the
    abstract interpreter's ML019, which judges the whole rule dead.
    """
    left, right = atom.args
    if left == right and atom.predicate in _ALWAYS_TRUE_ON_SELF:
        report.add("ML016",
                   f"guard {atom!r} is always true; the op is dead",
                   location=where,
                   hint="remove the tautological comparison")
        return
    if isinstance(left, Constant) and isinstance(right, Constant):
        try:
            verdict = COMPARATORS[atom.predicate](left.value, right.value)
        except TypeError:
            return
        if verdict:
            report.add("ML016",
                       f"constant guard {atom!r} is always true; the op is dead",
                       location=where,
                       hint="remove the constant comparison")


# ---------------------------------------------------------------------------
# source pass: definite assignment + head shape + dedup-before-merge
# ---------------------------------------------------------------------------

def _check_source(rule: Rule, source: str, kind: str, namespace,
                  report: AnalysisReport, where: str) -> None:
    try:
        with _PARSE_LOCK:
            tree = ast.parse(source)
    except SyntaxError as exc:
        report.add("ML014", f"generated source does not parse: {exc}",
                   location=where)
        return
    if (len(tree.body) != 1
            or not isinstance(tree.body[0], ast.FunctionDef)
            or tree.body[0].name != "_fire"):
        report.add("ML014",
                   "generated source is not a single `_fire` function",
                   location=where)
        return
    fn = tree.body[0]
    defined = {arg.arg for arg in fn.args.args}
    checker = _AssignmentChecker(namespace, report, where)
    checker.check_block(fn.body, defined)
    _check_head_shape(rule, fn, kind, report, where)


class _AssignmentChecker:
    """Definite-assignment walk over the generated ``_fire`` body.

    The emitters produce a restricted statement language (assignments,
    ``for``, ``if``-guards with ``continue``/``return`` bodies,
    ``return``, aug-assign on counters); anything outside it is itself an
    ML014 finding, so the walk can stay exact instead of conservative.
    """

    def __init__(self, namespace, report: AnalysisReport, where: str):
        self.namespace = namespace
        self.report = report
        self.where = where

    def _known_global(self, name: str) -> bool:
        if self.namespace is not None:
            if name in self.namespace:
                return True
        elif _DEFAULT_NAMESPACE.match(name) or name in _HELPERS:
            return True
        return hasattr(builtins, name)

    def _unbound(self, name: str, node: ast.AST) -> None:
        self.report.add(
            "ML014",
            f"generated code reads {name!r} before any assignment "
            f"(line {getattr(node, 'lineno', '?')})",
            location=self.where,
            hint="the op pipeline uses a slot it never filled")

    def check_block(self, statements, defined: set[str]) -> None:
        """Check a statement block; mutates ``defined`` with its bindings."""
        for statement in statements:
            self.check_statement(statement, defined)

    def check_statement(self, statement, defined: set[str]) -> None:
        if isinstance(statement, ast.Assign):
            self.check_expression(statement.value, defined)
            for target in statement.targets:
                self._bind_target(target, defined)
        elif isinstance(statement, ast.AugAssign):
            self.check_expression(statement.value, defined)
            if isinstance(statement.target, ast.Name):
                if statement.target.id not in defined:
                    self._unbound(statement.target.id, statement)
            else:
                self.check_expression(statement.target, defined)
        elif isinstance(statement, ast.For):
            self.check_expression(statement.iter, defined)
            inner = set(defined)
            self._bind_target(statement.target, inner)
            self.check_block(statement.body, inner)
        elif isinstance(statement, ast.If):
            self.check_expression(statement.test, defined)
            self.check_block(statement.body, set(defined))
            self.check_block(statement.orelse, set(defined))
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self.check_expression(statement.value, defined)
        elif isinstance(statement, ast.Expr):
            self.check_expression(statement.value, defined)
        elif not isinstance(statement, (ast.Continue, ast.Pass, ast.Break)):
            self.report.add(
                "ML014",
                f"unexpected statement {type(statement).__name__} in "
                f"generated plan (line {getattr(statement, 'lineno', '?')})",
                location=self.where)

    def _bind_target(self, target, defined: set[str]) -> None:
        if isinstance(target, ast.Name):
            defined.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, defined)
        else:  # attribute/subscript target: reads its base
            self.check_expression(target, defined)

    def check_expression(self, node, defined: set[str]) -> None:
        if isinstance(node, ast.Name):
            if node.id not in defined and not self._known_global(node.id):
                self._unbound(node.id, node)
            return
        if isinstance(node, (ast.SetComp, ast.ListComp, ast.GeneratorExp,
                             ast.DictComp)):
            inner = set(defined)
            for index, generator in enumerate(node.generators):
                self.check_expression(generator.iter,
                                      defined if index == 0 else inner)
                self._bind_target(generator.target, inner)
                for condition in generator.ifs:
                    self.check_expression(condition, inner)
            if isinstance(node, ast.DictComp):
                self.check_expression(node.key, inner)
                self.check_expression(node.value, inner)
            else:
                self.check_expression(node.elt, inner)
            return
        if isinstance(node, ast.Lambda):
            inner = set(defined) | {arg.arg for arg in node.args.args}
            self.check_expression(node.body, inner)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                self.check_expression(value, defined)


def _check_head_shape(rule: Rule, fn: ast.FunctionDef, kind: str,
                      report: AnalysisReport, where: str) -> None:
    """Head arity of every emitted projection + batch dedup-before-merge."""
    arity = len(rule.head.args)
    if kind == "row":
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_append" and node.args):
                row = node.args[0]
                if isinstance(row, ast.Tuple) and len(row.elts) != arity:
                    report.add("ML014",
                               f"emitted head row has {len(row.elts)} "
                               f"columns, head arity is {arity}",
                               location=where)
        return
    for node in ast.walk(fn):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.SetComp):
            _check_batch_row(value.elt, arity, report, where)
        elif isinstance(value, ast.List):
            if len(value.elts) > 1:
                report.add("ML014",
                           "batch plan returns a multi-row list without "
                           "dedup before merge",
                           location=where,
                           hint="project through a set comprehension")
            for element in value.elts:
                _check_batch_row(element, arity, report, where)
        elif isinstance(value, ast.IfExp):
            # ``[()] if batch else []`` -- the zero-arity head.
            for arm in (value.body, value.orelse):
                if not (isinstance(arm, ast.List) and len(arm.elts) <= 1):
                    report.add("ML014",
                               "batch plan's conditional return is not a "
                               "≤1-row list",
                               location=where)
        elif isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            report.add("ML014",
                       "batch plan merges a list comprehension without "
                       "dedup",
                       location=where,
                       hint="the merged batch must be duplicate-free "
                            "(set comprehension)")
        # a bare Name / Call return never appears in emitted batch plans;
        # the statement whitelist above already flagged exotic shapes.


def _check_batch_row(element, arity: int, report: AnalysisReport,
                     where: str) -> None:
    if isinstance(element, ast.Tuple) and len(element.elts) != arity:
        report.add("ML014",
                   f"batch head row has {len(element.elts)} columns, head "
                   f"arity is {arity}",
                   location=where)
