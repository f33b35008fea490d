"""EXPLAIN-style dumps of compiled join plans.

Renders what the native plan will actually execute: per stratum,
per rule, the literal order chosen by ``greedy_join_order`` +
``reorder_body`` and the access path of every literal -- which composite
index it probes (and on which positions), or that it falls back to a
full scan, inlined guard or anti-join.  The data comes straight from
:attr:`repro.datalog.plan.CompiledRule.access_paths`, so the dump cannot
drift from the generated code.

Engine imports are deferred into the functions: the engine itself imports
:mod:`repro.obs` for tracing, and importing it back at module level would
be circular.
"""

from __future__ import annotations


def _render_path(step: dict) -> str:
    access = step["access"]
    if access == "index-probe":
        positions = ",".join(str(p) for p in step["positions"])
        source = step["source"]
        return f"index probe on positions ({positions}) of {source} (row loop)"
    if access == "full-scan":
        return f"full scan of {step['source']} (row loop)"
    if access == "batch-probe":
        positions = ",".join(str(p) for p in step.get("positions", ()))
        return f"batch hash join on positions ({positions}) of {step['source']}"
    if access == "batch-scan":
        return f"batch scan of {step['source']} (column batch)"
    if access == "anti-join":
        return "anti-join (negated, contains() check)"
    return "inlined guard (built-in)"


def explain_rule(rule, stratum_predicates: frozenset[str] = frozenset(),
                 backend: str = "dict") -> str:
    """The access-path listing for one rule (body already ordered).

    ``backend="columnar"`` explains the ``vectorized`` batch pipeline
    (``batch hash join`` operators); the default explains the
    ``compiled`` row plan (``row loop`` probes).
    """
    from repro.datalog.plan import compile_batch_rule, compile_rule

    compiler = compile_batch_rule if backend == "columnar" else compile_rule
    plan = compiler(rule, set(stratum_predicates))
    lines = [f"plan for {plan.rule!r}"]
    for index, step in enumerate(plan.access_paths, start=1):
        lines.append(f"  {index}. {step['literal']}  --  {_render_path(step)}")
    if plan.delta_variants:
        deltas = ", ".join(variant[0] for variant in plan.delta_variants)
        lines.append(f"  delta-specialized variants: {deltas}")
    return "\n".join(lines)


def explain_program(program, backend: str = "dict") -> str:
    """An EXPLAIN dump of every compiled rule, grouped by stratum.

    Mirrors exactly what ``evaluate(program, backend=backend)`` runs --
    ``compiled`` row plans on ``dict``, ``vectorized`` batch pipelines on
    ``columnar``: the same stratification, the same greedy join order,
    the same plans.
    """
    from repro.datalog.engine import _stratum_rules
    from repro.datalog.stratify import stratify

    assignment = stratify(program)
    if not program.rules:
        return "(no rules: extensional database only)"
    lines = []
    max_stratum = max(assignment.values(), default=0)
    for level in range(max_stratum + 1):
        stratum_predicates = {p for p, s in assignment.items() if s == level}
        rules = _stratum_rules(program, stratum_predicates)
        if not rules:
            continue
        lines.append(f"stratum[{level}]  predicates: "
                     f"{', '.join(sorted(stratum_predicates))}")
        for rule in rules:
            explained = explain_rule(rule, frozenset(stratum_predicates), backend)
            for line in explained.splitlines():
                lines.append("  " + line)
    return "\n".join(lines)
