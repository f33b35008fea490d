"""Built-in comparison predicates.

Evaluated natively on ground arguments during rule evaluation.  Ordered
comparisons require mutually comparable Python values; mixing types
raises, which surfaces workload bugs instead of silently failing joins.
"""

from __future__ import annotations

import operator

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant
from repro.datalog.unify import Substitution, walk
from repro.errors import DatalogError

#: each built-in comparison predicate as the Python comparison it means;
#: an ordered one raises ``TypeError`` on incomparable values.
COMPARATORS = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def evaluate_builtin(atom: Atom, subst: Substitution) -> bool:
    """Truth of a ground built-in comparison under ``subst``."""
    if len(atom.args) != 2:
        raise DatalogError(f"built-in {atom.predicate!r} takes two arguments")
    left = walk(atom.args[0], subst)
    right = walk(atom.args[1], subst)
    if not isinstance(left, Constant) or not isinstance(right, Constant):
        raise DatalogError(
            f"built-in {atom!r} evaluated with unbound argument(s); "
            "safety checking should have rejected this rule"
        )
    compare = COMPARATORS.get(atom.predicate)
    if compare is None:
        raise DatalogError(f"unknown built-in predicate {atom.predicate!r}")
    try:
        return bool(compare(left.value, right.value))
    except TypeError as exc:
        raise DatalogError(f"incomparable values in {atom!r}: {exc}") from exc
