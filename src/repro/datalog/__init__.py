"""A from-scratch Datalog engine: the paper's CORAL back-end stand-in.

Pipeline: :mod:`terms` / :mod:`atoms` / :mod:`rules` define the language;
:mod:`stratify` checks negation; :mod:`engine` evaluates bottom-up (naive
and semi-naive); :mod:`topdown` evaluates on demand; :mod:`magic` rewrites
queries for tuple-level demand; :mod:`parse` provides a concrete syntax.
"""

from repro.datalog.atoms import BUILTIN_PREDICATES, Atom, Literal, atom, neg, pos
from repro.datalog.columnar import ColumnarDatabase
from repro.datalog.database import Database, Row
from repro.datalog.engine import (
    Increment,
    answer_rows,
    evaluate,
    evaluate_goal_rules,
    greedy_join_order,
    query,
    query_database,
    reorder_body,
)
from repro.datalog.magic import MagicProgram, magic_query, magic_transform
from repro.datalog.plan import BatchRule, CompiledRule, compile_batch_rule, compile_rule
from repro.datalog.parse import parse_atom, parse_program
from repro.datalog.rules import Program, Rule, SafetyViolation
from repro.datalog.storage import (
    BACKEND_ENV,
    BACKENDS,
    StorageBackend,
    make_database,
    resolve_backend,
)
from repro.datalog.stratify import dependencies, strata, stratify
from repro.datalog.terms import Constant, Term, Variable, fresh_variable, make_term
from repro.datalog.topdown import TopDownEngine
from repro.datalog.unify import (
    Substitution,
    apply_to_atom,
    apply_to_literal,
    match_atom,
    unify_atoms,
    unify_terms,
)

__all__ = [
    "Atom",
    "BACKEND_ENV",
    "BACKENDS",
    "BUILTIN_PREDICATES",
    "BatchRule",
    "ColumnarDatabase",
    "CompiledRule",
    "Constant",
    "Database",
    "Increment",
    "Literal",
    "MagicProgram",
    "Program",
    "Row",
    "Rule",
    "SafetyViolation",
    "StorageBackend",
    "Substitution",
    "Term",
    "TopDownEngine",
    "Variable",
    "answer_rows",
    "apply_to_atom",
    "apply_to_literal",
    "atom",
    "compile_batch_rule",
    "compile_rule",
    "dependencies",
    "evaluate",
    "evaluate_goal_rules",
    "fresh_variable",
    "greedy_join_order",
    "magic_query",
    "magic_transform",
    "make_database",
    "make_term",
    "match_atom",
    "neg",
    "parse_atom",
    "parse_program",
    "pos",
    "query",
    "query_database",
    "reorder_body",
    "resolve_backend",
    "strata",
    "stratify",
    "unify_atoms",
    "unify_terms",
]
