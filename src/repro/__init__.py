"""MultiLog: belief reasoning in MLS deductive databases.

A full reproduction of Hasan M. Jamil, *Belief Reasoning in MLS Deductive
Databases* (SIGMOD 1999): the MultiLog language with its operational and
reduction semantics, the parametric belief function beta, the MLS
relational substrate the paper's figures are computed from, a from-scratch
Datalog engine standing in for CORAL, and an extended SQL front-end with
``BELIEVED <mode>``.

Quick start::

    from repro.multilog import MultiLogSession

    session = MultiLogSession('''
        level(u). level(s). order(u, s).
        u[acct(alice : balance -u-> 100)].
        s[acct(alice : balance -s-> 900)].
    ''', clearance="s")
    session.ask("s[acct(alice : balance -C-> B)] << cau")
    # -> [{'B': 900, 'C': 's'}]

Subpackages: :mod:`repro.lattice`, :mod:`repro.mls`, :mod:`repro.belief`,
:mod:`repro.datalog`, :mod:`repro.multilog`, :mod:`repro.msql`,
:mod:`repro.workloads`, :mod:`repro.reporting`.
"""

from repro.errors import (
    AccessDeniedError,
    AdmissibilityError,
    BeliefRecursionError,
    BudgetExceededError,
    ConsistencyError,
    CycleError,
    DataCorruptionError,
    DatalogError,
    FaultInjectedError,
    IntegrityError,
    JournalError,
    LatticeError,
    MLSError,
    MultiLogError,
    MultiLogSyntaxError,
    NotALatticeError,
    RecoveryError,
    ReproError,
    ResilienceError,
    SchemaError,
    StratificationError,
    TransientFaultError,
    UnknownLevelError,
    UnknownModeError,
    UnsafeRuleError,
    is_transient,
)

__version__ = "1.0.0"

__all__ = [
    "AccessDeniedError",
    "AdmissibilityError",
    "BeliefRecursionError",
    "BudgetExceededError",
    "ConsistencyError",
    "CycleError",
    "DataCorruptionError",
    "DatalogError",
    "FaultInjectedError",
    "IntegrityError",
    "JournalError",
    "LatticeError",
    "MLSError",
    "MultiLogError",
    "MultiLogSyntaxError",
    "NotALatticeError",
    "RecoveryError",
    "ReproError",
    "ResilienceError",
    "SchemaError",
    "StratificationError",
    "TransientFaultError",
    "UnknownLevelError",
    "UnknownModeError",
    "UnsafeRuleError",
    "__version__",
    "is_transient",
]
