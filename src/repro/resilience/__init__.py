"""Resilience for the evaluation stack: chaos in, graceful degradation out.

PR 2 made evaluation observable and bounded; this package makes it
survivable.  Three cooperating pieces (docs/RESILIENCE.md has the full
model):

* **Fault injection** (:mod:`~repro.resilience.faults`) -- a seedable
  :class:`FaultPlan` registered on the ambient
  :class:`~repro.obs.ObsContext` (or armed on a session) that raises,
  delays or corrupt-and-detects at the engines' named span points
  (``evaluate``, ``stratum[i]``, ``rule-fire``, ``beta``,
  ``tau-translate``, ...), so the guarantees below are *tested* by the
  chaos differential suite, not asserted.
* **Retry, then degrade** (:mod:`~repro.resilience.executor`) -- a
  :class:`ResilientExecutor` wrapping ``evaluate`` and
  ``MultiLogSession.ask``: capped-exponential retry for transient
  faults on the requested plan and, when the caller opts in, a
  :class:`PartialResult` instead of a raise on budget exhaustion.
  Every ask the server serves runs through it.  Any other failure
  propagates: a failing plan is never answered from another one.
* **Crash-safe journaling** (:mod:`~repro.resilience.journal`) -- a
  write-ahead :class:`SessionJournal` for ``assert_clause`` (validate,
  append-and-fsync, apply; atomic snapshot compaction), now with
  per-record CRC-32 checksums + sequence numbers, torn/corrupt-tail
  quarantine into a sidecar file, and a structured
  :class:`RecoveryReport` from ``MultiLogSession.recover(path)``, which
  replays the journal and re-checks Definitions 5.3/5.4 on the
  recovered database.  The serving layer compacts it inside the assert
  that crosses ``ServerConfig.checkpoint_due``'s thresholds.

The error taxonomy lives in :mod:`repro.errors`:
:func:`~repro.errors.is_transient` separates retryable faults
(:class:`~repro.errors.TransientFaultError`,
:class:`~repro.errors.DataCorruptionError`) from permanent ones.
"""

from repro.resilience.executor import (
    Outcome,
    PartialResult,
    ResilientExecutor,
    RetryPolicy,
)
from repro.resilience.faults import (
    SPAN_POINTS,
    FaultPlan,
    FaultSpec,
    InjectingRecorder,
)
from repro.resilience.journal import (
    JOURNAL_FAULT_POINTS,
    QuarantinedRecord,
    RecoveryReport,
    SessionJournal,
    database_source,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectingRecorder",
    "JOURNAL_FAULT_POINTS",
    "Outcome",
    "PartialResult",
    "QuarantinedRecord",
    "RecoveryReport",
    "ResilientExecutor",
    "RetryPolicy",
    "SPAN_POINTS",
    "SessionJournal",
    "database_source",
]
