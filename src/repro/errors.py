"""Exception hierarchy shared by every subsystem of the reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.  Subsystems refine it:

* :class:`LatticeError` -- malformed security lattices.
* :class:`MLSError` -- MLS relational model violations (integrity,
  Bell-LaPadula access violations, schema misuse).
* :class:`DatalogError` -- engine-level problems (unsafe rules,
  unstratifiable negation).
* :class:`MultiLogError` -- language-level problems (parse errors,
  inadmissible or inconsistent databases).
* :class:`BudgetExceededError` -- an :class:`~repro.obs.EvaluationBudget`
  limit was hit mid-evaluation (any engine).
* :class:`ResilienceError` and friends -- the transient-vs-permanent
  taxonomy consumed by :mod:`repro.resilience` (retry transient faults,
  propagate permanent errors immediately).

Transience is a property of the *class*: :func:`is_transient` consults
the ``transient`` class attribute, so user-defined errors can opt into
the retry path without touching this module.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library.

    ``transient`` classifies the error for the resilience layer: ``True``
    means a retry of the same work may succeed (the fault is not a
    property of the program), ``False`` means retrying is pointless.
    """

    #: Retryable?  Overridden by transient subclasses; see :func:`is_transient`.
    transient = False


class LatticeError(ReproError):
    """A security lattice is malformed or was used incorrectly."""


class CycleError(LatticeError):
    """The declared ordering contains a cycle (violates antisymmetry)."""


class UnknownLevelError(LatticeError):
    """A security level was referenced that the lattice does not declare."""


class NotALatticeError(LatticeError):
    """The partial order lacks a required least upper / greatest lower bound."""


class MLSError(ReproError):
    """Base class for MLS relational model errors."""


class SchemaError(MLSError):
    """A relation scheme is malformed or a tuple does not match it."""


class IntegrityError(MLSError):
    """An MLS integrity property (entity/null/polyinstantiation) is violated."""


class AccessDeniedError(MLSError):
    """A subject attempted an access forbidden by Bell-LaPadula."""


class BeliefError(MLSError):
    """A belief-view computation was refused (e.g. the cautious
    maximal-cell combination count exceeds the configured cap)."""


class BudgetExceededError(ReproError):
    """An :class:`~repro.obs.EvaluationBudget` limit was hit mid-evaluation.

    Structured so callers can degrade gracefully:

    * ``reason`` -- which limit tripped: ``"rows"``, ``"rounds"`` or
      ``"timeout"``;
    * ``spent`` -- the budget spend at the point of failure
      (``{"rows": ..., "rounds": ..., "elapsed_s": ...}``);
    * ``metrics`` -- the partial :class:`~repro.obs.EngineMetrics`
      snapshot, attached by ``evaluate`` / ``MultiLogSession.ask`` when a
      metrics collector was active (``None`` otherwise);
    * ``partial_database`` -- the facts derived before the abort, attached
      by ``evaluate`` so :class:`~repro.resilience.ResilientExecutor` can
      serve a :class:`~repro.resilience.PartialResult` (``None`` when the
      abort happened before any stratum ran).
    """

    def __init__(self, message: str, reason: str = "budget",
                 spent: dict | None = None, metrics: object | None = None):
        super().__init__(message)
        self.reason = reason
        self.spent = dict(spent or {})
        self.metrics = metrics
        self.partial_database: object | None = None


class ResilienceError(ReproError):
    """Base class for faults raised or detected by the resilience layer."""


class FaultInjectedError(ResilienceError):
    """An armed :class:`~repro.resilience.FaultPlan` fired at a span point.

    ``point`` names the span point the fault was injected at.  The base
    class is the *permanent* flavour; :class:`TransientFaultError` is the
    retryable one.
    """

    def __init__(self, message: str, point: str = ""):
        super().__init__(message)
        self.point = point


class TransientFaultError(FaultInjectedError):
    """An injected (or genuinely transient) fault; a retry may succeed."""

    transient = True


class DataCorruptionError(ResilienceError):
    """Corrupted state was *detected* (checksum mismatch, torn record).

    Transient for evaluation (recomputing from clean inputs may succeed);
    the journal layer raises it for torn non-final records, where replay
    stops instead of retrying.
    """

    transient = True


class JournalError(ResilienceError):
    """The write-ahead journal could not be written, read or parsed."""


class ServingError(ResilienceError):
    """Base class for errors raised by the serving layer."""


class ProtocolError(ServingError):
    """A malformed request on the wire (bad framing, JSON, or fields).

    ``code`` is the stable machine-readable error code the server echoes
    back in the response (``bad-request``, ``line-too-long``, ...).
    """

    def __init__(self, message: str, code: str = "bad-request"):
        super().__init__(message)
        self.code = code


class OverloadedError(ServingError):
    """Admission control shed the request (server at capacity).

    Transient by design: the client may retry after backoff -- load
    shedding is a statement about *now*, not about the request.
    """

    transient = True


class RecoveryError(JournalError):
    """Journal replay produced a database that fails Def 5.3/5.4 checks."""

    def __init__(self, message: str, report: object | None = None):
        super().__init__(message)
        self.report = report


def is_transient(exc: BaseException) -> bool:
    """True when retrying the failed work may succeed.

    Library errors carry a ``transient`` class attribute; outside the
    hierarchy, interrupted system calls and timeouts (``InterruptedError``,
    ``TimeoutError``) are the only OS-level faults worth a retry.
    """
    flagged = getattr(exc, "transient", None)
    if flagged is not None:
        return bool(flagged)
    return isinstance(exc, (InterruptedError, TimeoutError))


class DatalogError(ReproError):
    """Base class for Datalog engine errors."""


class UnsafeRuleError(DatalogError):
    """A rule is not range-restricted (unsafe head or negated variables)."""


class PlanVerificationError(DatalogError):
    """A codegen'd join/batch plan failed static verification before exec.

    Raised by :mod:`repro.datalog.plan` when the plan verifier
    (:mod:`repro.analysis.planverify`) finds error-severity diagnostics
    (ML014/ML015) in a generated plan -- the compiled source never runs.
    ``report`` carries the full :class:`~repro.analysis.AnalysisReport`.
    """

    def __init__(self, message: str, report: object | None = None):
        super().__init__(message)
        self.report = report


class StratificationError(DatalogError):
    """The program has negation that cannot be stratified."""


class MultiLogError(ReproError):
    """Base class for MultiLog language errors."""


class MultiLogSyntaxError(MultiLogError):
    """The MultiLog source text could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class AdmissibilityError(MultiLogError):
    """The database violates Definition 5.3 (admissibility)."""


class ConsistencyError(MultiLogError):
    """The database violates Definition 5.4 (consistency)."""


class UnknownModeError(MultiLogError):
    """A belief mode was used that is not declared in the session."""


class SessionBusyError(MultiLogError):
    """Concurrent use of one non-reentrant :class:`MultiLogSession`.

    A session carries per-ask state (trace recorder, metrics snapshot,
    engine caches mid-revalidation), so ``ask``/``assert_clause`` are
    single-flight: a second caller entering while one is in progress gets
    this error instead of silently corrupting the first caller's state.
    Concurrent callers should hold sessions exclusively -- the serving
    layer's :class:`~repro.serving.SessionPool` checkout discipline, or
    one :meth:`MultiLogSession.with_clearance` sibling per worker.
    """


class AnalysisError(MultiLogError):
    """Static analysis rejected the program before evaluation.

    Raised by lint-gated entry points (``MultiLogSession(lint=True)``,
    ``evaluate(..., analyze=True)``) when :mod:`repro.analysis` reports
    error-severity diagnostics.  ``report`` carries the full
    :class:`~repro.analysis.AnalysisReport` so callers can render every
    finding, not just the first.
    """

    def __init__(self, message: str, report: object | None = None):
        super().__init__(message)
        self.report = report


class BeliefRecursionError(MultiLogError):
    """Belief recursion is not level-stratified (the fixpoint oscillates).

    Arises from m-clauses whose heads feed back into the beliefs their own
    bodies consult (e.g. a clause at level ``l`` depending on a cautious
    belief at a level dominating ``l``) -- the non-monotonic analogue of
    recursion through negation.
    """
