"""The degradation ladder: retry, fall back, degrade -- in that order.

A :class:`ResilientExecutor` wraps the two evaluation entry points --
:func:`repro.datalog.engine.evaluate` and ``MultiLogSession.ask`` --
with a three-step failure policy:

1. **Retry** transient faults (:func:`repro.errors.is_transient`) on the
   same ladder rung, with capped exponential backoff.
2. **Fall back** to ``naive`` when the backend's native plan fails in a
   strategy-specific way (:class:`~repro.errors.StrategyFailureError`)
   or keeps failing after all retries.  The ladder has two rungs: the
   native plan (``compiled`` on ``dict``, ``vectorized`` on
   ``columnar``; :func:`repro.datalog.engine.native_plan`), then
   ``naive`` -- the differential oracle, the one evaluation independent
   of the semi-naive driver.  A ``naive`` request has that rung alone.
3. **Degrade** on budget exhaustion: with ``allow_partial=True`` the
   caller gets a :class:`PartialResult` -- the answers derived before the
   abort, ``complete=False``, and the rung that served it -- instead of a
   :class:`~repro.errors.BudgetExceededError`.

Permanent errors (unsafe rules, inadmissible databases, permanent
injected faults) propagate immediately from any rung: no amount of
retrying fixes a property of the program.

The disabled path -- no faults armed, no budget, first attempt succeeds
-- costs one ``try`` frame and a couple of attribute reads per call;
``benchmarks/bench_resilience_overhead.py`` keeps it honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.datalog.columnar import ColumnarDatabase
from repro.datalog.database import Database
from repro.datalog.engine import evaluate as _engine_evaluate, native_plan
from repro.datalog.rules import Program
from repro.errors import (
    BudgetExceededError,
    ReproError,
    StrategyFailureError,
    is_transient,
)
from repro.obs.budget import EvaluationBudget


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient fault, and how fast.

    Backoff for retry ``n`` (0-based) is ``min(max_delay_s, base_delay_s
    * 2**n)`` -- capped exponential.  The default base of 0 keeps tests
    and interactive use instant; services should set a real base.
    """

    max_retries: int = 2
    base_delay_s: float = 0.0
    max_delay_s: float = 1.0

    def delay_for(self, attempt: int) -> float:
        if self.base_delay_s <= 0.0:
            return 0.0
        return min(self.max_delay_s, self.base_delay_s * (2.0 ** attempt))


@dataclass
class PartialResult:
    """What a degraded evaluation could still deliver.

    ``answers`` is filled by :meth:`ResilientExecutor.ask`, ``database``
    by :meth:`ResilientExecutor.evaluate`; the other stays ``None``.
    ``complete`` is always ``False`` -- a complete result is returned as
    its natural type, never wrapped.  For negation-free programs the
    partial answers are a *subset* of the fault-free answers (bottom-up
    evaluation is monotone); with stratified negation an aborted lower
    stratum can surface answers the complete run would retract, which is
    why the flag, not the content, is the contract.
    """

    complete: bool
    rung: str
    reason: str
    answers: list[dict[str, object]] | None = None
    database: Database | ColumnarDatabase | None = None
    attempts: int = 1

    def __bool__(self) -> bool:
        return bool(self.answers) or self.database is not None


@dataclass
class Outcome:
    """Bookkeeping for the most recent executor call (``last_outcome``)."""

    rung: str = ""
    requested: str = ""
    attempts: int = 0
    retries: int = 0
    fallbacks: int = 0
    degraded: str | None = None
    errors: list[str] = field(default_factory=list)


class ResilientExecutor:
    """Retry / fall back / degrade wrapper around the evaluation stack.

    >>> from repro.resilience import ResilientExecutor
    >>> executor = ResilientExecutor(allow_partial=True)
    >>> # db_or_partial = executor.evaluate(program)
    >>> # answers = executor.ask(session, "s[acct(K : balance -C-> V)] << cau")

    One executor is reusable across calls; ``last_outcome`` describes the
    most recent one (rung served, attempts, retries, fallbacks).
    """

    def __init__(self, retry: RetryPolicy | None = None,
                 allow_partial: bool = False,
                 budget: EvaluationBudget | None = None,
                 sleep=time.sleep):
        self.retry = retry if retry is not None else RetryPolicy()
        self.allow_partial = allow_partial
        self.budget = budget
        self.last_outcome = Outcome()
        self._sleep = sleep

    # ------------------------------------------------------------------
    def _run_rungs(self, requested: str, attempt_rung, outcome: Outcome):
        """Shared retry/fallback driver over ``requested``, then ``naive``
        (``naive`` alone when that is the request).

        ``attempt_rung(rung)`` performs one attempt; transient failures
        retry the rung, strategy failures and exhausted retries descend,
        everything else propagates.  Returns the first success.
        """
        last_error: BaseException | None = None
        rungs = (requested,) if requested == "naive" else (requested, "naive")
        for index, rung in enumerate(rungs):
            outcome.rung = rung
            if index:
                outcome.fallbacks += 1
            for attempt in range(self.retry.max_retries + 1):
                outcome.attempts += 1
                try:
                    return attempt_rung(rung)
                except StrategyFailureError as exc:
                    outcome.errors.append(f"{rung}: {exc}")
                    last_error = exc
                    break  # strategy-specific: no point retrying this rung
                except BudgetExceededError:
                    raise  # handled by the caller (degrade, not retry)
                except ReproError as exc:
                    if not is_transient(exc):
                        raise
                    outcome.errors.append(f"{rung}: {exc}")
                    last_error = exc
                    if attempt < self.retry.max_retries:
                        outcome.retries += 1
                        delay = self.retry.delay_for(attempt)
                        if delay:
                            self._sleep(delay)
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    def evaluate(self, program: Program, *, naive: bool = False,
                 budget: EvaluationBudget | None = None,
                 **kwargs) -> Database | PartialResult:
        """Resilient :func:`repro.datalog.engine.evaluate`.

        Climbs the backend's native plan, then ``naive`` (or ``naive``
        alone when asked).  Returns the least model on success, a
        :class:`PartialResult` on budget exhaustion when
        ``allow_partial`` is set, and raises otherwise.
        """
        requested = "naive" if naive else native_plan(kwargs.get("backend"))
        outcome = Outcome(requested=requested)
        self.last_outcome = outcome
        effective_budget = budget if budget is not None else self.budget

        def attempt_rung(rung: str) -> Database:
            return _engine_evaluate(program, naive=rung == "naive",
                                    budget=effective_budget, **kwargs)

        try:
            result = self._run_rungs(requested, attempt_rung, outcome)
        except BudgetExceededError as exc:
            if not self.allow_partial:
                raise
            outcome.degraded = f"{outcome.rung}:budget-{exc.reason}"
            partial = exc.partial_database
            return PartialResult(
                complete=False, rung=outcome.rung,
                reason=f"budget-{exc.reason}",
                database=(partial
                          if isinstance(partial, (Database, ColumnarDatabase))
                          else None),
                attempts=outcome.attempts,
            )
        if outcome.rung != requested:
            outcome.degraded = f"{outcome.rung}:fallback"
        return result

    # ------------------------------------------------------------------
    def ask(self, session, query, engine: str = "operational"
            ) -> list[dict[str, object]] | PartialResult:
        """Resilient ``MultiLogSession.ask``.

        Transient faults retry the ask; a strategy-specific failure
        re-runs it on the ``naive`` rung, an ask through the reduction
        engine whose least model is built naively inside the ask (the
        operational engine has no naive plan; the reduction answers
        the same queries -- Theorem 6.1); budget exhaustion with
        ``allow_partial`` salvages the answers derivable from the partial
        model and returns them in a :class:`PartialResult`.  Every rung
        is an ordinary ask of the session, under its budget, fault plan
        and trace; the executor's own ``budget`` only bounds
        :meth:`evaluate`.  Either degradation is surfaced through
        ``session.last_stats().degraded`` and a ``degraded`` attribute
        on the ask's root span.
        """
        native = native_plan(session.backend)
        outcome = Outcome(requested=native)
        self.last_outcome = outcome

        def attempt_rung(rung: str) -> list[dict[str, object]]:
            if rung == native:
                return session._ask_locked(query, engine)
            return session._ask_locked(query, "reduction", naive=True)

        with session._single_flight("ask"):
            try:
                answers = self._run_rungs(native, attempt_rung, outcome)
            except BudgetExceededError as exc:
                if not self.allow_partial:
                    session._settle(outcome)
                    raise
                outcome.degraded = f"{outcome.rung}:budget-{exc.reason}"
                salvaged = self._salvage_answers(session, query, exc)
                session._settle(outcome)
                return PartialResult(
                    complete=False, rung=outcome.rung,
                    reason=f"budget-{exc.reason}",
                    answers=salvaged, attempts=outcome.attempts,
                )
            if outcome.rung != native:
                outcome.degraded = f"{outcome.rung}:fallback"
            session._settle(outcome)
        return answers

    def _salvage_answers(self, session, query, exc: BudgetExceededError
                         ) -> list[dict[str, object]]:
        """Answers derivable from the partial model the abort left behind.

        Budget-free and best-effort: any error during salvage yields the
        empty list (the result is flagged incomplete either way).
        """
        partial = exc.partial_database
        if not isinstance(partial, (Database, ColumnarDatabase)):
            return []
        try:
            from repro.multilog.parser import parse_query
            from repro.obs.context import DISABLED, use as _use_obs

            parsed = parse_query(query) if isinstance(query, str) else query
            with _use_obs(DISABLED):
                return session.reduced.query(parsed, model=partial)
        except ReproError:
            return []
