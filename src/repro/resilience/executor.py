"""Retry, then degrade: the one failure policy every served ask runs under.

A :class:`ResilientExecutor` wraps the two evaluation entry points --
:func:`repro.datalog.engine.evaluate` and ``MultiLogSession.ask`` --
with a two-step failure policy on the requested plan (the backend's
native plan, :func:`repro.datalog.engine.native_plan`, or ``naive``
when that is what was asked for):

1. **Retry** transient faults (:func:`repro.errors.is_transient`) with
   capped exponential backoff.  The last transient failure propagates.
2. **Degrade** on budget exhaustion: with ``allow_partial=True`` the
   caller gets a :class:`PartialResult` -- the answers derived before the
   abort, ``complete=False``, and the plan that served it -- instead of
   a :class:`~repro.errors.BudgetExceededError`.

Every other error (unsafe rules, inadmissible databases, permanent
injected faults, a failing plan) propagates at once: no amount of
retrying fixes a property of the program, and serving another plan's
answers would hide the fault.  The ``naive`` plan stays what the
differential suites check the native plans against, never a fallback.

The disabled path -- no faults armed, no budget, first attempt succeeds
-- costs one ``try`` frame and a couple of attribute reads per call;
``benchmarks/bench_resilience_overhead.py`` keeps it honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.datalog.columnar import ColumnarDatabase
from repro.datalog.database import Database
from repro.datalog.engine import evaluate as _engine_evaluate, native_plan
from repro.datalog.rules import Program
from repro.errors import BudgetExceededError, ReproError, is_transient
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


#: the policy an executor built without one retries under (frozen, so
#: every such executor shares it).
DEFAULT_RETRY = RetryPolicy()


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

    #: the plan that ran: the backend's native plan, or ``naive``.
    rung: str = ""
    attempts: int = 0
    retries: int = 0
    degraded: str | None = None


class ResilientExecutor:
    """Retry / degrade wrapper around the evaluation stack.

    >>> from repro.resilience import ResilientExecutor
    >>> executor = ResilientExecutor(allow_partial=True)
    >>> # db_or_partial = executor.evaluate(program)
    >>> # answers = executor.ask(session, "s[acct(K : balance -C-> V)] << cau")

    One executor is reusable across calls; ``last_outcome`` describes the
    most recent one (plan served, attempts, retries).
    """

    def __init__(self, retry: RetryPolicy | None = None,
                 allow_partial: bool = False,
                 budget: EvaluationBudget | None = None,
                 sleep=time.sleep):
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.allow_partial = allow_partial
        self.budget = budget
        self.last_outcome = Outcome()
        self._sleep = sleep

    # ------------------------------------------------------------------
    def _retry(self, attempt, outcome: Outcome):
        """``attempt()`` until it succeeds, retrying transient failures
        up to ``retry.max_retries`` times; anything else -- and the last
        transient failure -- propagates."""
        for tries in range(self.retry.max_retries + 1):
            outcome.attempts += 1
            try:
                return attempt()
            except ReproError as exc:
                if not is_transient(exc) or tries == self.retry.max_retries:
                    raise
                outcome.retries += 1
                delay = self.retry.delay_for(tries)
                if delay:
                    self._sleep(delay)

    # ------------------------------------------------------------------
    def evaluate(self, program: Program, *, naive: bool = False,
                 budget: EvaluationBudget | None = None,
                 **kwargs) -> Database | PartialResult:
        """Resilient :func:`repro.datalog.engine.evaluate`.

        Runs the backend's native plan (``naive`` when asked).  Returns
        the least model on success, a :class:`PartialResult` on budget
        exhaustion when ``allow_partial`` is set, and raises otherwise.
        """
        outcome = Outcome(
            rung="naive" if naive else native_plan(kwargs.get("backend")))
        self.last_outcome = outcome
        effective_budget = budget if budget is not None else self.budget
        try:
            return self._retry(
                lambda: _engine_evaluate(program, naive=naive,
                                         budget=effective_budget, **kwargs),
                outcome)
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

    # ------------------------------------------------------------------
    def ask(self, session, query, engine: str = "operational"
            ) -> list[dict[str, object]] | PartialResult:
        """Resilient ``MultiLogSession.ask``.

        Each attempt is an ordinary ``session.ask``, under the session's
        budget, fault plan and trace; the executor's own ``budget`` only
        bounds :meth:`evaluate`.  The session is held for the whole
        call, so the tries and the stats they settle into are one ask
        to any other caller.  Transient faults retry the ask; budget
        exhaustion with ``allow_partial`` salvages the answers derivable
        from the partial model and returns them in a
        :class:`PartialResult`, surfaced through
        ``session.last_stats().degraded`` and a ``degraded`` attribute on
        the ask's root span.
        """
        outcome = Outcome(rung=native_plan(session.backend))
        self.last_outcome = outcome
        with session._single_flight("ask"):
            try:
                return self._retry(
                    lambda: session._lent_ask(query, engine, outcome),
                    outcome)
            except BudgetExceededError as exc:
                if not self.allow_partial:
                    raise
                outcome.degraded = f"{outcome.rung}:budget-{exc.reason}"
                salvaged = self._salvage_answers(session, query, exc)
                session._mark_degraded(outcome)
                return PartialResult(
                    complete=False, rung=outcome.rung,
                    reason=f"budget-{exc.reason}",
                    answers=salvaged, attempts=outcome.attempts,
                )

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
