"""The ambient observation context.

The evaluation stack is deep (session -> reduction -> Datalog engine ->
compiled plans) and most entry points are also public API; threading a
recorder/metrics/budget triple through every signature would contaminate
all of them.  Instead one :class:`ObsContext` rides on a
:class:`contextvars.ContextVar`: instrumentation producers install it
with :func:`use`, and each engine reads :func:`current` **once** per
evaluation and passes the pieces down as locals.

The default context is fully disabled -- :data:`~repro.obs.trace.
NULL_RECORDER`, :data:`~repro.obs.metrics.NULL_METRICS`,
:data:`~repro.obs.audit.NULL_AUDIT` and no budget meter -- so
un-instrumented callers pay a single ``ContextVar.get`` per
``evaluate()`` call and nothing per row.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.audit import NULL_AUDIT, AuditLog
from repro.obs.budget import BudgetMeter, EvaluationBudget
from repro.obs.metrics import NULL_METRICS, MetricsCollector
from repro.obs.trace import NULL_RECORDER, TraceRecorder


class ObsContext:
    """A recorder + metrics + budget meter + fault plan + audit bundle.

    ``faults`` is an optional :class:`~repro.resilience.FaultPlan` (any
    object with ``wrap_recorder``): when given, the recorder is wrapped so
    every ``span(name)`` call -- the engines' named span points -- first
    offers the plan a chance to raise, delay or corrupt-and-detect.  The
    wrapping works even when tracing is off (the null recorder's span
    points still fire), so chaos tests do not pay for span collection.

    ``parent_span`` carries a request-scoped parent across thread and
    recorder boundaries: the serving layer opens a per-request root span,
    installs a context naming it, and copies the contextvars context into
    the executor offload -- the session then builds its per-ask
    :class:`~repro.obs.trace.TraceRecorder` with that span as its graft
    ``parent``, so engine/stratum spans nest under the request that
    caused them.  It never affects :attr:`enabled`: parenting is a
    correlation hint, not an instrumentation switch.
    """

    __slots__ = ("recorder", "metrics", "meter", "faults", "audit",
                 "parent_span")

    def __init__(self, recorder=None, metrics=None, meter: BudgetMeter | None = None,
                 faults=None, audit=None, parent_span=None):
        recorder = recorder if recorder is not None else NULL_RECORDER
        if faults is not None:
            recorder = faults.wrap_recorder(recorder)
        self.recorder = recorder
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.meter = meter
        self.faults = faults
        self.audit = audit if audit is not None else NULL_AUDIT
        self.parent_span = parent_span

    @property
    def enabled(self) -> bool:
        return (self.recorder.enabled or self.metrics.enabled
                or self.meter is not None or self.faults is not None
                or self.audit.enabled)


#: The all-disabled context every evaluation sees unless told otherwise.
DISABLED = ObsContext()

_CURRENT: ContextVar[ObsContext] = ContextVar("repro-obs-context", default=DISABLED)


def current() -> ObsContext:
    """The context ambient evaluation should report into."""
    return _CURRENT.get()


@contextmanager
def use(ctx: ObsContext):
    """Install ``ctx`` as the ambient context for the ``with`` body."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


def observe(trace: bool = True, metrics: bool = True,
            budget: EvaluationBudget | None = None, faults=None,
            audit: bool = False, histograms=None, sink=None) -> ObsContext:
    """A fresh enabled context (convenience for one traced evaluation).

    ``histograms`` (a :class:`~repro.obs.histogram.HistogramSet`) and
    ``sink`` (a :class:`~repro.obs.export.TelemetrySink`) attach to the
    recorder's span-close path; ``audit=True`` attaches a fresh
    :class:`~repro.obs.audit.AuditLog`.

    >>> from repro.obs import observe, use
    >>> ctx = observe()
    >>> with use(ctx):
    ...     ...  # evaluate / ask
    >>> ctx.recorder.pretty()  # doctest: +SKIP
    """
    return ObsContext(
        TraceRecorder(histograms=histograms, sink=sink) if trace else None,
        MetricsCollector() if metrics else None,
        BudgetMeter(budget) if budget is not None else None,
        faults,
        AuditLog() if audit else None,
    )
