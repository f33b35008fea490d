"""Deterministic fault injection at named span points.

The engines already announce every interesting phase boundary to the
ambient recorder -- ``evaluate``, ``stratify``, ``stratum[i]``,
``rule-fire``, ``round[i]``, ``beta``, ``tau-translate``, ``query``,
``fixpoint`` -- so the span points double as fault points.  A
:class:`FaultPlan` holds a list of :class:`FaultSpec` triggers; when the
plan is registered on an :class:`~repro.obs.ObsContext` (the ``faults``
slot), the context wraps its recorder in an :class:`InjectingRecorder`
whose ``span(name)`` first offers the plan a chance to fire.  This works
whether tracing is on or off: the null recorder's span points still
fire, so chaos tests do not pay for span collection.

Determinism: with ``probability=1.0`` (the default) a spec fires on
exact hit counts (``after`` skips, ``times`` caps), so a chaos run is
reproducible by construction.  Probabilistic specs draw from the plan's
own ``random.Random(seed)``, never the global RNG, so a seeded plan
replays identically.

Four actions:

* ``raise`` -- raise :class:`~repro.errors.TransientFaultError`
  (``error="transient"``) or :class:`~repro.errors.FaultInjectedError`
  (``error="permanent"``);
* ``delay`` -- sleep ``delay_s`` (drives wall-clock budgets into
  timeouts without flaky real workloads);
* ``corrupt`` -- corrupt-and-detect: raise
  :class:`~repro.errors.DataCorruptionError`, modelling an intermediate
  whose checksum verification failed.  Detected corruption is transient:
  recomputing from clean inputs may succeed.
* ``enospc`` -- raise ``OSError(ENOSPC)``, modelling a full disk.  Only
  meaningful at the journal's disk fault points
  (:data:`~repro.resilience.journal.JOURNAL_FAULT_POINTS`), where the
  journal wraps it into a :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import errno
import random
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.errors import (
    DataCorruptionError,
    FaultInjectedError,
    TransientFaultError,
)

#: The span points the engines announce (documented for :func:`FaultPlan.arm`
#: callers and the ``:faults`` shell command; globs like ``stratum[*]`` match).
SPAN_POINTS = (
    "evaluate", "stratify", "stratum[*]", "round[*]", "rule-fire",
    "answer-rules", "beta", "tau-translate", "query", "parse", "fixpoint",
    "analyze",
)

_ACTIONS = ("raise", "delay", "corrupt", "enospc")
_ERRORS = ("transient", "permanent")


def _match_point(name: str, pattern: str) -> bool:
    """Span-point matching: exact, ``prefix[*]`` families, or fnmatch.

    Span names use literal brackets (``stratum[0]``, ``round[3]``) that
    ``fnmatch`` would read as character classes, so the indexed-family
    form ``prefix[*]`` is handled specially: it matches ``prefix[<any>]``.
    """
    if pattern == name or pattern == "*":
        return True
    if pattern.endswith("[*]"):
        return (name.startswith(pattern[:-2]) and name.endswith("]"))
    return fnmatchcase(name, pattern)


@dataclass
class FaultSpec:
    """One trigger: *at this span point, do this, so many times*.

    ``point`` is an ``fnmatch``-style pattern over span names
    (``"stratum[*]"`` hits every stratum).  The spec fires on hits
    ``after+1 .. after+times`` of a matching span (``times=None`` means
    forever); ``probability < 1`` additionally gates each firing on the
    owning plan's seeded RNG.
    """

    point: str
    action: str = "raise"
    error: str = "transient"
    delay_s: float = 0.0
    after: int = 0
    times: int | None = 1
    probability: float = 1.0
    #: bookkeeping, owned by the plan
    hits: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; use one of {_ACTIONS}")
        if self.error not in _ERRORS:
            raise ValueError(f"unknown fault error kind {self.error!r}; use one of {_ERRORS}")

    def matches(self, name: str) -> bool:
        return _match_point(name, self.point)

    def describe(self) -> str:
        out = f"{self.action} at {self.point}"
        if self.action == "raise":
            out += f" ({self.error})"
        if self.action == "delay":
            out += f" ({self.delay_s}s)"
        if self.after:
            out += f" after {self.after}"
        out += " forever" if self.times is None else f" x{self.times}"
        if self.probability < 1.0:
            out += f" p={self.probability}"
        return out + f" [hits={self.hits} fired={self.fired}]"


class FaultPlan:
    """A seedable set of fault triggers, armed on an :class:`~repro.obs.
    ObsContext` (ambient evaluation) or a ``MultiLogSession`` (asks).

    >>> from repro.resilience import FaultPlan
    >>> plan = FaultPlan(seed=0)
    >>> _ = plan.arm("stratum[*]", action="raise", error="transient")
    >>> # with use(ObsContext(faults=plan)): evaluate(...)  # raises once

    ``history`` records every firing as ``(span_name, action)`` so chaos
    tests can assert the fault actually landed where intended.
    """

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int | None = None,
                 sleep=time.sleep):
        self.specs: list[FaultSpec] = list(specs or [])
        self.seed = seed
        self.history: list[tuple[str, str]] = []
        self._rng = random.Random(seed)
        self._sleep = sleep

    # -- arming ----------------------------------------------------------
    def arm(self, point: str, action: str = "raise", error: str = "transient",
            delay_s: float = 0.0, after: int = 0, times: int | None = 1,
            probability: float = 1.0) -> FaultSpec:
        """Add one trigger and return it (for later inspection)."""
        spec = FaultSpec(point, action, error, delay_s, after, times, probability)
        self.specs.append(spec)
        return spec

    def disarm(self, point: str | None = None) -> int:
        """Drop the triggers at ``point`` (all of them when ``None``)."""
        kept = [s for s in self.specs if point is not None and s.point != point]
        dropped = len(self.specs) - len(kept)
        self.specs = kept
        return dropped

    def reset(self) -> None:
        """Rewind hit/fired counters, the history and the seeded RNG."""
        for spec in self.specs:
            spec.hits = 0
            spec.fired = 0
        self.history = []
        self._rng = random.Random(self.seed)

    # -- firing ----------------------------------------------------------
    def on_span(self, name: str) -> None:
        """Called by the wrapped recorder at every span point; may raise."""
        for spec in self.specs:
            if not spec.matches(name):
                continue
            spec.hits += 1
            if spec.hits <= spec.after:
                continue
            if spec.times is not None and spec.fired >= spec.times:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            spec.fired += 1
            self.history.append((name, spec.action))
            self._fire(spec, name)

    def _fire(self, spec: FaultSpec, name: str) -> None:
        if spec.action == "delay":
            self._sleep(spec.delay_s)
            return
        if spec.action == "corrupt":
            raise DataCorruptionError(
                f"injected corruption detected at span point {name!r}")
        if spec.action == "enospc":
            raise OSError(errno.ENOSPC,
                          f"injected ENOSPC at span point {name!r}")
        if spec.error == "transient":
            raise TransientFaultError(
                f"injected transient fault at span point {name!r}", point=name)
        raise FaultInjectedError(
            f"injected permanent fault at span point {name!r}", point=name)

    # -- ObsContext integration ------------------------------------------
    def wrap_recorder(self, recorder) -> "InjectingRecorder":
        """The hook :class:`~repro.obs.ObsContext` calls to install us."""
        return InjectingRecorder(recorder, self)

    def describe(self) -> str:
        if not self.specs:
            return "(no faults armed)"
        return "\n".join(spec.describe() for spec in self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.specs)} specs, seed={self.seed}, fired={len(self.history)})"


class InjectingRecorder:
    """Recorder decorator: fault check first, then delegate.

    Keeps the inner recorder's duck type (``span``/``clear``/``find``/
    dumps/``enabled``) so instrumented code and ``last_trace()`` renderers
    never know the difference.  The fault fires *before* the span object
    is created, so an injected raise never leaves a half-open span.
    """

    __slots__ = ("inner", "plan")

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    @property
    def enabled(self) -> bool:
        return self.inner.enabled

    def span(self, name: str, **attrs):
        self.plan.on_span(name)
        return self.inner.span(name, **attrs)

    def clear(self) -> None:
        self.inner.clear()

    def find(self, name: str):
        return self.inner.find(name)

    def to_dicts(self):
        return self.inner.to_dicts()

    def to_json(self, indent: int | None = None) -> str:
        return self.inner.to_json(indent)

    def pretty(self) -> str:
        return self.inner.pretty()
