"""Outside-in spans around each layer's public functions.

The tracer wraps calls *into* each layer from the benchmark's side: it
replaces a function or method by a timing wrapper for the length of the
traced run and puts the original back afterwards.  The program's own
code is not edited.  A name looked up through a module that imported it
(``from repro.multilog.reduction import translate`` in the session
module) is wrapped where it is looked up, so the wrapper sees the calls
the server actually makes.

Spans live in memory until the run ends.  Each records its name, start,
end, parent (a per-thread stack) and the round it began in; a round is
the unit of attribution because rounds are barriers.  Self time is a
span's duration minus the time its children cover.  Coroutine wrappers
never join the per-thread stack, because coroutines of both connections
interleave on the event-loop thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import weakref
from dataclasses import dataclass
from time import perf_counter

from repro.cache import cache_stats

#: ``(span name, module, attribute path)`` of every wrapped call.
TARGETS = (
    ("protocol.decode", "repro.serving.server", "decode_request"),
    ("protocol.encode", "repro.serving.server", "encode_message"),
    ("pool.checkout", "repro.serving.pool", "SessionPool.checkout"),
    ("session.ask", "repro.multilog.session", "MultiLogSession.ask"),
    ("session.assert", "repro.multilog.session",
     "MultiLogSession.assert_clause"),
    ("admissibility", "repro.multilog.session", "check_admissibility"),
    ("tau.translate", "repro.multilog.session", "translate"),
    ("reduction.model", "repro.multilog.reduction", "ReducedProgram.model"),
    ("reduction.query", "repro.multilog.reduction", "ReducedProgram.query"),
    ("datalog.evaluate", "repro.multilog.reduction", "evaluate"),
    ("datalog.stratify", "repro.datalog.engine", "stratify"),
    ("operational.compute", "repro.multilog.proof",
     "OperationalEngine.compute"),
    ("operational.solve", "repro.multilog.proof", "OperationalEngine.solve"),
    ("journal.append", "repro.resilience.journal",
     "SessionJournal.append_clause"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    #: the enclosing span on the same thread.
    parent: "Span | None"
    round: int
    #: per-call detail: response or appended bytes, first-call flag,
    #: stats deltas.
    extra: object = None
    #: seconds covered by this span's children.
    covered: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers and collects their spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        #: round the next span is stamped with (set by ``run_round``).
        self.round = -1
        #: layers whose target name no longer exists.
        self.absent: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._first_compute: weakref.WeakSet = weakref.WeakSet()

    # -- installation ---------------------------------------------------
    def install(self) -> "Tracer":
        for name, module_name, path in self.targets:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original):
        before_of, after_of = _EXTRAS.get(name, (None, None))
        spans = self.spans

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                span = Span(name, perf_counter(), 0.0, None, self.round)
                try:
                    return await original(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    spans.append(span)
            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, 0.0, parent, self.round)
            spans.append(span)
            stack.append(span)
            before = before_of(self, args) if before_of else None
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.covered += span.duration
            if after_of is not None:
                span.extra = after_of(args, result, before)
            return result
        return wrapper

    def first_compute(self, engine) -> bool:
        """True on the first ``compute`` of an engine object: the one call
        that runs the fixpoint (``compute`` is idempotent afterwards)."""
        if engine in self._first_compute:
            return False
        self._first_compute.add(engine)
        return True

    # -- reading the spans ----------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        return [span.duration - span.covered for span in self.spans]

    def under(self, index: int, name: str) -> bool:
        """True when span ``index`` has an ancestor called ``name``."""
        parent = self.spans[index].parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted path, or ``(None, name)``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def _encoded_bytes(args, result, before):
    return len(result)


def _first_compute(tracer, args):
    return tracer.first_compute(args[0])


def _same(args, result, before):
    return before


def _memo_misses(tracer, args):
    stats = cache_stats().get("tau-translations")
    return stats.misses if stats is not None else 0


def _translated(args, result, before):
    """True when this ``translate`` call missed the memo and translated."""
    return _memo_misses(None, args) > before


def _stats_before(tracer, args):
    return args[0].last_stats()


def _ask_deltas(args, result, before):
    """Rows derived and probes of one ask, from the session's cumulative
    ``last_stats()`` snapshots taken before and after it."""
    stats = args[0].last_stats()
    if stats is None:
        return None
    rows0, joins0, batches0 = ((before.total_rows_derived, before.join_probes,
                                before.batch_probes)
                               if before is not None else (0, 0, 0))
    return (stats.total_rows_derived - rows0, stats.join_probes - joins0,
            stats.batch_probes - batches0)


def _journal_size(tracer, args):
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _appended_bytes(args, result, before):
    """Bytes one ``append_clause`` call added to the journal file.  The
    server appends and compacts only under its write lock, so no
    checkpoint can shrink the file between the two sizes."""
    return _journal_size(None, args) - before


#: per-span detail: ``(before(tracer, args), after(args, result, before))``
#: -- what ``after`` returns is stored on the span.
_EXTRAS = {
    "protocol.encode": (None, _encoded_bytes),
    "operational.compute": (_first_compute, _same),
    "session.ask": (_stats_before, _ask_deltas),
    "tau.translate": (_memo_misses, _translated),
    "journal.append": (_journal_size, _appended_bytes),
}
