"""Per-operation circuit breakers for the serving layer.

A :class:`CircuitBreaker` tracks consecutive *server-side* failures of
one operation family (``ask`` or ``assert``) and fails fast once the
operation is evidently broken -- a journal on a full disk, an engine
bug tripping on every request -- instead of letting every client burn
an admission slot, a pooled session and a worker thread to rediscover
the same failure.

Classic three-state machine:

* **closed** -- requests flow; ``failures`` counts the current run of
  consecutive failures, any success resets it.  At ``threshold``
  consecutive failures the breaker opens.
* **open** -- requests are rejected immediately with ``breaker-open``
  (clients retry after ``retry_after``); after ``reset_s`` seconds the
  breaker moves to half-open.
* **half-open** -- exactly one probe request is admitted.  Success
  closes the breaker; failure reopens it for another ``reset_s``; a
  probe that ends without a verdict on the server's health (shed,
  client error, client deadline/disconnect) **releases** the slot so
  the next request can probe -- otherwise the slot would leak and the
  breaker would reject everything forever.

Client-caused errors (bad query, bad clearance, budget/deadline of the
*request*) never count: they say nothing about the server's health.
The server decides what to record -- see ``_ERRORS`` in
:mod:`repro.serving.server`.

The breaker lives on the event loop (single-threaded by construction),
so there are no locks; state transitions happen in ``allow()`` /
``record_*``, and the ``state`` property computes open->half-open lazily
from the injected clock (tests pass a fake clock, no sleeps).
"""

from __future__ import annotations

from time import monotonic
from typing import Callable

#: stable gauge encoding for Prometheus: closed=0, half-open=1, open=2.
STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probes."""

    def __init__(self, threshold: int = 8, reset_s: float = 5.0,
                 clock: Callable[[], float] = monotonic):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self.failures = 0  # current consecutive-failure run
        self.opened_total = 0  # times the breaker tripped open (ever)
        self._opened_at: float | None = None  # None = closed
        self._probing = False  # the single half-open probe is out

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing or self._clock() - self._opened_at >= self.reset_s:
            return "half-open"
        return "open"

    @property
    def probing(self) -> bool:
        """Is the single half-open probe currently out?

        Read right after a successful :meth:`allow` this tells the caller
        whether *it* holds the probe slot -- the caller must then resolve
        the probe on every exit path (``record_success`` /
        ``record_failure`` / :meth:`release_probe`).
        """
        return self._probing

    @property
    def state_code(self) -> int:
        return STATE_CODES[self.state]

    def retry_after(self) -> float:
        """Seconds until the breaker will admit a probe (0 when it would)."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.reset_s - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """May one request proceed right now?

        In half-open state the first ``allow()`` claims the single probe
        slot; further requests are rejected until the probe reports back.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """The admitted request succeeded: close (or stay closed)."""
        self.failures = 0
        self._opened_at = None
        self._probing = False

    def release_probe(self) -> None:
        """Return the probe slot without a verdict on the server's health.

        The probe request can end in ways that say nothing about the
        server -- shed by admission control, a bad query, the client's
        own deadline or disconnect.  Counting those as success would
        close the breaker on no evidence; counting them as failure would
        punish the server for its clients; recording *nothing* would
        leak the probe slot and wedge the breaker in half-open forever.
        Releasing keeps the breaker half-open and lets the next request
        claim a fresh probe.  No-op unless a probe is out.
        """
        self._probing = False

    def record_failure(self) -> None:
        """The admitted request failed server-side: count, maybe trip."""
        if self._probing:
            # The half-open probe failed: reopen for a fresh reset window.
            self._probing = False
            self._opened_at = self._clock()
            self.opened_total += 1
            return
        self.failures += 1
        if self._opened_at is None and self.failures >= self.threshold:
            self._opened_at = self._clock()
            self.opened_total += 1

    def describe(self) -> str:
        return (f"{self.state} (failures={self.failures}/{self.threshold}, "
                f"opened {self.opened_total}x)")
