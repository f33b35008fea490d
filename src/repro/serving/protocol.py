"""The wire protocol of the MultiLog server: newline-framed JSON.

One request per line, one response per line, UTF-8 JSON objects framed
by ``\\n`` -- the simplest protocol a shell script, ``nc`` or any
language's socket library can speak::

    -> {"id": 1, "op": "hello", "clearance": "s"}
    <- {"id": 1, "ok": true, "server": "multilog-serving/1", ...}
    -> {"id": 2, "op": "ask", "query": "s[p(K : a -C-> V)] << cau"}
    <- {"id": 2, "ok": true, "answers": [...], "version": 4, "complete": true}
    -> {"id": 3, "op": "assert", "clause": "u[p(k2 : a -u-> 7)]."}
    <- {"id": 3, "ok": true, "version": 5}

Requests
--------

Every request is a JSON object with an ``op`` from :data:`OPS` and an
optional client-chosen ``id`` echoed verbatim in the response (so
pipelined requests can be matched up).  Optional ``clearance`` selects
the security level the operation runs at; ``hello`` pins a default for
the connection.

========  ===========================================================
op        fields
========  ===========================================================
hello     ``clearance?`` -- set the connection's default clearance;
          ``timeout_s?`` -- default deadline for this connection
ping      liveness probe; echoes the server version counter + health
ask       ``query`` (required), ``engine?`` (operational|reduction),
          ``clearance?``, ``timeout_s?`` (per-request deadline),
          ``traceparent?`` (W3C trace context to join)
assert    ``clause`` (required), ``strict?`` (Def 5.4 gate),
          ``clearance?``, ``timeout_s?``, ``traceparent?``
metrics   Prometheus text exposition of the serving dashboard
audit     the server-wide MLS audit trail as structured events
slowlog   ``limit?`` -- newest captured slow/errored requests, redacted
          at the requesting clearance (docs/OBSERVABILITY.md)
========  ===========================================================

Deadlines: ``timeout_s`` on ``hello`` pins a per-connection default;
``timeout_s`` on an individual ``ask``/``assert`` overrides it for that
request.  The deadline propagates into the evaluation budget, so an
overrunning ask is aborted *inside* the engine and answered with code
``deadline``, degraded or not; a client that disconnects mid-ask gets
its evaluation cancelled (``cancelled``) instead of burning a worker
thread.

Trace context: ``traceparent`` on ``ask``/``assert`` carries a W3C-style
``00-<trace id>-<span id>-<flags>`` header value; the server adopts the
trace id for its per-request root span and echoes it as ``trace_id`` in
the response, so a client span tree and the server-side capture join up.
A structurally invalid ``traceparent`` is a ``bad-request`` -- tracing
headers are validated like any other field, not silently dropped.

Responses
---------

``{"id": ..., "ok": true, ...}`` on success.  On failure ``ok`` is
false and ``code`` carries a stable machine-readable error code from
:data:`ERROR_CODES`; ``error`` is the human-readable message.  An ask
whose shed budget cut it under load keeps ``ok: true``, reports
``complete: false`` with the answers derived before the cut, and
names the plan and budget reason in ``degraded`` (for example
``"compiled:budget-rows"``) -- partial answers are an answer, not an
error (docs/SERVING.md).  A failing plan is never answered from
another one: it is an ``internal`` error, loaded or not.
Transient rejections (``shed``, ``quota``, ``breaker-open``,
``draining``) carry a ``retry_after`` hint in seconds, mirroring the
HTTP shim's ``Retry-After`` header.

Framing limits: a request line longer than :data:`MAX_LINE_BYTES` is
rejected with ``line-too-long`` and the connection is closed (an
unframed peer would otherwise stall the reader forever).
"""

from __future__ import annotations

import json

from repro.errors import ProtocolError
from repro.obs.trace import parse_traceparent

#: protocol identifier sent in every ``hello`` response.
PROTOCOL_VERSION = "multilog-serving/1"

#: request operations the server understands.
OPS = ("hello", "ping", "ask", "assert", "metrics", "audit", "slowlog")

#: stable machine-readable error codes.
#:
#: ==============  ====================================================
#: bad-request     unparseable or structurally invalid request
#: line-too-long   request line exceeded :data:`MAX_LINE_BYTES`
#: unknown-op      ``op`` not in :data:`OPS`
#: bad-clearance   ``clearance`` is not a level of the lattice
#: bad-query       the query/clause text failed to parse
#: rejected        the engine refused the operation (inadmissible
#:                 clause, unknown mode, budget exhausted, ...)
#: shed            admission control dropped the request (overload);
#:                 transient -- retry after ``retry_after`` seconds
#: quota           the per-clearance admission quota is exhausted;
#:                 transient -- retry after ``retry_after`` seconds
#: deadline        the request's ``timeout_s`` deadline passed before
#:                 the evaluation finished
#: cancelled       the client disconnected (or abandoned the request)
#:                 mid-evaluation, so the server cancelled it
#: breaker-open    the per-op circuit breaker is open after repeated
#:                 failures; transient -- retry after ``retry_after``
#: draining        the server is shutting down gracefully and no longer
#:                 admits work; retry against another replica
#: busy            the session layer reported concurrent use (should
#:                 not escape the pool; a report is a server bug)
#: internal        server-side failure: an injected fault, detected
#:                 corruption, a plan that failed verification, or an
#:                 unexpected exception; counts against the breaker
#: ==============  ====================================================
ERROR_CODES = ("bad-request", "line-too-long", "unknown-op", "bad-clearance",
               "bad-query", "rejected", "shed", "quota", "deadline",
               "cancelled", "breaker-open", "draining", "busy", "internal")

#: hard cap on one framed request line (1 MiB).
MAX_LINE_BYTES = 1 << 20

#: engines an ``ask`` may name.
ENGINES = ("operational", "reduction")


def encode_message(payload: dict) -> bytes:
    """One framed protocol message: compact JSON plus the newline."""
    return (json.dumps(payload, separators=(",", ":"), default=repr)
            + "\n").encode("utf-8")


def ok_response(request_id, **fields) -> dict:
    """A success response echoing ``request_id``."""
    out: dict = {"id": request_id, "ok": True}
    out.update(fields)
    return out


def error_response(request_id, code: str, message: str, **fields) -> dict:
    """A failure response with a stable ``code`` from :data:`ERROR_CODES`.

    Extra ``fields`` ride along verbatim -- transient rejections use
    this for the ``retry_after`` backoff hint.
    """
    if code not in ERROR_CODES:
        code = "internal"
    out = {"id": request_id, "ok": False, "code": code, "error": message}
    out.update(fields)
    return out


def decode_request(line: bytes | str) -> dict:
    """Parse and validate one framed request line.

    Raises :class:`~repro.errors.ProtocolError` (with the matching
    ``code``) on malformed input; the server turns that into an error
    response without touching the engine.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request line of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte frame limit", code="line-too-long")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        request = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}")
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing the 'op' field")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; one of {', '.join(OPS)}",
                            code="unknown-op")
    clearance = request.get("clearance")
    if clearance is not None and not isinstance(clearance, str):
        raise ProtocolError("'clearance' must be a string level name")
    if op in ("hello", "ask", "assert"):
        timeout = request.get("timeout_s")
        if timeout is not None:
            # bool is an int subclass; reject it explicitly.
            if (isinstance(timeout, bool)
                    or not isinstance(timeout, (int, float))
                    or timeout <= 0):
                raise ProtocolError(
                    "'timeout_s' must be a positive number of seconds")
    if op in ("ask", "assert"):
        traceparent = request.get("traceparent")
        if traceparent is not None:
            if not isinstance(traceparent, str):
                raise ProtocolError("'traceparent' must be a string")
            try:
                parse_traceparent(traceparent)
            except ValueError as exc:
                raise ProtocolError(f"invalid traceparent: {exc}") from exc
    if op == "slowlog":
        limit = request.get("limit")
        if limit is not None:
            if (isinstance(limit, bool) or not isinstance(limit, int)
                    or limit <= 0):
                raise ProtocolError("'limit' must be a positive integer")
    if op == "ask":
        query = request.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ProtocolError("'ask' requires a non-empty 'query' string")
        engine = request.get("engine")
        if engine is not None and engine not in ENGINES:
            raise ProtocolError(
                f"unknown engine {engine!r}; one of {', '.join(ENGINES)}")
    elif op == "assert":
        clause = request.get("clause")
        if not isinstance(clause, str) or not clause.strip():
            raise ProtocolError("'assert' requires a non-empty 'clause' string")
        strict = request.get("strict")
        if strict is not None and not isinstance(strict, bool):
            raise ProtocolError("'strict' must be a boolean")
    return request
