"""Python client for the prediction server (Fig. 3's user-side stub).

The paper's execution middleware talks to the prediction service through a
standard interface; this client is that stub.  It is synchronous and uses
only the standard library, so an application (or the example scripts) can
talk to a :class:`~repro.server.app.PredictionServer` with no extra
dependencies.

Resilience: requests carry a timeout, and *idempotent* requests (GETs —
predictions, status, health) are retried with capped exponential backoff
plus jitter on transient failures.  When the server sheds load (HTTP
429/503 from admission control) its retry hint is honored: the backoff
loop sleeps at least the response's ``Retry-After`` before the next
attempt.  Errors are typed:

* :class:`RetryableServiceError` — transient (connection failure, timeout,
  HTTP 5xx/429): the same request may succeed if repeated.
* :class:`TerminalServiceError` — the server understood and refused (HTTP
  4xx): repeating the identical request will fail the identical way.
* :class:`DeadlineExceeded` — the caller's total time budget ran out
  before any attempt succeeded (see below).

All subclass :class:`PredictionServiceError`, so existing ``except``
clauses keep working.

**Replica sets.**  ``address`` accepts a single ``(host, port)`` pair or a
list of them.  With several endpoints the client fails over: each endpoint
carries a small circuit breaker (``breaker_threshold`` consecutive
transport failures open it for ``breaker_cooldown`` seconds), reads are
served by whichever replica answers, and writes remember the endpoint
that last accepted one (the presumed primary).  A fenced ``409`` reply
(``code`` of ``not_primary`` or ``stale_epoch``, see
:mod:`repro.server.replication`) guarantees the server applied nothing,
so the client re-routes the *same* write to the next endpoint without a
backoff sleep — safe even for observation POSTs that carry no
idempotency key.

**Total deadline.**  ``retries`` bounds the number of attempts, but a
server that keeps answering 429 with generous ``Retry-After`` hints can
stall a caller far longer than it can afford.  ``deadline`` (constructor
default, overridable per call on :meth:`report_observation`) is a hard
wall-clock budget across *all* attempts, sleeps, and endpoint rotations:
when the next backoff sleep would overrun it, the client raises
:class:`DeadlineExceeded` immediately — chained to the last underlying
error — instead of sleeping into a timeout it already knows it will miss.

**At-least-once observation delivery.**  A bare observation POST is *not*
retried on transient failures: a timeout is ambiguous (the server may
have durably applied the sample before the response was lost), and
re-reporting re-applies an SGD step.  Passing ``idempotency_key`` to
:meth:`report_observation` changes the contract to at-least-once: the key
rides with the payload, the server remembers recently seen keys in a
bounded ledger (surviving crash recovery via the WAL), and a retried
delivery is acknowledged without a second model update — so the client
then retries observation POSTs like any idempotent request, including
across a failover to a freshly promoted standby.  Keys must be unique per
*measurement* (e.g. ``f"{collector_id}:{sequence_number}"``), not per
request, and the server's ledger capacity bounds how stale a retry may
arrive (``docs/operations.md``).
"""

from __future__ import annotations

import json
import random
import struct
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime

from repro.server.binary import (
    OP_CREDENCE,
    OP_OBSERVE,
    OP_OBSERVE_BATCH,
    OP_PREDICT_BATCH,
    RESPONSE_FLAG,
    BinaryConnection,
    BinaryServerError,
    ProtocolError,
    pack_credence_request,
    pack_observe_batch_request,
    pack_observe_request,
    pack_predict_request,
    source_names,
    unpack_credence_response,
    unpack_observe_batch_response,
    unpack_observe_response,
    unpack_predict_response,
)
from repro.server.http import ServiceError

#: 409 ``code`` values that guarantee the server applied no state change,
#: making an immediate re-route of the same request safe (fencing replies
#: from repro.server.replication).
_FENCED_CODES = ("not_primary", "stale_epoch")

#: Idle binary connections kept per endpoint.  Callers beyond this many at
#: once still get a connection each; the surplus is closed on return.
_POOL_IDLE_MAX = 8

#: What coercing or packing a payload's fields can raise when the wire
#: types cannot carry them.
_UNFRAMEABLE = (
    AttributeError,
    KeyError,
    TypeError,
    ValueError,
    OverflowError,
    struct.error,
    ProtocolError,
)


class _Frame:
    """The binary encoding of one call: the request frame (``None`` when
    the request cannot be framed — it then travels as JSON), the reply
    opcode it expects, and how each transport's reply becomes the call's
    result, so a caller sees one shape whichever transport answered."""

    __slots__ = ("data", "reply_opcode", "from_binary", "from_json")

    def __init__(self, pack, opcode, from_binary, from_json=None) -> None:
        try:
            self.data = pack()
        except _UNFRAMEABLE:
            self.data = None
        self.reply_opcode = opcode | RESPONSE_FLAG
        self.from_binary = from_binary
        self.from_json = from_json


class _InFlight:
    """A frame written to endpoint ``index`` whose reply is still owed."""

    __slots__ = ("index", "conn", "ticket")

    def __init__(self, index, conn, ticket) -> None:
        self.index = index
        self.conn = conn
        self.ticket = ticket


class PendingReply:
    """A read begun with ``PredictionClient.begin_*``: its frame may already
    be on the wire, so the shard works while the caller starts other
    calls.  :meth:`result` (call it exactly once) finishes the request
    with the client's usual retry, failover and fallback behaviour."""

    __slots__ = ("_client", "_request", "_inflight")

    def __init__(self, client, request, inflight) -> None:
        self._client = client
        self._request = request
        self._inflight = inflight

    def result(self):
        inflight, self._inflight = self._inflight, None
        return self._client._request(**self._request, inflight=inflight)


def _wire_record(payload: dict) -> tuple:
    """An ``/observations`` payload as the ``OBSERVE`` record fields,
    coerced the way the server's JSON validation coerces them.  Raises
    (:data:`_UNFRAMEABLE`) when the frame could not say what the payload
    says — the JSON route then carries it and words the refusal."""
    key = payload.get("idempotency_key")
    if key is not None and not (isinstance(key, str) and key):
        raise ValueError("only the JSON route validates this key")
    return (
        float(payload["timestamp"]),
        int(payload["user_id"]),
        int(payload["service_id"]),
        float(payload["value"]),
        key,
    )


def _observe_frame(payload: dict) -> _Frame:
    return _Frame(
        lambda: pack_observe_request(*_wire_record(payload)),
        OP_OBSERVE,
        unpack_observe_response,
    )


def _observe_batch_frame(observations: list) -> _Frame:
    return _Frame(
        lambda: pack_observe_batch_request(
            [_wire_record(payload) for payload in observations]
        ),
        OP_OBSERVE_BATCH,
        unpack_observe_batch_response,
    )


def _expect_count(values: list, ids: list) -> list:
    if len(values) != len(ids):
        raise ProtocolError(
            f"server answered {len(values)} values for {len(ids)} ids"
        )
    return values


def _predict_frame(user_id: int, service_ids: "list[int]") -> _Frame:
    """Result shape: ``(values, sources, transport)``, aligned with
    ``service_ids``."""

    def from_binary(body: bytes):
        values, codes = unpack_predict_response(body)
        return _expect_count(values, service_ids), source_names(codes), "binary"

    def from_json(body: dict):
        predictions = body["predictions"]
        sources = body.get("sources", {})
        return (
            [float(predictions[str(s)]) for s in service_ids],
            [sources.get(str(s)) for s in service_ids],
            "json",
        )

    return _Frame(
        lambda: pack_predict_request(user_id, service_ids),
        OP_PREDICT_BATCH,
        from_binary,
        from_json,
    )


def _credence_frame(service_ids: "list[int]") -> _Frame:
    """Result shape: credence values aligned with ``service_ids``."""
    return _Frame(
        lambda: pack_credence_request(service_ids),
        OP_CREDENCE,
        lambda body: _expect_count(unpack_credence_response(body), service_ids),
        lambda body: [float(body["credence"][str(s)]) for s in service_ids],
    )


def _retry_after_hint(exc: "urllib.error.HTTPError", body) -> "float | None":
    """Best retry delay hint from a shed response, in seconds.

    The JSON body's ``retry_after`` (float, sub-second precision) is
    preferred; the ``Retry-After`` header is the fallback.  RFC 9110
    allows the header in two forms — delay-seconds *or* an HTTP-date
    (proxies commonly rewrite one into the other) — and both are honored:
    a date in the past clamps to 0 rather than being discarded.  ``None``
    when the response carries neither.
    """
    if isinstance(body, dict):
        hint = body.get("retry_after")
        if isinstance(hint, (int, float)) and hint >= 0:
            return float(hint)
    header = exc.headers.get("Retry-After") if exc.headers is not None else None
    if header is not None:
        try:
            parsed = float(header)
        except ValueError:
            try:
                when = parsedate_to_datetime(header)
            except (TypeError, ValueError):
                return None
            if when is None:
                return None
            if when.tzinfo is None:
                when = when.replace(tzinfo=timezone.utc)
            return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())
        if parsed >= 0:
            return parsed
    return None


class PredictionServiceError(ServiceError, RuntimeError):
    """Raised when the server rejects a request or is unreachable.

    ``status`` and ``body`` are the server's answer (``None`` when there
    was none: refused, reset, timed out).  Raised inside another server's
    handler — the router relaying a shard's refusal — the answer passes
    through verbatim.
    """

    status = None
    body = None

    def reply(self) -> "tuple[int, dict]":
        body = self.body if isinstance(self.body, dict) else {"error": str(self)}
        return self.status or 502, body


class RetryableServiceError(PredictionServiceError):
    """Transient failure — retrying the same request may succeed."""


class TerminalServiceError(PredictionServiceError):
    """Definitive rejection — retrying the same request cannot succeed."""


class DeadlineExceeded(PredictionServiceError):
    """The caller's total time budget expired before a request succeeded.

    Raised *instead of sleeping* when the next backoff delay would overrun
    the budget; ``__cause__`` carries the last underlying service error.
    """


class PredictionClient:
    """HTTP client bound to one prediction-server address or a replica set.

    Args:
        address:     ``(host, port)`` of the server, or a list of such
                     pairs for a replicated deployment (first entry is the
                     initially preferred endpoint).
        timeout:     per-attempt socket timeout in seconds.
        retries:     extra attempts for idempotent (GET) requests on
                     transient failures; POSTs are never retried unless
                     they carry an idempotency key.
        backoff:     first retry delay; doubles per attempt.
        backoff_max: delay cap.
        jitter:      each delay is multiplied by ``1 + uniform(0, jitter)``
                     so a fleet of recovering clients doesn't stampede.
        deadline:    default total wall-clock budget (seconds) per logical
                     request across all retries and endpoint rotations;
                     ``None`` keeps the attempt-count bound only.
        breaker_threshold: consecutive transport failures that open an
                     endpoint's circuit breaker.
        breaker_cooldown:  seconds an open breaker diverts traffic away
                     from an endpoint before it is probed again.
        transport:   how the data-plane calls travel (observations,
                     observation batches, candidate predictions, credence;
                     everything else is always JSON/HTTP) — ``"auto"``
                     (default) uses pooled persistent binary connections
                     when the server offers them and falls back to
                     JSON/HTTP on a transport-level failure that cannot
                     have applied anything; ``"binary"`` requires them
                     (transport failures raise); ``"json"`` never touches
                     the binary port.  Server *answers* (including errors)
                     never trigger a fallback — both transports hit the
                     same backend.
        binary_address: ``(host, port)`` of the server's binary listener;
                     ``None`` (default) discovers it from ``/status``.
    """

    def __init__(
        self,
        address: "tuple[str, int] | list[tuple[str, int]]",
        timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        jitter: float = 0.5,
        deadline: "float | None" = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        transport: str = "auto",
        binary_address: "tuple[str, int] | None" = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff <= 0 or backoff_max <= 0:
            raise ValueError("backoff and backoff_max must be positive")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        if breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {breaker_cooldown}"
            )
        if transport not in ("auto", "json", "binary"):
            raise ValueError(
                f"transport must be 'auto', 'json' or 'binary', got {transport!r}"
            )
        addresses = (
            [address] if isinstance(address, tuple) else list(address)
        )
        if not addresses:
            raise ValueError("address list must not be empty")
        self._bases = [f"http://{host}:{port}" for host, port in addresses]
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.deadline = deadline
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._jitter_rng = random.Random()
        self.retries_performed = 0
        self.failovers_performed = 0
        # Routing state: _preferred serves reads, _primary (once learned
        # from a successful write) serves writes.  Per-endpoint breaker
        # state lives in parallel lists.
        self._preferred = 0
        self._primary: "int | None" = None
        self._failures = [0] * len(self._bases)
        self._open_until = [0.0] * len(self._bases)
        # Binary-transport state, per endpoint and guarded by _binary_lock:
        # the listener's address (learned from /status, forgotten when a
        # connection fails), a free list of idle persistent connections,
        # and when ``auto`` may next probe after a failure.
        self.transport = transport
        self._binary_address = binary_address
        self._binary_lock = threading.Lock()
        self._binary_addresses: "list[tuple[str, int] | None]" = [None] * len(
            self._bases
        )
        self._binary_idle: "list[list[BinaryConnection]]" = [
            [] for _ in self._bases
        ]
        self._binary_retry_at = [0.0] * len(self._bases)

    @property
    def endpoints(self) -> "list[str]":
        """Base URLs of the configured replica set, in preference order."""
        return list(self._bases)

    @property
    def _base(self) -> str:
        """Currently preferred base URL (kept for single-endpoint callers)."""
        return self._bases[self._preferred]

    # -- endpoint selection ---------------------------------------------------
    def _pick_endpoint(self, write: bool) -> int:
        """Next endpoint to try: the presumed primary for writes (when
        known), otherwise the preferred read endpoint — skipping endpoints
        whose breaker is open.  When every breaker is open the preferred
        endpoint is probed anyway (half-open), so a fully partitioned
        client still discovers recovery."""
        count = len(self._bases)
        start = (
            self._primary
            if write and self._primary is not None
            else self._preferred
        )
        now = time.monotonic()
        for step in range(count):
            index = (start + step) % count
            if self._open_until[index] <= now:
                return index
        return start

    def _note_success(self, index: int, write: bool) -> None:
        self._failures[index] = 0
        self._open_until[index] = 0.0
        self._preferred = index
        if write:
            self._primary = index

    def _note_failure(self, index: int) -> None:
        self._failures[index] += 1
        if self._failures[index] >= self.breaker_threshold:
            self._open_until[index] = time.monotonic() + self.breaker_cooldown

    # -- transport ------------------------------------------------------------
    def _request_once(
        self,
        method: str,
        path: str,
        payload: "dict | None" = None,
        raw: bool = False,
        index: int = 0,
        timeout: "float | None" = None,
    ) -> "dict | str":
        base = self._bases[index]
        data = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(
            base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        if timeout is None:
            timeout = self.timeout
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                body = response.read()
                return body.decode("utf-8") if raw else json.loads(body)
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read())
            except Exception:
                body = None
            raise self._service_error(
                method, path, exc.code, body, _retry_after_hint(exc, body)
            ) from exc
        except urllib.error.URLError as exc:
            raise RetryableServiceError(
                f"cannot reach prediction service at {base}: {exc.reason}"
            ) from exc
        except TimeoutError as exc:
            raise RetryableServiceError(
                f"{method} {path} timed out after {timeout}s"
            ) from exc

    def _request(
        self,
        method: str,
        path: str,
        payload: "dict | None" = None,
        idempotent: "bool | None" = None,
        raw: bool = False,
        write: bool = False,
        deadline: "float | None" = None,
        binary: "_Frame | None" = None,
        inflight: "_InFlight | None" = None,
    ) -> "dict | str":
        """One logical request: attempts, failover, backoff, deadline.

        ``binary`` gives the call a second encoding (and shapes the
        result, see :class:`_Frame`); ``inflight`` is that frame already
        written by :meth:`_begin`, so the first attempt only collects the
        reply.
        """
        if idempotent is None:
            idempotent = method == "GET"
        if deadline is None:
            deadline = self.deadline
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        attempts = self.retries + 1 if idempotent else 1
        delay = self.backoff
        attempt = 0
        redirects = 0
        last_error: "PredictionServiceError | None" = None
        while True:
            timeout = self.timeout
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"{method} {path}: deadline of {deadline}s exhausted"
                    ) from last_error
                timeout = min(timeout, remaining)
            sent, inflight = inflight, None
            index = sent.index if sent is not None else self._pick_endpoint(write)
            try:
                result = self._attempt(
                    index, timeout, (method, path, payload, raw), idempotent,
                    binary, sent,
                )
            except TerminalServiceError as exc:
                body = getattr(exc, "body", None)
                code = body.get("code") if isinstance(body, dict) else None
                if (
                    code in _FENCED_CODES
                    and len(self._bases) > 1
                    and redirects < len(self._bases)
                ):
                    # A fenced 409 guarantees the server applied nothing,
                    # so re-routing the same request — even a keyless
                    # observation POST — is safe, and no backoff sleep is
                    # needed: the replica is healthy, just not primary.
                    redirects += 1
                    self.failovers_performed += 1
                    last_error = exc
                    if write:
                        self._primary = None
                    self._preferred = (index + 1) % len(self._bases)
                    continue
                raise
            except RetryableServiceError as exc:
                # Only transport failures (no HTTP status: refused, reset,
                # timed out) indict the endpoint itself; a 429/503 means
                # the node is alive and shedding, so it keeps its breaker
                # standing and its primary role.
                if getattr(exc, "status", None) is None:
                    self._note_failure(index)
                    if write:
                        self._primary = None
                    if len(self._bases) > 1:
                        # Rotate away from the dead replica right away; the
                        # breaker keeps it deprioritized until it recovers.
                        self._preferred = (index + 1) % len(self._bases)
                        self.failovers_performed += 1
                last_error = exc
                attempt += 1
                if attempt >= attempts:
                    raise
                sleep = min(delay, self.backoff_max) * (
                    1.0 + self.jitter * self._jitter_rng.random()
                )
                # A shedding server knows when capacity returns; its
                # Retry-After is a floor under our own backoff, so a fleet
                # of retrying clients doesn't hammer a rate limiter that
                # already told them when to come back.  Jitter on top of
                # the hint too: every shed client got the same number, and
                # synchronized wake-ups would re-create the very stampede
                # the server shed.
                hint = getattr(exc, "retry_after", None)
                if hint is not None:
                    sleep = max(
                        sleep,
                        hint * (1.0 + self.jitter * self._jitter_rng.random()),
                    )
                if deadline_at is not None and (
                    time.monotonic() + sleep >= deadline_at
                ):
                    # Sleeping would overrun the budget; fail fast with
                    # the real cause chained instead of dozing into it.
                    raise DeadlineExceeded(
                        f"{method} {path}: next retry would exceed the "
                        f"{deadline}s deadline"
                    ) from exc
                time.sleep(sleep)
                delay *= 2.0
                self.retries_performed += 1
            else:
                self._note_success(index, write)
                return result

    # -- the Fig. 3 interface -------------------------------------------------
    def report_observation(
        self,
        user_id: int,
        service_id: int,
        value: float,
        timestamp: float,
        idempotency_key: "str | None" = None,
        deadline: "float | None" = None,
    ) -> float:
        """Upload one observed QoS sample; returns its pre-update error.

        With ``idempotency_key`` set, the POST is retried on transient
        failures like an idempotent request — the server's dedup ledger
        guarantees the sample is applied at most once (see the module
        docstring for the at-least-once contract).  ``deadline`` caps the
        total time spent across retries and failovers for this one call
        (overriding the constructor default); on expiry
        :class:`DeadlineExceeded` is raised.  Returns NaN when the server
        acknowledged without a fresh model update (a deduplicated retry,
        or a sample the outlier gate quarantined).
        """
        payload = {
            "timestamp": timestamp,
            "user_id": user_id,
            "service_id": service_id,
            "value": value,
        }
        if idempotency_key is not None:
            payload["idempotency_key"] = idempotency_key
        error = self.report_observation_detailed(payload, deadline)["sample_error"]
        return float(error) if error is not None else float("nan")

    def report_observation_detailed(
        self, observation: dict, deadline: "float | None" = None
    ) -> dict:
        """Upload one sample given as the ``POST /observations`` payload;
        returns the reply, ``{sample_error, action}``.  Retried only when
        the payload carries an ``idempotency_key``."""
        return self._request(
            "POST",
            "/observations",
            observation,
            idempotent=observation.get("idempotency_key") is not None,
            write=True,
            deadline=deadline,
            binary=_observe_frame(observation),
        )

    def report_observations(self, observations: "list[dict]") -> int:
        """Upload many samples; returns how many were accepted.

        Bad records no longer abort the batch server-side; use
        :meth:`report_observations_detailed` for per-item outcomes.
        """
        return int(self.report_observations_detailed(observations)["accepted"])

    def report_observations_detailed(self, observations: "list[dict]") -> dict:
        """Upload many samples; returns ``{accepted, rejected, sample_errors}``
        where ``rejected`` lists ``{index, error}`` per refused record."""
        return self._request(
            "POST",
            "/observations/batch",
            {"observations": observations},
            write=True,
            binary=_observe_batch_frame(observations),
        )

    def predict(self, user_id: int, service_id: int) -> float:
        """Predicted QoS for one (user, service) pair."""
        return float(self.predict_detailed(user_id, service_id)["prediction"])

    def predict_detailed(self, user_id: int, service_id: int) -> dict:
        """Prediction plus its provenance: ``{prediction, source,
        expected_error}`` — ``source`` is ``"model"`` or a degraded-mode
        estimator, ``expected_error`` the calibration confidence."""
        query = urllib.parse.urlencode(
            {"user_id": user_id, "service_id": service_id}
        )
        return self._request("GET", f"/predictions?{query}")

    # -- binary transport -----------------------------------------------------
    def _binary_usable(self, index: int) -> bool:
        """Whether to try endpoint ``index``'s binary port now: always when
        it is required, and in ``auto`` unless a recent failure is still
        cooling down."""
        return self.transport == "binary" or (
            self.transport == "auto"
            and time.monotonic() >= self._binary_retry_at[index]
        )

    def _attempt(self, index, timeout, http, idempotent, binary, sent):
        """One attempt at endpoint ``index``: over a pooled binary
        connection when the call has a frame and ``transport`` allows,
        over JSON/HTTP (``http`` = method, path, payload, raw) otherwise —
        or after a binary failure, unless the frame was written and
        re-sending it could apply a write twice."""
        method, path, payload, raw = http
        framed = binary is not None and binary.data is not None
        if framed and (sent is not None or self._binary_usable(index)):
            try:
                if sent is None:
                    sent = self._binary_send(index, binary, timeout)
                return self._binary_receive(sent, binary, timeout)
            except BinaryServerError as exc:
                # The server *answered*; JSON would answer identically,
                # so surface it instead of falling back.
                raise self._service_error(
                    method, path, exc.status, exc.payload,
                    exc.payload.get("retry_after"),
                ) from exc
            except (OSError, ProtocolError) as exc:
                self._binary_failed(index)
                if self.transport == "binary" or (sent is not None and not idempotent):
                    raise RetryableServiceError(
                        f"binary transport to {self._bases[index]} failed: {exc}"
                    ) from exc
        result = self._request_once(
            method, path, payload, raw=raw, index=index, timeout=timeout
        )
        if binary is not None and binary.from_json is not None:
            result = binary.from_json(result)
        return result

    @staticmethod
    def _service_error(method, path, status, body, retry_after):
        """The typed error for a server answer of ``status``, whichever
        transport carried it."""
        detail = body.get("error", "") if isinstance(body, dict) else ""
        kind = (
            RetryableServiceError
            if status >= 500 or status == 429
            else TerminalServiceError
        )
        error = kind(f"{method} {path} failed with HTTP {status}: {detail}")
        error.status = status
        error.body = body
        error.retry_after = retry_after
        return error

    def _binary_checkout(self, index: int, timeout: float) -> BinaryConnection:
        """A connection to endpoint ``index``'s binary listener that is
        this caller's alone until :meth:`_binary_checkin`: an idle pooled
        one whose peer is still there, else a new one (nobody ever waits
        for a connection, so holding two cannot deadlock)."""
        with self._binary_lock:
            idle = self._binary_idle[index]
            while idle:
                conn = idle.pop()
                if not conn.peer_closed():
                    return conn
                # The server went away, and may be back on another port.
                conn.close()
                self._binary_addresses[index] = None
            address = self._binary_addresses[index]
        if address is None:
            address = self._discover_binary_address(index, timeout)
        conn = BinaryConnection(address, timeout=self.timeout)
        conn.connect()
        with self._binary_lock:
            self._binary_addresses[index] = address
        return conn

    def _discover_binary_address(self, index: int, timeout: float) -> tuple[str, int]:
        if self._binary_address is not None:
            return self._binary_address
        try:
            status = self._request_once("GET", "/status", index=index, timeout=timeout)
        except PredictionServiceError as exc:
            if getattr(exc, "status", None) is None:
                raise  # the endpoint itself is unreachable
            raise ConnectionError(f"cannot discover a binary transport: {exc}") from exc
        advertised = (status.get("transport") or {}).get("binary_address")
        if not advertised:
            raise ConnectionError("server does not advertise a binary transport")
        return advertised[0], int(advertised[1])

    def _binary_checkin(self, index: int, conn: BinaryConnection) -> None:
        if conn.outstanding:
            return  # a pipelined reply is still owed; its reader returns it
        with self._binary_lock:
            if len(self._binary_idle[index]) < _POOL_IDLE_MAX:
                self._binary_idle[index].append(conn)
                return
        conn.close()

    def _binary_failed(self, index: int) -> None:
        """A connection to endpoint ``index`` failed: its siblings go to
        the same process, so drop them all, re-discover the address next
        time (a restarted server listens on a new ephemeral port), and
        hold ``auto`` off the binary port for a cooldown."""
        with self._binary_lock:
            idle, self._binary_idle[index] = self._binary_idle[index], []
            self._binary_addresses[index] = None
            self._binary_retry_at[index] = time.monotonic() + self.breaker_cooldown
        for conn in idle:
            conn.close()

    def _binary_send(
        self,
        index: int,
        binary: _Frame,
        timeout: float,
        after: "_InFlight | None" = None,
    ) -> _InFlight:
        """Write ``binary``'s frame to endpoint ``index`` — behind
        ``after``'s frame on its connection when that goes to the same
        endpoint, so the two pipeline."""
        if after is not None and after.index == index:
            conn = after.conn
        else:
            conn = self._binary_checkout(index, timeout)
        return _InFlight(index, conn, conn.send(binary.data))

    def _binary_receive(self, sent: _InFlight, binary: _Frame, timeout: float):
        try:
            body = sent.conn.receive(sent.ticket, binary.reply_opcode, timeout)
            result = binary.from_binary(body)
        except BinaryServerError:
            self._binary_checkin(sent.index, sent.conn)
            raise
        except (OSError, ProtocolError):
            sent.conn.close()
            raise
        self._binary_checkin(sent.index, sent.conn)
        return result

    def _begin(self, binary: _Frame, after: "PendingReply | None", **request):
        """Start an idempotent read: write its frame now if the binary
        transport is usable, and leave everything else — the reply, and
        any failure — to :meth:`PendingReply.result`."""
        inflight = None
        index = self._pick_endpoint(write=False)
        if binary.data is not None and self._binary_usable(index):
            try:
                inflight = self._binary_send(
                    index,
                    binary,
                    self.timeout,
                    after._inflight if after is not None else None,
                )
            except (OSError, PredictionServiceError):
                self._binary_failed(index)
        return PendingReply(
            self, dict(request, idempotent=True, binary=binary), inflight
        )

    def close(self) -> None:
        """Release the pooled binary connections (JSON needs no cleanup)."""
        with self._binary_lock:
            idle = [conn for conns in self._binary_idle for conn in conns]
            for conns in self._binary_idle:
                conns.clear()
        for conn in idle:
            conn.close()

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def predict_candidates(
        self, user_id: int, service_ids: "list[int]"
    ) -> dict[int, float]:
        """Predicted QoS for a candidate pool, keyed by service id.

        One batched round trip for the whole pool (duplicate ids are
        deduplicated before hitting the wire), over a persistent binary
        connection when the transport allows it — see the constructor's
        ``transport`` parameter.
        """
        return self.predict_candidates_detailed(user_id, service_ids)["predictions"]

    def predict_candidates_detailed(
        self, user_id: int, service_ids: "list[int]"
    ) -> dict:
        """Like :meth:`predict_candidates` but returns ``{predictions,
        sources, transport}`` — per-service fallback-chain provenance plus
        which transport actually answered."""
        unique_ids = list(dict.fromkeys(int(s) for s in service_ids))
        values, sources, transport = self.begin_predict_batch(
            user_id, unique_ids
        ).result()
        return {
            "user_id": user_id,
            "predictions": dict(zip(unique_ids, values)),
            "sources": dict(zip(unique_ids, sources)),
            "transport": transport,
        }

    def begin_predict_batch(
        self,
        user_id: int,
        service_ids: "list[int]",
        after: "PendingReply | None" = None,
    ) -> PendingReply:
        """Start ``POST /predictions/batch`` for ``service_ids`` exactly
        as given; the result is ``(values, sources, transport)`` aligned
        with them.  ``after`` is a read begun earlier on this client whose
        connection this frame should follow (one connection, two frames
        in flight)."""
        return self._begin(
            _predict_frame(user_id, service_ids),
            after,
            method="POST",
            path="/predictions/batch",
            payload={"user_id": user_id, "service_ids": service_ids},
        )

    def begin_credence(
        self, service_ids: "list[int]", after: "PendingReply | None" = None
    ) -> PendingReply:
        """Start ``GET /credence``; the result is the credence values
        aligned with ``service_ids``.  ``after`` as in
        :meth:`begin_predict_batch`."""
        return self._begin(
            _credence_frame(service_ids),
            after,
            method="GET",
            path="/credence?service_ids=" + ",".join(str(s) for s in service_ids),
        )

    def credence(self, service_ids: "list[int]") -> dict[int, float]:
        """Per-service EMA relative error (credence), keyed by service id.

        A pure read: unknown services report the model's ``init_error``
        and nothing is registered.  The cluster router uses this to merge
        authoritative credence from each service's home shard.
        """
        unique_ids = list(dict.fromkeys(int(s) for s in service_ids))
        return dict(zip(unique_ids, self.begin_credence(unique_ids).result()))

    def status(self) -> dict:
        """Server-side model statistics."""
        return self._request("GET", "/status")

    def replication_status(self) -> dict:
        """Replication role/epoch/lag of the currently preferred endpoint
        (``{"replicated": False, ...}`` for an unreplicated server)."""
        return self._request("GET", "/replication/status")

    def metrics(self) -> str:
        """Raw ``/metrics`` body — Prometheus text exposition, not JSON.

        Same typed errors and idempotent-GET retry policy as the JSON
        routes; parse the result with
        :func:`repro.observability.parse_prometheus_text` if structure is
        needed.
        """
        return self._request("GET", "/metrics", raw=True)

    def health(self) -> dict:
        """Liveness/readiness report; ``{"status": "ok" | "unavailable",
        "checks": {...}, ...}``.  A 503 (not ready) returns the body rather
        than raising, so callers can inspect which check failed."""
        try:
            return self._request("GET", "/health", idempotent=False)
        except PredictionServiceError as exc:
            body = getattr(exc, "body", None)
            if getattr(exc, "status", None) == 503 and isinstance(body, dict):
                return body
            raise
