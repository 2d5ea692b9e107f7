"""The request boundary shared by the prediction server and the router.

Three things live here and nowhere else:

* :class:`ServiceError` — the base of every refusal a handler can raise.
  A subclass carries its own HTTP ``status`` and JSON body, so the code
  that *detects* a condition (fencing, shedding, a dead shard, a
  migration window) also says how it reads on the wire;
* :func:`error_reply` — the one function that turns any exception into
  ``(status, body, headers)``.  The JSON dispatch below, the binary
  transport's error frames and the router all answer through it, so a
  refusal is the same status and the same body on every encoding;
* :class:`HttpListener` — one ``ThreadingHTTPServer`` plus its serve
  thread, driven by a ``{(method, path): callable}`` route table.  Both
  servers start and stop their HTTP front end through it.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.observability import get_registry

_INTERNAL_ERRORS = get_registry().counter(
    "qos_server_internal_errors_total", "Requests that hit the HTTP 500 boundary"
)

#: ``serve_forever`` polls for shutdown this often, so an idle listener
#: stops within one interval (the stdlib default of 0.5 s made every
#: ``stop()`` take half a second).
_POLL_SECONDS = 0.02

_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServiceError(Exception):
    """A refusal that knows its wire reply.

    The JSON body is ``{"error": message}``, then ``"code"`` (a stable
    machine-readable discriminator) when there is one, then ``fields`` in
    the order given.  Subclasses set ``status`` (and usually ``code``) as
    class attributes.
    """

    status = 500
    code: "str | None" = None

    def __init__(self, message: str, code: "str | None" = None, **fields) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.fields = fields

    def reply(self) -> "tuple[int, dict]":
        body = {"error": str(self)}
        if self.code is not None:
            body["code"] = self.code
        body.update(self.fields)
        return self.status, body


class BadRequest(ServiceError):
    """Client error with a message safe to echo back."""

    status = 400


def check_id(value, field: str) -> int:
    """An entity id as a request may carry it: a JSON integer, not a
    ``bool``, ``>= 0``.  Anything else — ``3.7``, ``"5"``, ``true`` — is a
    400, never coerced to some other entity's id."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BadRequest(f"field {field!r} must be a non-negative integer")
    return value


class PayloadTooLarge(ServiceError):
    """Request body exceeds the configured limit."""

    status = 413


def error_reply(exc: BaseException, on_internal_error=None) -> "tuple[int, dict, dict]":
    """``(status, body, headers)`` for an exception raised by a handler.

    Anything that is not a :class:`ServiceError` is a bug: it becomes a
    500 naming the exception class, counted in
    ``qos_server_internal_errors_total`` (``on_internal_error``, when
    given, lets the owning server keep its own tally too).  A body that
    carries ``retry_after`` also gets the ``Retry-After`` header — whole
    seconds, rounded up, at least 1.
    """
    if isinstance(exc, ServiceError):
        status, body = exc.reply()
    else:
        _INTERNAL_ERRORS.inc()
        if on_internal_error is not None:
            on_internal_error()
        status = 500
        body = {"error": f"internal error: {type(exc).__name__}: {exc}"}
    headers = {}
    retry_after = body.get("retry_after")
    if isinstance(retry_after, (int, float)):
        headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
    return status, body, headers


class _Handler(BaseHTTPRequestHandler):
    """Parses one request, runs its route, and writes the reply.

    Every outcome is a response: a handler exception becomes whatever
    :func:`error_reply` says, never a dropped connection mid-request.
    Failures writing the response itself (client already gone) are
    swallowed.
    """

    def setup(self) -> None:
        # Bound the damage a stalled or half-open caller can do.
        self.timeout = self.server.listener.timeout
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 (stdlib API)
        pass  # no per-request stderr logging

    def do_GET(self) -> None:
        self._respond("GET")

    def do_POST(self) -> None:
        self._respond("POST")

    def _respond(self, method: str) -> None:
        listener = self.server.listener
        parsed = urlparse(self.path)
        listener.on_request(parsed.path)
        headers = {}
        try:
            # A POST body is read (and refused) before the path is looked
            # up, so the connection is never left with unread bytes.
            argument = (
                parse_qs(parsed.query) if method == "GET" else self._read_json()
            )
            route = listener.routes.get((method, parsed.path))
            if route is None:
                status, body = 404, {"error": f"unknown path {parsed.path}"}
            else:
                result = route(argument)
                status, body = result if isinstance(result, tuple) else (200, result)
        except Exception as exc:  # noqa: BLE001 — the request boundary
            status, body, headers = error_reply(exc, listener.on_internal_error)
        try:
            self._send(status, body, headers)
        except OSError:
            pass  # client hung up; nothing left to tell it

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError as exc:
            raise BadRequest("invalid Content-Length header") from exc
        limit = self.server.listener.max_body_bytes
        if length > limit:
            raise PayloadTooLarge(
                f"body of {length} bytes exceeds limit of {limit}"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        return payload

    def _send(self, status: int, body, headers: dict) -> None:
        """A ``str`` body is a Prometheus exposition; anything else JSON."""
        if isinstance(body, str):
            data, content_type = body.encode("utf-8"), _METRICS_CONTENT_TYPE
        else:
            data, content_type = json.dumps(body).encode(), "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)


class HttpListener:
    """A bound, serving HTTP front end; :meth:`stop` is its only verb.

    Args:
        address:  ``(host, port)`` to bind (port 0 picks an ephemeral one).
        routes:   ``{(method, path): callable}``.  A GET route is called
                  with the parsed query (``parse_qs`` shape), a POST route
                  with the decoded JSON object.  It returns the JSON body
                  (status 200), a ``(status, body)`` pair, or a ``str``
                  served as Prometheus text; it refuses by raising.
        name:     the serve thread's name.
        max_body_bytes: POST bodies beyond this are a 413, unread.
        timeout:  socket timeout on each caller's connection.
        on_request: called with the path of every request (counters).
        on_internal_error: see :func:`error_reply`.
    """

    def __init__(
        self,
        address: "tuple[str, int]",
        routes: dict,
        name: str,
        max_body_bytes: int,
        timeout: float,
        on_request,
        on_internal_error=None,
    ) -> None:
        self.routes = routes
        self.max_body_bytes = max_body_bytes
        self.timeout = timeout
        self.on_request = on_request
        self.on_internal_error = on_internal_error
        self._httpd = ThreadingHTTPServer(address, _Handler)
        self._httpd.listener = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _POLL_SECONDS},
            name=name,
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> "tuple[str, int]":
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError(f"HTTP serve thread {self._thread.name!r} did not stop")
