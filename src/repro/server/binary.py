"""Persistent-connection binary transport for the prediction hot path.

The JSON/HTTP interface (:mod:`repro.server.app`) pays for a TCP handshake,
HTTP framing, and JSON encode/decode on every request.  For the serving hot
path — candidate ranking, where a client asks for predictions of one user
against many services — this module adds a length-prefixed binary protocol
over a plain TCP socket that a client opens once and reuses:

Frame (both directions)::

    +-------+---------+--------+-----------------+---------+
    | magic | version | opcode | body length     | body    |
    | "QP"  | 0x01    | 1 byte | uint32 (big-e.) | ...     |
    +-------+---------+--------+-----------------+---------+

header = ``struct('!2sBBI')`` = 8 bytes.  Response opcode = request opcode
with the high bit set (``| 0x80``); errors use opcode ``0x7F`` regardless
of the request.

Request bodies (all integers fixed-width, predictions float64):

* ``PING (0x01)`` — empty body; response body empty.  Liveness + version
  negotiation.
* ``PREDICT_BATCH (0x02)`` — ``struct('!qI')`` user_id, count, then
  ``count`` int64 service ids (``'!%dq'``).  Response: ``struct('!I')``
  count, then ``count`` float64 predictions, then ``count`` uint8 source
  codes (see :data:`SOURCE_CODES`).  Columnar, so the client decodes the
  whole batch with two ``struct`` calls — no per-element parsing.
* ``OBSERVE (0x03)`` — ``struct('!dqqdH')`` timestamp, user_id,
  service_id, value, key length, then the UTF-8 idempotency key (empty =
  no key).  Response: ``struct('!dB')`` sample_error (NaN when the gate
  withheld it) + action code (:data:`ACTION_CODES`).
* ``CREDENCE (0x04)`` — ``struct('!I')`` count, then ``count`` int64
  service ids.  Response: ``struct('!I')`` count, then ``count`` float64
  credence values in request order (``GET /credence`` as a frame; the
  cluster router asks each service's home shard this way).
* ``OBSERVE_BATCH (0x05)`` — ``struct('!I')`` count, then ``count``
  records, each laid out like an ``OBSERVE`` body.  Response:
  ``struct('!III')`` accepted, error count, rejected count; then the
  float64 sample errors; then per rejected record ``struct('!II')`` index
  and message length followed by the UTF-8 message — the fields of the
  ``POST /observations/batch`` reply.
* ``PREDICT_ROUTED (0x06)`` — request body as ``PREDICT_BATCH``.  Response:
  ``struct('!I')`` count, ``count`` float64 predictions, ``count`` uint8
  source codes, ``count`` float64 credence values (NaN = not available),
  ``struct('!I')`` placement version, then length-prefixed UTF-8 names
  (``struct('!H')`` each): the shard that answered, a count, and that
  many shards whose credence could not be read — what the cluster
  router's ``POST /predictions/batch`` says beyond a single shard's.
  Only the router answers it.
* ``ERROR (0x7F)`` response — ``struct('!H')`` status (the HTTP status the
  JSON API would have returned: 400, 409, 413, 429, 503, 507, 500...)
  followed by the UTF-8 JSON error body, so binary clients get the same
  structured refusals (fencing codes, retry hints) as HTTP clients.

The transport is an accelerator, not a second API: the listener is handed
an ``{opcode: callable}`` table by the server that owns it (a shard or the
cluster router), and each callable is the method behind the HTTP route of
the same meaning, so fencing, admission control, degraded mode, and the
fallback chain behave identically on both transports.  Stdlib-only
(``socket`` + ``struct``); one daemon thread per connection, like the HTTP
listener.
"""

from __future__ import annotations

import json
import math
import select
import socket
import struct
import threading

from repro.observability import get_registry
from repro.server.http import BadRequest, PayloadTooLarge, error_reply

MAGIC = b"QP"
PROTOCOL_VERSION = 1

OP_PING = 0x01
OP_PREDICT_BATCH = 0x02
OP_OBSERVE = 0x03
OP_CREDENCE = 0x04
OP_OBSERVE_BATCH = 0x05
OP_PREDICT_ROUTED = 0x06
OP_ERROR = 0x7F
RESPONSE_FLAG = 0x80

_HEADER = struct.Struct("!2sBBI")
_PREDICT_REQ_HEAD = struct.Struct("!qI")
_PREDICT_RESP_HEAD = struct.Struct("!I")
_OBSERVE_REQ = struct.Struct("!dqqdH")
_OBSERVE_RESP = struct.Struct("!dB")
_COUNT = struct.Struct("!I")
_BATCH_RESP_HEAD = struct.Struct("!III")
_REJECTED_HEAD = struct.Struct("!II")
_ERROR_HEAD = struct.Struct("!H")
_NAME_HEAD = struct.Struct("!H")

#: Bound on a single frame body; a length prefix beyond this is a protocol
#: violation (or garbage), not a request worth buffering.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Wire encoding of the fallback-chain source strings (uint8 per answer).
SOURCE_CODES = {
    "model": 0,
    "user_service_mean": 1,
    "user_mean": 2,
    "service_mean": 3,
    "global_mean": 4,
    "prior": 5,
}
SOURCE_NAMES = {code: name for name, code in SOURCE_CODES.items()}
SOURCE_UNKNOWN = 255


def source_names(codes) -> list[str]:
    """Decoded source codes; one this build does not know reads ``"unknown"``."""
    return [SOURCE_NAMES.get(code, "unknown") for code in codes]


ACTION_CODES = {
    "admit": 0,
    "clip": 1,
    "quarantine": 2,
    "release": 3,
    "deduplicated": 4,
}
ACTION_NAMES = {code: name for name, code in ACTION_CODES.items()}
ACTION_UNKNOWN = 255

_METRICS = get_registry()
_TRANSPORT_REQUESTS = _METRICS.counter(
    "qos_transport_requests_total",
    "Requests served, by transport",
    labelnames=("transport",),
)
TRANSPORT_JSON_REQUESTS = _TRANSPORT_REQUESTS.labels(transport="json")
TRANSPORT_BINARY_REQUESTS = _TRANSPORT_REQUESTS.labels(transport="binary")
_TRANSPORT_MODE = _METRICS.gauge(
    "qos_transport_mode",
    "Whether a transport is enabled on this server (1/0)",
    labelnames=("transport",),
)


class ProtocolError(Exception):
    """The peer sent bytes that are not a valid protocol frame."""


class FrameTooLarge(ProtocolError):
    """A well-formed header declared a body beyond :data:`MAX_FRAME_BYTES`.

    Unlike bad magic or a version mismatch, the stream is *not* corrupt —
    the header parsed, so exactly ``length`` body bytes follow and the
    server can drain them and answer with a framed 413 (the HTTP
    request-too-large equivalent) instead of dropping the connection.
    """

    def __init__(self, length: int) -> None:
        super().__init__(
            f"frame body of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
        self.length = length


def pack_frame(opcode: int, body: bytes = b"") -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, opcode, len(body)) + body


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _drain_exact(sock: socket.socket, count: int) -> None:
    """Read and discard ``count`` bytes (no buffering — the length prefix
    is attacker-controlled up to 4 GiB)."""
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        remaining -= len(chunk)


def read_frame(sock: socket.socket) -> "tuple[int, bytes] | None":
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = _recv_exact(sock, _HEADER.size)
    except ConnectionError:
        return None
    magic, version, opcode, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(length)
    body = _recv_exact(sock, length) if length else b""
    return opcode, body


def pack_predict_request(
    user_id: int, service_ids, opcode: int = OP_PREDICT_BATCH
) -> bytes:
    """``opcode``: ``OP_PREDICT_BATCH`` or ``OP_PREDICT_ROUTED`` — the two
    share a request layout."""
    body = _PREDICT_REQ_HEAD.pack(user_id, len(service_ids))
    body += struct.pack(f"!{len(service_ids)}q", *service_ids)
    return pack_frame(opcode, body)


def unpack_predict_request(body: bytes) -> tuple[int, list[int]]:
    if len(body) < _PREDICT_REQ_HEAD.size:
        raise ProtocolError("truncated PREDICT_BATCH body")
    user_id, count = _PREDICT_REQ_HEAD.unpack_from(body)
    expected = _PREDICT_REQ_HEAD.size + 8 * count
    if len(body) != expected:
        raise ProtocolError(
            f"PREDICT_BATCH body of {len(body)} bytes, expected {expected}"
        )
    service_ids = list(
        struct.unpack_from(f"!{count}q", body, _PREDICT_REQ_HEAD.size)
    )
    return user_id, service_ids


def pack_predict_response(predictions, source_codes) -> bytes:
    count = len(predictions)
    body = (
        _PREDICT_RESP_HEAD.pack(count)
        + struct.pack(f"!{count}d", *predictions)
        + bytes(source_codes)
    )
    return pack_frame(OP_PREDICT_BATCH | RESPONSE_FLAG, body)


def unpack_predict_response(body: bytes) -> tuple[list[float], list[int]]:
    if len(body) < _PREDICT_RESP_HEAD.size:
        raise ProtocolError("truncated PREDICT_BATCH response")
    (count,) = _PREDICT_RESP_HEAD.unpack_from(body)
    expected = _PREDICT_RESP_HEAD.size + 9 * count
    if len(body) != expected:
        raise ProtocolError(
            f"PREDICT_BATCH response of {len(body)} bytes, expected {expected}"
        )
    predictions = list(struct.unpack_from(f"!{count}d", body, _PREDICT_RESP_HEAD.size))
    codes = list(body[_PREDICT_RESP_HEAD.size + 8 * count :])
    return predictions, codes


def _pack_name(name: str) -> bytes:
    encoded = name.encode("utf-8")
    return _NAME_HEAD.pack(len(encoded)) + encoded


def _unpack_name(body: bytes, offset: int, what: str) -> "tuple[str, int]":
    end = offset + _NAME_HEAD.size
    if len(body) < end:
        raise ProtocolError(f"truncated {what}")
    (length,) = _NAME_HEAD.unpack_from(body, offset)
    if len(body) < end + length:
        raise ProtocolError(f"truncated {what}")
    return body[end : end + length].decode("utf-8"), end + length


def pack_routed_response(
    predictions,
    source_codes,
    credence,
    placement_version: int,
    shard: str,
    credence_partial,
) -> bytes:
    """``credence``: one value per prediction, NaN where the service's
    home shard (one of ``credence_partial``) could not be asked."""
    count = len(predictions)
    if len(source_codes) != count or len(credence) != count:
        raise ProtocolError("PREDICT_ROUTED columns differ in length")
    parts = [
        _COUNT.pack(count),
        struct.pack(f"!{count}d", *predictions),
        bytes(source_codes),
        struct.pack(f"!{count}d", *credence),
        _COUNT.pack(placement_version),
        _pack_name(shard),
        _NAME_HEAD.pack(len(credence_partial)),
    ]
    parts += [_pack_name(name) for name in credence_partial]
    return pack_frame(OP_PREDICT_ROUTED | RESPONSE_FLAG, b"".join(parts))


def unpack_routed_response(
    body: bytes,
) -> "tuple[list[float], list[int], list[float], int, str, list[str]]":
    """``(predictions, source_codes, credence, placement_version, shard,
    credence_partial)``."""
    what = "PREDICT_ROUTED response"
    if len(body) < _COUNT.size:
        raise ProtocolError(f"truncated {what}")
    (count,) = _COUNT.unpack_from(body)
    offset = _COUNT.size
    if len(body) < offset + 17 * count + _COUNT.size:
        raise ProtocolError(
            f"{what} declares {count} predictions in {len(body)} bytes"
        )
    predictions = list(struct.unpack_from(f"!{count}d", body, offset))
    offset += 8 * count
    codes = list(body[offset : offset + count])
    offset += count
    credence = list(struct.unpack_from(f"!{count}d", body, offset))
    offset += 8 * count
    (placement_version,) = _COUNT.unpack_from(body, offset)
    shard, offset = _unpack_name(body, offset + _COUNT.size, what)
    if len(body) < offset + _NAME_HEAD.size:
        raise ProtocolError(f"truncated {what}")
    (partial_count,) = _NAME_HEAD.unpack_from(body, offset)
    offset += _NAME_HEAD.size
    credence_partial = []
    for _ in range(partial_count):
        name, offset = _unpack_name(body, offset, what)
        credence_partial.append(name)
    if offset != len(body):
        raise ProtocolError(f"{what} of {len(body)} bytes, expected {offset}")
    return predictions, codes, credence, placement_version, shard, credence_partial


def _pack_observe_record(
    timestamp: float,
    user_id: int,
    service_id: int,
    value: float,
    key: "str | None" = None,
) -> bytes:
    encoded = key.encode("utf-8") if key else b""
    if len(encoded) > 0xFFFF:
        raise ProtocolError("idempotency key exceeds 65535 bytes")
    return (
        _OBSERVE_REQ.pack(timestamp, user_id, service_id, value, len(encoded))
        + encoded
    )


def _unpack_observe_record(
    body: bytes, offset: int, what: str
) -> "tuple[tuple[float, int, int, float, str | None], int]":
    """One observation record starting at ``offset``; also returns where
    it ends."""
    end = offset + _OBSERVE_REQ.size
    if len(body) < end:
        raise ProtocolError(f"truncated {what} body")
    timestamp, user_id, service_id, value, key_length = _OBSERVE_REQ.unpack_from(
        body, offset
    )
    if len(body) < end + key_length:
        raise ProtocolError(f"truncated {what} body")
    key = body[end : end + key_length].decode("utf-8") if key_length else None
    return (timestamp, user_id, service_id, value, key), end + key_length


def pack_observe_request(
    timestamp: float,
    user_id: int,
    service_id: int,
    value: float,
    key: "str | None" = None,
) -> bytes:
    return pack_frame(
        OP_OBSERVE, _pack_observe_record(timestamp, user_id, service_id, value, key)
    )


def unpack_observe_request(body: bytes) -> tuple[float, int, int, float, "str | None"]:
    record, end = _unpack_observe_record(body, 0, "OBSERVE")
    if end != len(body):
        raise ProtocolError(f"OBSERVE body of {len(body)} bytes, expected {end}")
    return record


def unpack_observe_response(body: bytes) -> dict:
    """The ``POST /observations`` reply the frame carries."""
    if len(body) != _OBSERVE_RESP.size:
        raise ProtocolError("truncated OBSERVE response")
    error, action = _OBSERVE_RESP.unpack(body)
    return {
        "sample_error": None if math.isnan(error) else error,
        "action": ACTION_NAMES.get(action, "unknown"),
    }


def pack_observe_batch_request(records) -> bytes:
    """``records``: ``(timestamp, user_id, service_id, value, key)`` tuples."""
    body = _COUNT.pack(len(records)) + b"".join(
        _pack_observe_record(*record) for record in records
    )
    return pack_frame(OP_OBSERVE_BATCH, body)


def unpack_observe_batch_request(body: bytes) -> list[tuple]:
    if len(body) < _COUNT.size:
        raise ProtocolError("truncated OBSERVE_BATCH body")
    (count,) = _COUNT.unpack_from(body)
    if count * _OBSERVE_REQ.size > len(body):
        # Refuse before looping: the count is the peer's word alone.
        raise ProtocolError(
            f"OBSERVE_BATCH declares {count} records in {len(body)} bytes"
        )
    records = []
    offset = _COUNT.size
    for _ in range(count):
        record, offset = _unpack_observe_record(body, offset, "OBSERVE_BATCH")
        records.append(record)
    if offset != len(body):
        raise ProtocolError(
            f"OBSERVE_BATCH body of {len(body)} bytes, expected {offset}"
        )
    return records


def pack_observe_batch_response(
    accepted: int, sample_errors, rejected: "list[tuple[int, str]]"
) -> bytes:
    """``rejected``: ``(index, message)`` per refused record."""
    parts = [
        _BATCH_RESP_HEAD.pack(accepted, len(sample_errors), len(rejected)),
        struct.pack(f"!{len(sample_errors)}d", *sample_errors),
    ]
    for index, message in rejected:
        encoded = message.encode("utf-8")
        parts.append(_REJECTED_HEAD.pack(index, len(encoded)) + encoded)
    return pack_frame(OP_OBSERVE_BATCH | RESPONSE_FLAG, b"".join(parts))


def unpack_observe_batch_response(body: bytes) -> dict:
    """The ``POST /observations/batch`` reply the frame carries."""
    if len(body) < _BATCH_RESP_HEAD.size:
        raise ProtocolError("truncated OBSERVE_BATCH response")
    accepted, error_count, rejected_count = _BATCH_RESP_HEAD.unpack_from(body)
    offset = _BATCH_RESP_HEAD.size
    if offset + 8 * error_count + _REJECTED_HEAD.size * rejected_count > len(body):
        raise ProtocolError(
            f"OBSERVE_BATCH response declares {error_count} errors and "
            f"{rejected_count} rejections in {len(body)} bytes"
        )
    sample_errors = list(struct.unpack_from(f"!{error_count}d", body, offset))
    offset += 8 * error_count
    rejected = []
    for _ in range(rejected_count):
        if len(body) < offset + _REJECTED_HEAD.size:
            raise ProtocolError("truncated OBSERVE_BATCH response")
        index, length = _REJECTED_HEAD.unpack_from(body, offset)
        offset += _REJECTED_HEAD.size
        if len(body) < offset + length:
            raise ProtocolError("truncated OBSERVE_BATCH response")
        rejected.append(
            {"index": index, "error": body[offset : offset + length].decode("utf-8")}
        )
        offset += length
    if offset != len(body):
        raise ProtocolError(
            f"OBSERVE_BATCH response of {len(body)} bytes, expected {offset}"
        )
    return {"accepted": accepted, "rejected": rejected, "sample_errors": sample_errors}


def pack_credence_request(service_ids) -> bytes:
    body = _COUNT.pack(len(service_ids)) + struct.pack(
        f"!{len(service_ids)}q", *service_ids
    )
    return pack_frame(OP_CREDENCE, body)


def unpack_credence_request(body: bytes) -> list[int]:
    return list(_unpack_counted(body, "q", "CREDENCE body"))


def pack_credence_response(values) -> bytes:
    body = _COUNT.pack(len(values)) + struct.pack(f"!{len(values)}d", *values)
    return pack_frame(OP_CREDENCE | RESPONSE_FLAG, body)


def unpack_credence_response(body: bytes) -> list[float]:
    return list(_unpack_counted(body, "d", "CREDENCE response"))


def _unpack_counted(body: bytes, code: str, what: str) -> tuple:
    """A uint32 count followed by exactly that many 8-byte values."""
    if len(body) < _COUNT.size:
        raise ProtocolError(f"truncated {what}")
    (count,) = _COUNT.unpack_from(body)
    expected = _COUNT.size + 8 * count
    if len(body) != expected:
        raise ProtocolError(f"{what} of {len(body)} bytes, expected {expected}")
    return struct.unpack_from(f"!{count}{code}", body, _COUNT.size)


def pack_error(status: int, payload: dict) -> bytes:
    body = _ERROR_HEAD.pack(status) + json.dumps(payload).encode("utf-8")
    return pack_frame(OP_ERROR, body)


def unpack_error(body: bytes) -> tuple[int, dict]:
    if len(body) < _ERROR_HEAD.size:
        raise ProtocolError("truncated ERROR body")
    (status,) = _ERROR_HEAD.unpack_from(body)
    try:
        payload = json.loads(body[_ERROR_HEAD.size :].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        payload = {"error": "malformed error payload"}
    return status, payload


class BinaryServerError(Exception):
    """Raised by the client when the server answered with an error frame."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"binary transport error {status}: {payload.get('error')}")
        self.status = status
        self.payload = payload


def observation_payload(
    timestamp: float,
    user_id: int,
    service_id: int,
    value: float,
    key: "str | None",
) -> dict:
    """A decoded observation record as the ``POST /observations`` payload."""
    payload = {
        "timestamp": timestamp,
        "user_id": user_id,
        "service_id": service_id,
        "value": value,
    }
    if key is not None:
        payload["idempotency_key"] = key
    return payload


def _source_codes(sources) -> list[int]:
    return [SOURCE_CODES.get(source, SOURCE_UNKNOWN) for source in sources]


def _pack_observe_response(payload: dict) -> bytes:
    error = payload.get("sample_error")
    action = ACTION_CODES.get(payload.get("action"), ACTION_UNKNOWN)
    return pack_frame(
        OP_OBSERVE | RESPONSE_FLAG,
        _OBSERVE_RESP.pack(float("nan") if error is None else float(error), action),
    )


#: opcode -> (request body -> the handler's arguments, the handler's result
#: -> the reply frame).  Observations reach their handler as the JSON
#: routes' payloads; predictions leave theirs as aligned lists with the
#: fallback-chain sources still spelled out.
_CODECS = {
    OP_PREDICT_BATCH: (
        unpack_predict_request,
        lambda result: pack_predict_response(result[0], _source_codes(result[1])),
    ),
    OP_OBSERVE: (
        lambda body: (observation_payload(*unpack_observe_request(body)),),
        _pack_observe_response,
    ),
    OP_CREDENCE: (
        lambda body: (unpack_credence_request(body),),
        pack_credence_response,
    ),
    OP_OBSERVE_BATCH: (
        lambda body: (
            {
                "observations": [
                    observation_payload(*record)
                    for record in unpack_observe_batch_request(body)
                ]
            },
        ),
        lambda payload: pack_observe_batch_response(
            payload["accepted"],
            payload["sample_errors"],
            [(item["index"], item["error"]) for item in payload["rejected"]],
        ),
    ),
    OP_PREDICT_ROUTED: (
        unpack_predict_request,
        lambda result: pack_routed_response(
            result[0], _source_codes(result[1]), *result[2:]
        ),
    ),
}


class BinaryTransportServer:
    """TCP listener speaking the frame protocol above.

    Args:
        address:  ``(host, port)`` to bind (port 0 picks an ephemeral one).
        handlers: ``{opcode: callable}`` — what this server answers besides
                  ``PING``.  A handler is called with the decoded request
                  (see :data:`_CODECS`) and returns what the reply packs;
                  it refuses by raising, and every refusal goes through
                  :func:`~repro.server.http.error_reply`, so both
                  transports share one set of statuses and bodies.
        max_body_bytes: frame bodies beyond this are a 413, like a POST
                  body on the owner's HTTP listener.
        on_request: called with the opcode of every frame (counters).
        on_internal_error: see :func:`~repro.server.http.error_reply`.

    One daemon thread accepts; one daemon thread per connection serves
    until the peer hangs up.
    """

    def __init__(
        self,
        address: "tuple[str, int]",
        handlers: dict,
        max_body_bytes: int,
        on_request=None,
        on_internal_error=None,
    ) -> None:
        self.handlers = handlers
        self.max_body_bytes = max_body_bytes
        self.on_request = on_request
        self.on_internal_error = on_internal_error
        self._address = address
        self._listener: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("binary transport is not running")
        return self._listener.getsockname()[0], self._listener.getsockname()[1]

    @property
    def running(self) -> bool:
        return self._listener is not None

    def start(self) -> None:
        if self._listener is not None:
            return
        self._stopping.clear()
        listener = socket.create_server(
            self._address, backlog=128, reuse_port=False
        )
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="qos-binary-accept", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        self._stopping.set()
        listener = self._listener
        if listener is not None:
            self._listener = None
            try:
                # close() alone leaves a thread blocked in accept() asleep
                # on Linux; shutting the listening socket down wakes it.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        thread, self._accept_thread = self._accept_thread, None
        if thread is not None:
            thread.join(timeout=5.0)
            if thread.is_alive():
                raise RuntimeError("binary transport accept thread did not stop")

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set() and listener is not None:
            try:
                conn, __ = listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="qos-binary-conn",
                daemon=True,
            ).start()

    def _refuse(self, conn: socket.socket, exc: Exception) -> None:
        """Answer ``exc`` as an error frame; a peer that is gone is fine."""
        status, body, __ = error_reply(exc, self.on_internal_error)
        try:
            conn.sendall(pack_error(status, body))
        except OSError:
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    frame = read_frame(conn)
                except FrameTooLarge as exc:
                    # The header parsed, so the stream is still in sync:
                    # drain the declared body and refuse with a framed 413
                    # — the connection stays usable, matching the HTTP
                    # API's request-too-large behavior.
                    try:
                        _drain_exact(conn, exc.length)
                    except (OSError, ConnectionError):
                        return
                    self._refuse(
                        conn,
                        PayloadTooLarge(str(exc), max_frame_bytes=MAX_FRAME_BYTES),
                    )
                    continue
                except ProtocolError as exc:
                    # Framing is gone — answer once, then drop the
                    # connection (resync inside a corrupt stream is
                    # guesswork).
                    self._refuse(conn, BadRequest(str(exc)))
                    return
                except OSError:
                    return
                if frame is None:
                    return
                opcode, body = frame
                try:
                    response = self._handle(opcode, body)
                except ProtocolError as exc:
                    self._refuse(conn, BadRequest(str(exc)))
                    return
                except Exception as exc:  # noqa: BLE001 — keep the conn alive
                    self._refuse(conn, exc)
                    continue
                try:
                    conn.sendall(response)
                except OSError:
                    return
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, opcode: int, body: bytes) -> bytes:
        TRANSPORT_BINARY_REQUESTS.inc()
        if self.on_request is not None:
            self.on_request(opcode)
        if len(body) > self.max_body_bytes:
            # The server's request-size bound holds on either encoding.
            raise PayloadTooLarge(
                f"body of {len(body)} bytes exceeds limit of "
                f"{self.max_body_bytes}"
            )
        if opcode == OP_PING:
            return pack_frame(OP_PING | RESPONSE_FLAG)
        handler = self.handlers.get(opcode)
        if handler is None:
            raise ProtocolError(f"unknown opcode 0x{opcode:02x}")
        unpack, pack = _CODECS[opcode]
        return pack(handler(*unpack(body)))


def set_transport_mode(json_enabled: bool, binary_enabled: bool) -> None:
    """Publish which transports this server exposes (``qos_transport_mode``)."""
    _TRANSPORT_MODE.labels(transport="json").set(1.0 if json_enabled else 0.0)
    _TRANSPORT_MODE.labels(transport="binary").set(1.0 if binary_enabled else 0.0)


class BinaryConnection:
    """Client side: one persistent connection, thread-safe request/response.

    Used by :class:`~repro.server.client.PredictionClient` when its
    ``transport`` allows binary; usable directly for custom tooling::

        with BinaryConnection(("127.0.0.1", 9201)) as conn:
            values, sources = conn.predict_batch(3, [0, 1, 2])

    :meth:`send` and :meth:`receive` split a round trip so several frames
    can be on the wire at once: the server answers a connection's frames
    in order, and a ticket names which reply a caller is owed.
    """

    def __init__(self, address: tuple[str, int], timeout: float = 10.0) -> None:
        self._address = (address[0], int(address[1]))
        self._timeout = timeout
        self._lock = threading.Lock()
        self._sock: "socket.socket | None" = None
        # Tickets are (epoch, n): the n-th frame written to the epoch-th
        # socket.  Dropping the socket starts a new epoch, so a reply owed
        # by the old one can never be read off its successor.
        self._epoch = 0
        self._sent = 0
        self._received = 0
        self._replies: dict[int, tuple[int, bytes]] = {}

    def connect(self) -> None:
        with self._lock:
            self._ensure_locked()

    def _ensure_locked(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self._address, timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop_locked(self) -> None:
        """Forget the socket and every reply it still owed, so the next
        send reconnects from a clean frame boundary."""
        sock, self._sock = self._sock, None
        self._epoch += 1
        self._sent = self._received = 0
        self._replies.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._drop_locked()

    def __enter__(self) -> "BinaryConnection":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def outstanding(self) -> int:
        """Frames sent whose replies nobody has collected yet."""
        with self._lock:
            return self._sent - self._received + len(self._replies)

    def peer_closed(self) -> bool:
        """Whether an idle connection's peer has hung up (EOF or reset is
        waiting to be read) — a frame written now would be lost."""
        with self._lock:
            if self._sock is None:
                return True
            readable, _, _ = select.select([self._sock], [], [], 0)
            return bool(readable)

    def send(self, frame: bytes) -> tuple[int, int]:
        """Write one frame; returns the ticket :meth:`receive` takes."""
        with self._lock:
            sock = self._ensure_locked()
            try:
                sock.sendall(frame)
            except OSError:
                self._drop_locked()
                raise
            self._sent += 1
            return self._epoch, self._sent

    def receive(
        self,
        ticket: tuple[int, int],
        expected_opcode: int,
        timeout: "float | None" = None,
    ) -> bytes:
        """Body of the reply to the frame ``ticket`` names, reading (and
        keeping for their owners) any earlier replies still on the wire."""
        epoch, number = ticket
        with self._lock:
            if epoch != self._epoch:
                raise ConnectionError("connection dropped with the reply outstanding")
            sock = self._sock
            if timeout is not None and timeout != sock.gettimeout():
                sock.settimeout(timeout)
            while self._received < number:
                try:
                    response = read_frame(sock)
                except (OSError, ProtocolError):
                    self._drop_locked()
                    raise
                if response is None:
                    self._drop_locked()
                    raise ConnectionError("server closed the connection")
                self._received += 1
                self._replies[self._received] = response
            opcode, body = self._replies.pop(number)
        if opcode == OP_ERROR:
            raise BinaryServerError(*unpack_error(body))
        if opcode != expected_opcode:
            self.close()
            raise ProtocolError(f"unexpected response opcode 0x{opcode:02x}")
        return body

    def _roundtrip(self, frame: bytes, expected_opcode: int) -> bytes:
        return self.receive(self.send(frame), expected_opcode)

    def ping(self) -> bool:
        self._roundtrip(pack_frame(OP_PING), OP_PING | RESPONSE_FLAG)
        return True

    def predict_batch(
        self, user_id: int, service_ids
    ) -> tuple[list[float], list[str]]:
        body = self._roundtrip(
            pack_predict_request(user_id, service_ids),
            OP_PREDICT_BATCH | RESPONSE_FLAG,
        )
        predictions, codes = unpack_predict_response(body)
        if len(predictions) != len(service_ids):
            raise ProtocolError(
                f"server answered {len(predictions)} predictions for "
                f"{len(service_ids)} ids"
            )
        return predictions, source_names(codes)

    def observe(
        self,
        timestamp: float,
        user_id: int,
        service_id: int,
        value: float,
        key: "str | None" = None,
    ) -> dict:
        body = self._roundtrip(
            pack_observe_request(timestamp, user_id, service_id, value, key),
            OP_OBSERVE | RESPONSE_FLAG,
        )
        return unpack_observe_response(body)
