"""The persistent-connection binary serving path and client transport modes.

The binary transport is an accelerator, not a second API: every request
lands on the same backend handlers as the JSON endpoints, so fencing,
admission control, idempotent dedup, and degraded-mode fallbacks behave
identically.  These tests pin the wire format (so the protocol can't drift
silently), the server loop's error boundaries, and the client's
auto/binary/json transport semantics.
"""

import math
import socket
import struct
import threading

import numpy as np
import pytest

from repro.server.app import PredictionServer
from repro.server.binary import (
    MAX_FRAME_BYTES,
    OP_CREDENCE,
    OP_ERROR,
    OP_OBSERVE_BATCH,
    OP_PING,
    OP_PREDICT_BATCH,
    OP_PREDICT_ROUTED,
    RESPONSE_FLAG,
    TRANSPORT_BINARY_REQUESTS,
    BinaryConnection,
    BinaryServerError,
    ProtocolError,
    pack_credence_request,
    pack_credence_response,
    pack_error,
    pack_frame,
    pack_observe_batch_request,
    pack_observe_batch_response,
    pack_observe_request,
    pack_predict_request,
    pack_predict_response,
    pack_routed_response,
    read_frame,
    unpack_credence_request,
    unpack_credence_response,
    unpack_error,
    unpack_observe_batch_request,
    unpack_observe_batch_response,
    unpack_observe_request,
    unpack_predict_request,
    unpack_predict_response,
    unpack_routed_response,
)
from repro.server.client import (
    PredictionClient,
    RetryableServiceError,
    TerminalServiceError,
)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _warm(client, n=80, users=4, services=6):
    for k in range(n):
        client.report_observation(
            k % users, k % services, value=0.5 + (k % 9) * 0.4, timestamp=float(k)
        )


class TestWireFormat:
    def test_predict_request_roundtrip(self):
        frame = pack_predict_request(42, [3, 1, 4, 1_000_000_000_000])
        opcode, body = self._unframe(frame)
        assert opcode == OP_PREDICT_BATCH
        user_id, ids = unpack_predict_request(body)
        assert user_id == 42
        assert ids == [3, 1, 4, 1_000_000_000_000]

    def test_predict_response_roundtrip_with_nan(self):
        frame = pack_predict_response([1.5, float("nan"), 0.25], [0, 255, 3])
        __, body = self._unframe(frame)
        values, codes = unpack_predict_response(body)
        assert values[0] == 1.5
        assert math.isnan(values[1])
        assert values[2] == 0.25
        assert codes == [0, 255, 3]

    def test_observe_request_roundtrip(self):
        frame = pack_observe_request(12.5, 7, 9, 3.25, "k:1")
        __, body = self._unframe(frame)
        assert unpack_observe_request(body) == (12.5, 7, 9, 3.25, "k:1")
        frame = pack_observe_request(0.0, 0, 0, 0.5)
        __, body = self._unframe(frame)
        assert unpack_observe_request(body)[4] is None

    def test_error_roundtrip(self):
        frame = pack_error(409, {"error": "fenced", "code": "fenced_write"})
        opcode, body = self._unframe(frame)
        assert opcode == OP_ERROR
        status, payload = unpack_error(body)
        assert status == 409
        assert payload["code"] == "fenced_write"

    def test_bad_magic_rejected(self):
        frame = bytearray(pack_frame(OP_PING))
        frame[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            self._unframe(bytes(frame))

    def test_oversized_length_prefix_rejected(self):
        header = struct.pack("!2sBBI", b"QP", 1, OP_PING, MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="frame"):
            self._unframe(header)

    def test_truncated_bodies_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_predict_request(b"\x00")
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_observe_request(b"\x00")

    def test_declared_count_must_match_body(self):
        user_header = struct.pack("!qI", 1, 5)  # claims 5 ids, carries 1
        with pytest.raises(ProtocolError):
            unpack_predict_request(user_header + struct.pack("!q", 9))

    def test_credence_roundtrip(self):
        opcode, body = self._unframe(pack_credence_request([7, 0, 2**40]))
        assert opcode == OP_CREDENCE
        assert unpack_credence_request(body) == [7, 0, 2**40]
        values = [1.0, 0.1 + 0.2, 1e-300]
        opcode, body = self._unframe(pack_credence_response(values))
        assert opcode == OP_CREDENCE | RESPONSE_FLAG
        # float64 on the wire: bit-for-bit, not "close".
        assert unpack_credence_response(body) == values

    def test_observe_batch_roundtrip(self):
        records = [
            (1.5, 3, 4, 0.25, None),
            (2.5, 2**40, 0, 0.1 + 0.2, "collector-7:42"),
            (3.5, 0, 9, 7.0, "k\u00e9y"),
        ]
        opcode, body = self._unframe(pack_observe_batch_request(records))
        assert opcode == OP_OBSERVE_BATCH
        assert unpack_observe_batch_request(body) == records
        rejected = [(1, "field 'value' must be finite, got nan"), (4, "\u00e9")]
        opcode, body = self._unframe(
            pack_observe_batch_response(3, [0.5, 0.1 + 0.2], rejected)
        )
        assert opcode == OP_OBSERVE_BATCH | RESPONSE_FLAG
        assert unpack_observe_batch_response(body) == {
            "accepted": 3,
            "sample_errors": [0.5, 0.1 + 0.2],
            "rejected": [
                {"index": index, "error": error} for index, error in rejected
            ],
        }
        empty = self._unframe(pack_observe_batch_response(0, [], []))[1]
        assert unpack_observe_batch_response(empty) == {
            "accepted": 0, "sample_errors": [], "rejected": []
        }

    def test_new_opcodes_reject_truncated_bodies(self):
        for unpack in (
            unpack_credence_request,
            unpack_credence_response,
            unpack_observe_batch_request,
            unpack_observe_batch_response,
        ):
            with pytest.raises(ProtocolError, match="truncated"):
                unpack(b"\x00")
        # A record cut off mid-key, and a rejection cut off mid-message.
        whole = pack_observe_batch_request([(1.0, 1, 2, 3.0, "abcdef")])[8:]
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_observe_batch_request(whole[:-2])
        whole = pack_observe_batch_response(0, [], [(0, "refused")])[8:]
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_observe_batch_response(whole[:-2])

    def test_new_opcodes_reject_counts_that_disagree_with_the_body(self):
        one_id = struct.pack("!q", 9)
        with pytest.raises(ProtocolError):  # claims 5 ids, carries 1
            unpack_credence_request(struct.pack("!I", 5) + one_id)
        with pytest.raises(ProtocolError):  # claims 0, carries 1
            unpack_credence_response(struct.pack("!I", 0) + one_id)
        record = pack_observe_batch_request([(1.0, 1, 2, 3.0, None)])[12:]
        with pytest.raises(ProtocolError):  # claims 3 records, carries 1
            unpack_observe_batch_request(struct.pack("!I", 3) + record)
        with pytest.raises(ProtocolError):  # claims 1, carries 2
            unpack_observe_batch_request(struct.pack("!I", 1) + record + record)
        # A count only a hostile peer would send is refused before any
        # per-record work, not looped over.
        with pytest.raises(ProtocolError, match="declares"):
            unpack_observe_batch_request(struct.pack("!I", 0xFFFFFFFF) + record)
        with pytest.raises(ProtocolError, match="declares"):
            unpack_observe_batch_response(
                struct.pack("!III", 0, 0xFFFFFFFF, 0xFFFFFFFF)
            )
        with pytest.raises(ProtocolError):  # trailing bytes
            unpack_observe_batch_response(
                pack_observe_batch_response(1, [0.5], [])[8:] + b"\x00"
            )

    def test_routed_predict_roundtrip(self):
        opcode, body = self._unframe(
            pack_predict_request(7, [3, 2**40], OP_PREDICT_ROUTED)
        )
        assert opcode == OP_PREDICT_ROUTED
        assert unpack_predict_request(body) == (7, [3, 2**40])
        nan = float("nan")
        opcode, body = self._unframe(
            pack_routed_response(
                [0.1 + 0.2, 1e-300], [0, 5], [0.5, nan], 2**31, "sh\u00e9", ["b", "c"]
            )
        )
        assert opcode == OP_PREDICT_ROUTED | RESPONSE_FLAG
        values, codes, credence, version, shard, partial = unpack_routed_response(body)
        assert (values, codes) == ([0.1 + 0.2, 1e-300], [0, 5])
        assert credence[0] == 0.5 and math.isnan(credence[1])
        assert (version, shard, partial) == (2**31, "sh\u00e9", ["b", "c"])
        empty = self._unframe(pack_routed_response([], [], [], 1, "s0", []))[1]
        assert unpack_routed_response(empty) == ([], [], [], 1, "s0", [])

    def test_routed_predict_response_refuses_what_does_not_add_up(self):
        with pytest.raises(ProtocolError, match="differ in length"):
            pack_routed_response([1.0], [0, 0], [1.0], 1, "s0", [])
        whole = pack_routed_response([1.0, 2.0], [0, 0], [0.5, 0.5], 3, "s0", ["dead"])[8:]
        for cut in (1, 4, 20, len(whole) - 7, len(whole) - 2):
            with pytest.raises(ProtocolError, match="truncated|declares"):
                unpack_routed_response(whole[:cut])
        with pytest.raises(ProtocolError, match="expected"):  # trailing bytes
            unpack_routed_response(whole + b"\x00")
        with pytest.raises(ProtocolError, match="declares"):  # a hostile count
            unpack_routed_response(struct.pack("!I", 0xFFFFFFFF) + whole[4:])

    def test_new_opcodes_refuse_to_pack_an_oversized_frame(self):
        too_many = range(MAX_FRAME_BYTES // 8 + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            pack_credence_request(too_many)
        with pytest.raises(ProtocolError, match="exceeds"):
            pack_observe_batch_request(
                [(1.0, 1, 2, 3.0, "k" * 0xFFFF)] * (MAX_FRAME_BYTES // 0xFFFF + 1)
            )

    @staticmethod
    def _unframe(frame: bytes) -> tuple[int, bytes]:
        """Feed raw bytes through the real socket reader."""
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            left.shutdown(socket.SHUT_WR)
            result = read_frame(right)
            if result is None:
                raise ProtocolError("clean EOF")
            return result
        finally:
            left.close()
            right.close()


class TestBinaryServer:
    def test_ping_and_persistent_reuse(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            assert server.binary_address is not None
            with BinaryConnection(server.binary_address) as conn:
                sock_before = conn._sock
                assert conn.ping()
                for __ in range(5):
                    assert conn.ping()
                # One TCP connection served every request.
                assert conn._sock is sock_before

    def test_binary_matches_json_predictions(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address, transport="json")
            _warm(client)
            ids = list(range(6)) + [999]
            json_result = client.predict_candidates_detailed(0, ids)
            assert json_result["transport"] == "json"
            with BinaryConnection(server.binary_address) as conn:
                values, sources = conn.predict_batch(0, ids)
            for sid, value in zip(ids, values):
                assert value == pytest.approx(
                    json_result["predictions"][sid], rel=1e-12
                )
            assert sources == [
                json_result["sources"][sid] for sid in ids
            ]
            client.close()

    def test_observe_applies_and_dedups(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            with BinaryConnection(server.binary_address) as conn:
                first = conn.observe(1.0, 0, 0, 2.5, key="obs:1")
                assert first["action"] == "admit"
                assert np.isfinite(first["sample_error"])
                replay = conn.observe(1.0, 0, 0, 2.5, key="obs:1")
                assert replay["action"] == "deduplicated"
                assert replay["sample_error"] is None or math.isnan(
                    replay["sample_error"]
                )
            assert server.model.updates_applied == 1

    def test_empty_and_negative_ids_are_400(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            with BinaryConnection(server.binary_address) as conn:
                with pytest.raises(BinaryServerError) as exc_info:
                    conn.predict_batch(0, [])
                assert exc_info.value.status == 400
                with pytest.raises(BinaryServerError) as exc_info:
                    conn.predict_batch(0, [-3])
                assert exc_info.value.status == 400
                # The connection survives server-side rejections.
                assert conn.ping()

    def test_credence_and_observe_batch_answer_like_the_json_routes(self):
        batch = [
            {"timestamp": 100.0, "user_id": 1, "service_id": 2, "value": 0.75},
            {"timestamp": 101.0, "user_id": 1, "service_id": 3, "value": -1.0},
            {"timestamp": 102.0, "user_id": 2, "service_id": 2, "value": 1.25,
             "idempotency_key": "b:1"},
            {"timestamp": 102.0, "user_id": 2, "service_id": 2, "value": 1.25,
             "idempotency_key": "b:1"},
        ]
        replies = {}
        for transport in ("json", "binary"):
            # Twin servers, same seed: the same requests must read the same.
            with PredictionServer(rng=0, background_replay=False) as server:
                client = PredictionClient(server.address, transport=transport)
                _warm(client, n=40)
                framed = TRANSPORT_BINARY_REQUESTS.value
                replies[transport] = (
                    client.report_observations_detailed(batch),
                    client.credence([0, 2, 3, 999]),
                )
                assert (TRANSPORT_BINARY_REQUESTS.value - framed) == (
                    2 if transport == "binary" else 0
                )
                for ids in ([], [-1]):
                    with pytest.raises(TerminalServiceError, match="400"):
                        client.credence(ids)
                client.close()
        assert replies["binary"] == replies["json"]
        batch_reply, credence = replies["binary"]
        assert batch_reply["accepted"] == 3
        assert [item["index"] for item in batch_reply["rejected"]] == [1]
        assert len(batch_reply["sample_errors"]) == 2  # the duplicate has none
        assert credence[999] == 1.0  # unknown id: init_error, nothing registered

    def test_unknown_opcode_gets_error_frame_and_close(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            sock = socket.create_connection(server.binary_address, timeout=5.0)
            try:
                sock.sendall(pack_frame(0x42))
                opcode, body = read_frame(sock)
                assert opcode == OP_ERROR
                status, __ = unpack_error(body)
                assert status == 400
                # Protocol violations drop the connection.
                assert read_frame(sock) is None
            finally:
                sock.close()

    def test_oversized_frame_gets_413_and_connection_survives(self):
        # An oversized length prefix with a valid header is a refusable
        # request, not stream corruption: the server must drain the body,
        # answer with a framed 413 (the HTTP request-too-large
        # equivalent), and keep serving on the same connection.
        with PredictionServer(rng=0, background_replay=False) as server:
            sock = socket.create_connection(server.binary_address, timeout=10.0)
            try:
                oversized = MAX_FRAME_BYTES + 1
                sock.sendall(
                    struct.pack("!2sBBI", b"QP", 1, OP_PREDICT_BATCH, oversized)
                )
                sent = 0
                chunk = b"\x00" * (1 << 20)
                while sent < oversized:
                    step = min(len(chunk), oversized - sent)
                    sock.sendall(chunk[:step])
                    sent += step
                opcode, body = read_frame(sock)
                assert opcode == OP_ERROR
                status, payload = unpack_error(body)
                assert status == 413
                assert payload["max_frame_bytes"] == MAX_FRAME_BYTES
                # Unlike corrupt framing, the connection stays usable.
                sock.sendall(pack_frame(OP_PING))
                opcode, __ = read_frame(sock)
                assert opcode == OP_PING | RESPONSE_FLAG
            finally:
                sock.close()

    def test_disabled_binary_port(self):
        with PredictionServer(
            rng=0, background_replay=False, binary_port=None
        ) as server:
            assert server.binary_address is None
            client = PredictionClient(server.address)
            assert client.status()["transport"]["binary_address"] is None
            client.close()


class TestClientTransports:
    def test_auto_uses_binary(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address)
            _warm(client)
            result = client.predict_candidates_detailed(0, [0, 1, 2])
            assert result["transport"] == "binary"
            client.close()

    def test_auto_falls_back_when_binary_disabled(self):
        with PredictionServer(
            rng=0, background_replay=False, binary_port=None
        ) as server:
            client = PredictionClient(server.address)
            _warm(client, n=20)
            result = client.predict_candidates_detailed(0, [0, 1])
            assert result["transport"] == "json"
            client.close()

    def test_strict_binary_raises_when_disabled(self):
        with PredictionServer(
            rng=0, background_replay=False, binary_port=None
        ) as server:
            client = PredictionClient(server.address, transport="binary")
            with pytest.raises((RetryableServiceError, ConnectionError)):
                client.predict_candidates(0, [0])
            client.close()

    def test_json_transport_never_uses_binary(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address, transport="json")
            framed = TRANSPORT_BINARY_REQUESTS.value
            _warm(client, n=20)
            client.report_observations_detailed(
                [{"timestamp": 99.0, "user_id": 0, "service_id": 1, "value": 0.7}]
            )
            result = client.predict_candidates_detailed(0, [0, 1])
            assert result["transport"] == "json"
            client.credence([0, 1])
            assert TRANSPORT_BINARY_REQUESTS.value == framed
            client.close()

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            PredictionClient(("127.0.0.1", 1), transport="carrier-pigeon")

    def test_duplicate_ids_deduplicated(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address)
            _warm(client, n=40)
            result = client.predict_candidates_detailed(0, [2, 2, 1, 2, 1])
            assert sorted(result["predictions"]) == [1, 2]
            client.close()

    def test_server_errors_do_not_trigger_fallback(self):
        """A server *answer* (empty batch -> 400) must surface as the
        mapped error on every transport, never silently retry over JSON."""
        with PredictionServer(rng=0, background_replay=False) as server:
            for transport in ("auto", "binary", "json"):
                client = PredictionClient(server.address, transport=transport)
                with pytest.raises(TerminalServiceError, match="400"):
                    client.predict_candidates(0, [])
                client.close()

    def test_auto_falls_back_mid_session_when_binary_dies(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address, breaker_cooldown=30.0)
            _warm(client, n=20)
            assert client.predict_candidates_detailed(0, [0])["transport"] == (
                "binary"
            )
            server._binary.stop()
            result = client.predict_candidates_detailed(0, [0])
            assert result["transport"] == "json"
            # Breaker holds: no binary re-probe storm while it is down.
            assert client.predict_candidates_detailed(0, [0])["transport"] == (
                "json"
            )
            client.close()


class _DropReplyProxy:
    """A TCP hop in front of a binary listener that forwards each frame,
    waits for the server's reply — so the request *was* applied — and then
    hangs up on the client without relaying it: the mid-round-trip
    disconnect that makes a write ambiguous."""

    def __init__(self, upstream: tuple) -> None:
        self._upstream = upstream
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self.frames_forwarded = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn, socket.create_connection(self._upstream) as upstream:
                frame = read_frame(conn)
                if frame is not None:
                    upstream.sendall(pack_frame(*frame))
                    read_frame(upstream)
                    self.frames_forwarded += 1

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


class TestAmbiguousWrites:
    """The write contract on the binary hop: a frame that was written and
    never answered may have been applied, so it is re-sent only with an
    idempotency key."""

    def test_unkeyed_observe_is_not_resent_and_keyed_is_applied_once(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            proxy = _DropReplyProxy(server.binary_address)
            try:
                unkeyed = PredictionClient(
                    server.address, retries=3, binary_address=proxy.address
                )
                with pytest.raises(RetryableServiceError) as excinfo:
                    unkeyed.report_observation(0, 0, 0.5, 1.0)
                assert getattr(excinfo.value, "status", None) is None
                # Applied by the one frame that got through; never re-sent
                # on either transport.
                assert proxy.frames_forwarded == 1
                assert server.model.updates_applied == 1
                unkeyed.close()

                keyed = PredictionClient(
                    server.address,
                    retries=3,
                    backoff=0.001,
                    binary_address=proxy.address,
                )
                error = keyed.report_observation(
                    0, 1, 0.5, 2.0, idempotency_key="m:1"
                )
                # Re-sent (over JSON, in the same attempt) and acknowledged
                # by the dedup ledger instead of being applied again.
                assert math.isnan(error)
                assert proxy.frames_forwarded == 2
                assert server.model.updates_applied == 2
                keyed.close()
            finally:
                proxy.close()

    def test_reads_fall_back_to_json_in_the_same_attempt(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            proxy = _DropReplyProxy(server.binary_address)
            try:
                client = PredictionClient(
                    server.address, retries=0, binary_address=proxy.address
                )
                _warm(PredictionClient(server.address, transport="json"), n=20)
                result = client.predict_candidates_detailed(0, [0, 1])
                assert result["transport"] == "json"
                # The HTTP endpoint answered: nothing for the breaker.
                assert client._failures == [0]
                client.close()
            finally:
                proxy.close()


class TestPooledConnections:
    def test_pipelined_frames_share_a_connection_and_match_their_tickets(self):
        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address)
            _warm(client)
            expected_values = client.predict_candidates(1, [0, 1, 2])
            expected_credence = client.credence([3, 4])
            predict = client.begin_predict_batch(1, [0, 1, 2])
            credence = client.begin_credence([3, 4], after=predict)
            assert credence._inflight.conn is predict._inflight.conn
            assert predict._inflight.conn.outstanding == 2
            # Collected out of order: each reader still gets its own reply.
            assert credence.result() == [expected_credence[s] for s in (3, 4)]
            values, sources, transport = predict.result()
            assert values == [expected_values[s] for s in (0, 1, 2)]
            assert (sources, transport) == (["model"] * 3, "binary")
            # ... and the connection went back to the pool exactly once.
            assert len(client._binary_idle[0]) == 1
            client.close()
            assert client._binary_idle == [[]]

    def test_stale_pooled_connection_is_replaced_before_anything_is_written(
        self, tmp_path
    ):
        """A restarted server listens on a new ephemeral binary port; the
        client must notice the dead pooled connection *before* writing an
        unkeyed observe to it, and find the new port through /status."""
        port = _free_port()
        kwargs = dict(
            rng=0, background_replay=False, port=port, data_dir=str(tmp_path)
        )
        client = PredictionClient(("127.0.0.1", port), retries=0)
        with PredictionServer(**kwargs) as server:
            client.report_observation(0, 0, 0.5, 1.0)
            first = server.binary_address
            assert client._binary_addresses == [first]
        with PredictionServer(**kwargs) as server:
            framed = TRANSPORT_BINARY_REQUESTS.value
            client.report_observation(0, 1, 0.5, 2.0)  # unkeyed, not retried
            assert client._binary_addresses == [server.binary_address]
            assert TRANSPORT_BINARY_REQUESTS.value == framed + 1
            assert server.model.updates_applied == 2
        client.close()


class TestTransportMetrics:
    def test_request_counters_and_mode_gauge(self):
        from repro.observability import get_registry, parse_prometheus_text

        with PredictionServer(rng=0, background_replay=False) as server:
            client = PredictionClient(server.address)
            _warm(client, n=10)
            client.predict_candidates(0, [0, 1])
            families = parse_prometheus_text(get_registry().render())
            requests = families["qos_transport_requests_total"]["samples"]
            by_label = {labels: value for (__, labels), value in requests.items()}
            assert by_label[(("transport", "json"),)] > 0
            assert by_label[(("transport", "binary"),)] > 0
            mode = families["qos_transport_mode"]["samples"]
            mode_by_label = {labels: value for (__, labels), value in mode.items()}
            assert mode_by_label[(("transport", "json"),)] == 1.0
            assert mode_by_label[(("transport", "binary"),)] == 1.0
            client.close()
