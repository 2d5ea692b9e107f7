"""The error contract: one refusal reads the same wherever it is raised.

Every error kind the servers can answer is provoked once per encoding —
over JSON/HTTP and, where the operation has an opcode, as a binary frame —
and the ``(status, body)`` pairs must be identical.  The statuses, body
keys and key order pinned here are the wire contract; the router rows run
against a real router in front of real shards.

Also here: the structural guards that keep the request boundary single
(one module touches ``http.server``; every ``ServiceError`` is in the
docs' error table), and the idle stop time of both servers.
"""

import ast
import contextlib
import errno
import http.client
import json
import os
import pathlib
import re
import socket
import time
from unittest import mock

import pytest

from repro.cluster import ClusterRouter, PlacementTable, ShardSpec
from repro.observability import get_registry
from repro.robustness import AdmissionConfig
from repro.server import PredictionServer, ReplicationConfig
from repro.server.binary import (
    OP_CREDENCE,
    OP_OBSERVE,
    OP_PREDICT_BATCH,
    OP_PREDICT_ROUTED,
    RESPONSE_FLAG,
    BinaryConnection,
    BinaryServerError,
    pack_credence_request,
    pack_frame,
    pack_observe_request,
    pack_predict_request,
)
from repro.server.replication import EpochStore

REPO = pathlib.Path(__file__).resolve().parent.parent
SERVER_ARGS = dict(rng=0, background_replay=False)
OBSERVATION = {"timestamp": 1.0, "user_id": 0, "service_id": 0, "value": 1.0}
OBSERVE_FRAME = pack_observe_request(1.0, 0, 0, 1.0)


def http_call(address, method, path, payload=None):
    """``(status, body, headers)`` of one request, nothing interpreted."""
    body = json.dumps(payload).encode() if payload is not None else None
    conn = http.client.HTTPConnection(*address, timeout=10.0)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            dict(response.getheaders()),
        )
    finally:
        conn.close()


def binary_call(address, frame, opcode):
    """``(status, body)`` of the error frame answering ``frame``."""
    with BinaryConnection(address) as conn:
        with pytest.raises(BinaryServerError) as excinfo:
            conn.receive(conn.send(frame), opcode | RESPONSE_FLAG)
    return excinfo.value.status, excinfo.value.payload


def internal_errors() -> float:
    return get_registry().counter(
        "qos_server_internal_errors_total", "Requests that hit the HTTP 500 boundary"
    ).value


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _no_space(fd, data, offset):
    """``os.pwrite`` — the WAL's one write call — on a full disk."""
    raise OSError(errno.ENOSPC, "No space left on device")


class _StuckMigration:
    """Stands in for a coordinator that is (and stays) mid-migration."""

    active = True
    mid = "m-stuck"
    error = None
    _thread = None

    def abort(self):
        pass

    def join(self, timeout=None):
        pass


# -- one case per error kind ---------------------------------------------------
# Each case is a context manager yielding what to send and what must come
# back: ``json`` = (address, method, path, payload), ``binary`` = (address,
# frame, opcode) or absent, ``status``, ``body`` (an ``"error"`` value may
# be a compiled pattern), and optionally ``retry_after`` (the header).


@contextlib.contextmanager
def plain_server(**kwargs):
    with PredictionServer(**{**SERVER_ARGS, **kwargs}) as server:
        yield server


@contextlib.contextmanager
def bad_request_without_code(tmp_path):
    with plain_server() as server:
        yield dict(
            json=(server.address, "POST", "/predictions/batch",
                  {"user_id": 0, "service_ids": [-1]}),
            binary=(server.binary_address, pack_predict_request(0, [-1]),
                    OP_PREDICT_BATCH),
            status=400,
            body={"error": "ids must be non-negative"},
        )


@contextlib.contextmanager
def bad_request_with_code(tmp_path):
    with plain_server() as server:
        yield dict(
            json=(server.address, "POST", "/observations",
                  {**OBSERVATION, "value": -1.0}),
            binary=(server.binary_address, pack_observe_request(1.0, 0, 0, -1.0),
                    OP_OBSERVE),
            status=400,
            body={
                "error": "field 'value' must be non-negative, got -1.0",
                "code": "invalid_value",
            },
        )


@contextlib.contextmanager
def payload_too_large(tmp_path):
    with plain_server(max_body_bytes=64) as server:
        yield dict(
            json=(server.address, "POST", "/observations",
                  {**OBSERVATION, "idempotency_key": "k" * 100}),
            binary=(server.binary_address,
                    pack_observe_request(1.0, 0, 0, 1.0, "k" * 100), OP_OBSERVE),
            status=413,
            # The two encodings of one request differ in size, nothing else.
            body={"error": re.compile(r"body of \d+ bytes exceeds limit of 64")},
        )


@contextlib.contextmanager
def fenced_not_primary(tmp_path):
    replication = ReplicationConfig(
        str(tmp_path / "epoch.json"),
        role="standby",
        primary_address=("127.0.0.1", closed_port()),
        node_id="s",
    )
    with plain_server(data_dir=str(tmp_path / "s"), replication=replication) as server:
        yield dict(
            json=(server.address, "POST", "/observations", OBSERVATION),
            binary=(server.binary_address, OBSERVE_FRAME, OP_OBSERVE),
            status=409,
            body={
                "error": "this replica is a standby; route observations to "
                "the primary",
                "code": "not_primary",
                "epoch": 0,
            },
        )


@contextlib.contextmanager
def fenced_stale_epoch(tmp_path):
    store = EpochStore(str(tmp_path / "epoch.json"))
    replication = ReplicationConfig(
        store, role="primary", node_id="p", fence_check_interval=0.0
    )
    with plain_server(data_dir=str(tmp_path / "p"), replication=replication) as server:
        assert store.cas(1, 2, owner="usurper")
        yield dict(
            json=(server.address, "POST", "/observations", OBSERVATION),
            binary=(server.binary_address, OBSERVE_FRAME, OP_OBSERVE),
            status=409,
            body={
                "error": "this node holds stale epoch 1; a newer primary has "
                "been promoted",
                "code": "stale_epoch",
                "epoch": 1,
                "cluster_epoch": 2,
            },
        )


@contextlib.contextmanager
def storage_unavailable(tmp_path):
    with plain_server(data_dir=str(tmp_path / "d")) as server:
        with mock.patch.object(os, "pwrite", _no_space):
            http_call(server.address, "POST", "/observations", OBSERVATION)  # trips it
        yield dict(
            json=(server.address, "POST", "/observations", OBSERVATION),
            binary=(server.binary_address, OBSERVE_FRAME, OP_OBSERVE),
            status=507,
            body={
                "error": re.compile(r"server is in read-only degraded mode \(.*\); "
                                    "predictions still serve"),
                "code": "insufficient_storage",
            },
        )


@contextlib.contextmanager
def shed_rate_limited(tmp_path):
    admission = AdmissionConfig(rate=0.5, burst=1.0, retry_after_floor=30.0)
    with plain_server(admission=admission) as server:
        http_call(server.address, "POST", "/observations", OBSERVATION)  # the burst
        yield dict(
            json=(server.address, "POST", "/observations", OBSERVATION),
            binary=(server.binary_address, OBSERVE_FRAME, OP_OBSERVE),
            status=429,
            body={
                "error": "observation rate limit exceeded (0.5/s)",
                "retry_after": 30.0,
            },
            retry_after="30",
        )


@contextlib.contextmanager
def shed_overloaded(tmp_path):
    admission = AdmissionConfig(rate=1e6, burst=1e6, deadline=0.05)
    with plain_server(admission=admission) as server:
        with server._ingest_lock:  # an ingest that never finishes
            yield dict(
                json=(server.address, "POST", "/observations", OBSERVATION),
                binary=(server.binary_address, OBSERVE_FRAME, OP_OBSERVE),
                status=503,
                body={
                    "error": "ingest deadline exceeded (0.05s waiting for the "
                    "ingest lock)",
                    "retry_after": 0.05,
                },
                retry_after="1",
            )


@contextlib.contextmanager
def internal_error(tmp_path):
    with plain_server() as server:
        server._predict_batch = lambda user_id, service_ids: 1 / 0
        yield dict(
            json=(server.address, "POST", "/predictions/batch",
                  {"user_id": 0, "service_ids": [1]}),
            binary=(server.binary_address, pack_predict_request(0, [1]),
                    OP_PREDICT_BATCH),
            status=500,
            body={"error": "internal error: ZeroDivisionError: division by zero"},
            counts_internal_error=True,
        )


@contextlib.contextmanager
def routed(ghost=False, **router_kwargs):
    """A router over one live shard (plus one that refuses connections)."""
    with plain_server() as server:
        specs = [ShardSpec(name="live", addresses=(server.address,))]
        if ghost:
            specs.append(
                ShardSpec(name="ghost", addresses=(("127.0.0.1", closed_port()),))
            )
        table = PlacementTable(specs)
        with ClusterRouter(table, timeout=2.0, **router_kwargs) as router:
            yield router, table


def user_owned_by(table, name):
    return next(u for u in range(1000) if table.owner_of("user", u).name == name)


@contextlib.contextmanager
def router_shard_unavailable(tmp_path):
    with routed(ghost=True) as (router, table):
        user_id = user_owned_by(table, "ghost")
        yield dict(
            json=(router.address, "POST", "/observations",
                  {**OBSERVATION, "user_id": user_id}),
            binary=(router.binary_address,
                    pack_observe_request(1.0, user_id, 0, 1.0), OP_OBSERVE),
            status=503,
            body={
                "error": re.compile(r"shard 'ghost' unavailable: .+"),
                "code": "shard_unavailable",
                "shard": "ghost",
                "retry_after": 1.0,
            },
            retry_after="1",
        )


@contextlib.contextmanager
def router_entity_migrating(tmp_path):
    with routed() as (router, table):
        router._block_entities([("user", 5)], reads=True)
        yield dict(
            json=(router.address, "GET", "/predictions?user_id=5&service_id=7", None),
            binary=(router.binary_address,
                    pack_predict_request(5, [7], OP_PREDICT_ROUTED),
                    OP_PREDICT_ROUTED),
            status=503,
            body={
                "error": "user 5 is migrating; retry shortly",
                "code": "entity_migrating",
                "entity": ["user", 5],
                "retry_after": 0.25,
            },
            retry_after="1",
        )


@contextlib.contextmanager
def router_stale_placement(tmp_path):
    with routed() as (router, table):
        yield dict(
            json=(router.address, "POST", "/cluster/placement", table.to_dict()),
            status=409,
            body={
                "error": "placement version 1 is not newer than 1",
                "code": "stale_placement",
                "version": 1,
            },
        )


@contextlib.contextmanager
def router_stale_migration_target(tmp_path):
    with routed() as (router, table):
        yield dict(
            json=(router.address, "POST", "/migration/start",
                  {"target": table.to_dict()}),
            status=409,
            body={
                "error": "target version 1 is not newer than installed version 1",
                "code": "stale_placement",
                "version": 1,
            },
        )


@contextlib.contextmanager
def router_placement_mid_migration(tmp_path):
    with routed() as (router, table):
        router._migration = _StuckMigration()
        yield dict(
            json=(router.address, "POST", "/cluster/placement",
                  {**table.to_dict(), "version": 2}),
            status=409,
            body={
                "error": "a live migration is active; placement changes must "
                "go through it",
                "code": "migration_active",
                "mid": "m-stuck",
            },
        )


@contextlib.contextmanager
def router_second_migration(tmp_path):
    with routed() as (router, table):
        router._migration = _StuckMigration()
        yield dict(
            json=(router.address, "POST", "/migration/start",
                  {"target": {**table.to_dict(), "version": 2}}),
            status=409,
            body={
                "error": "migration 'm-stuck' is already active",
                "code": "migration_active",
                "version": 1,
            },
        )


@contextlib.contextmanager
def router_passes_shard_refusal_through(tmp_path):
    with routed() as (router, table):
        yield dict(
            json=(router.address, "POST", "/observations",
                  {**OBSERVATION, "value": -1.0}),
            binary=(router.binary_address, pack_observe_request(1.0, 0, 0, -1.0),
                    OP_OBSERVE),
            status=400,
            body={
                "error": "field 'value' must be non-negative, got -1.0",
                "code": "invalid_value",
            },
        )


@contextlib.contextmanager
def router_passes_fenced_write_through(tmp_path):
    """A shard that is only a standby: nowhere to redirect the 409 to."""
    with fenced_not_primary(tmp_path) as fenced:
        standby = fenced["json"][0]
        table = PlacementTable([ShardSpec(name="pair", addresses=(standby,))])
        with ClusterRouter(table, timeout=2.0) as router:
            yield dict(
                fenced,
                json=(router.address, "POST", "/observations", OBSERVATION),
                binary=(router.binary_address, OBSERVE_FRAME, OP_OBSERVE),
            )


@contextlib.contextmanager
def router_bad_request(tmp_path):
    with routed() as (router, table):
        yield dict(
            json=(router.address, "POST", "/observations", {"user_id": "seven"}),
            binary=(router.binary_address, pack_observe_request(1.0, -7, 0, 1.0),
                    OP_OBSERVE),
            status=400,
            body={"error": "field 'user_id' must be a non-negative integer"},
        )


@contextlib.contextmanager
def router_payload_too_large(tmp_path):
    with routed(max_body_bytes=64) as (router, table):
        yield dict(
            json=(router.address, "POST", "/observations",
                  {**OBSERVATION, "idempotency_key": "k" * 100}),
            binary=(router.binary_address,
                    pack_observe_request(1.0, 0, 0, 1.0, "k" * 100), OP_OBSERVE),
            status=413,
            body={"error": re.compile(r"body of \d+ bytes exceeds limit of 64")},
        )


@contextlib.contextmanager
def router_internal_error(tmp_path):
    with routed() as (router, table):
        router._handle_status = lambda: 1 / 0
        router._predict_batch = lambda user_id, service_ids: 1 / 0
        yield dict(
            json=(router.address, "GET", "/status", None),
            binary=(router.binary_address,
                    pack_predict_request(0, [1], OP_PREDICT_ROUTED),
                    OP_PREDICT_ROUTED),
            status=500,
            body={"error": "internal error: ZeroDivisionError: division by zero"},
            counts_internal_error=True,
        )


CASES = [
    bad_request_without_code,
    bad_request_with_code,
    payload_too_large,
    fenced_not_primary,
    fenced_stale_epoch,
    storage_unavailable,
    shed_rate_limited,
    shed_overloaded,
    internal_error,
    router_shard_unavailable,
    router_entity_migrating,
    router_stale_placement,
    router_stale_migration_target,
    router_placement_mid_migration,
    router_second_migration,
    router_passes_shard_refusal_through,
    router_passes_fenced_write_through,
    router_bad_request,
    router_payload_too_large,
    router_internal_error,
]


def assert_body(actual: dict, expected: dict) -> None:
    assert list(actual) == list(expected)  # same keys, same order on the wire
    for key, want in expected.items():
        if isinstance(want, re.Pattern):
            assert want.fullmatch(actual[key]), (key, actual[key])
        else:
            assert actual[key] == want, key


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_error_reads_the_same_on_every_encoding(case, tmp_path):
    with case(tmp_path) as expect:
        replies = []
        for send, request in ((http_call, "json"), (binary_call, "binary")):
            if request not in expect:
                continue
            before = internal_errors()
            reply = send(*expect[request])
            counted = internal_errors() - before
            assert counted == (1 if expect.get("counts_internal_error") else 0)
            assert reply[0] == expect["status"]
            assert_body(reply[1], expect["body"])
            replies.append(reply)
        headers = replies[0][2]
        assert headers.get("Retry-After") == expect.get("retry_after")
        if len(replies) == 2 and not any(
            isinstance(v, re.Pattern) for v in expect["body"].values()
        ):
            assert replies[0][:2] == replies[1]


def test_a_500_inside_the_frame_codec_is_counted():
    """A bug *after* the backend answered — here the reply cannot be
    packed — is a 500 like any other and moves the same counter."""
    with plain_server() as server:
        server._credence = lambda service_ids: ["not a float"]
        before = internal_errors()
        status, body = binary_call(
            server.binary_address, pack_credence_request([1]), OP_CREDENCE
        )
        assert status == 500 and body["error"].startswith("internal error: ")
        assert internal_errors() == before + 1
        status = http_call(server.address, "GET", "/status")[1]
        assert status["internal_errors"] == 1


def test_an_unknown_opcode_is_a_400_on_shard_and_router():
    """Including the router's own opcode sent to a shard."""
    with routed() as (router, table):
        shard = router.shard_client("live").status()["transport"]["binary_address"]
        for address, frame in (
            (router.binary_address, pack_frame(0x55)),
            (tuple(shard), pack_frame(0x55)),
            (tuple(shard), pack_predict_request(0, [1], OP_PREDICT_ROUTED)),
        ):
            opcode = frame[3]
            assert binary_call(address, frame, opcode) == (
                400, {"error": f"unknown opcode 0x{opcode:02x}"}
            )


# -- structural guards -----------------------------------------------------------


def test_the_frame_listener_names_no_method_of_its_owner():
    """``server/binary.py`` is handed a table, like ``HttpListener``: it
    reads no ``_binary_*`` / ``_credence*`` attribute off anything."""
    source = (REPO / "src" / "repro" / "server" / "binary.py").read_text()
    reads = [
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith(("_binary_", "_credence"))
    ]
    assert reads == []



def test_one_module_owns_the_http_server_classes():
    importers = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "http.server":
                importers.add(path.relative_to(REPO).as_posix())
            elif isinstance(node, ast.Import):
                if any(alias.name == "http.server" for alias in node.names):
                    importers.add(path.relative_to(REPO).as_posix())
    assert importers == {"src/repro/server/http.py"}


def test_every_service_error_is_in_the_docs_error_table():
    import repro.cluster.router  # noqa: F401 — defines the router's errors
    import repro.server.app  # noqa: F401 — defines the shard's errors
    from repro.server.http import ServiceError

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    rows = {}  # class name -> the status its row states
    for line in (REPO / "docs" / "api.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 3 and cells[1].startswith("`"):
            for name in re.findall(r"`(\w+)`", cells[1]):
                rows[name] = cells[2]
    for cls in subclasses(ServiceError):
        assert cls.__name__ in rows, f"{cls.__name__} missing from docs/api.md"
        if cls.status is not None:
            assert rows[cls.__name__] == str(cls.status), cls.__name__


# -- stop in milliseconds ----------------------------------------------------------


def test_idle_servers_stop_in_milliseconds():
    with routed() as (router, table):
        started = time.perf_counter()
        router.stop()
        router_seconds = time.perf_counter() - started
    server = PredictionServer(**SERVER_ARGS)
    server.start()
    started = time.perf_counter()
    server.stop()
    server_seconds = time.perf_counter() - started
    # serve_forever's default 0.5 s poll made each of these >= 0.5 s.
    assert router_seconds < 0.25
    assert server_seconds < 0.25
