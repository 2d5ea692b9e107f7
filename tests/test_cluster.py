"""Tests for the sharded-fleet layer: rendezvous placement stability,
the version-stamped placement table, router fan-out/merge, and error
containment — a dead shard answers as a structured 503 and a standby's
fenced 409 redirects inside the router, so neither trips a breaker."""

import contextlib
import os
import random
import socket
import subprocess
import sys
import threading

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterRouter,
    PlacementTable,
    ShardSpec,
    rendezvous_score,
)
from repro.server import (
    PredictionClient,
    PredictionServer,
    ReplicationConfig,
    RetryableServiceError,
    TerminalServiceError,
)
from repro.core.serialization import archive_digest
from repro.server.binary import TRANSPORT_BINARY_REQUESTS
from repro.server.wal import CheckpointStore
from repro.simulation.faults import check_metrics_exposition

SERVER_ARGS = dict(rng=0, background_replay=False)

N_KEYS = 2000


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def specs(names):
    return [ShardSpec(name=n, addresses=(("127.0.0.1", 1),)) for n in names]


def owners(table, kind="user", n=N_KEYS):
    return {k: table.owner_of(kind, k).name for k in range(n)}


def test_a_router_process_imports_neither_numpy_nor_sqlite3():
    """The router only moves bytes: importing it must not pay for the
    model's numeric stack or the spill store (package re-exports are lazy)."""
    import repro

    probe = (
        "import sys\n"
        "from repro.cluster import ClusterRouter, PlacementTable, ShardSpec\n"
        "loaded = [m for m in ('numpy', 'sqlite3', 'repro.server.app') "
        "if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import repro.cluster, repro.server, repro.observability\n"
        "for package in (repro, repro.cluster, repro.server, repro.observability):\n"
        "    for name in package.__all__:\n"
        "        getattr(package, name)\n"
    )
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=source_root)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestRendezvous:
    def test_score_is_deterministic_and_key_sensitive(self):
        assert rendezvous_score("user", 7, "s0") == rendezvous_score(
            "user", 7, "s0"
        )
        # Kind, id, and shard name all feed the hash.
        baseline = rendezvous_score("user", 7, "s0")
        assert rendezvous_score("service", 7, "s0") != baseline
        assert rendezvous_score("user", 8, "s0") != baseline
        assert rendezvous_score("user", 7, "s1") != baseline

    def test_every_key_has_exactly_one_owner(self):
        table = PlacementTable(specs(["a", "b", "c", "d", "e"]))
        for kind in ("user", "service"):
            for key in range(500):
                owner = table.owner_of(kind, key)
                # The owner is the unique argmax over active shards.
                best = [
                    s.name
                    for s in table.active
                    if rendezvous_score(kind, key, s.name)
                    == rendezvous_score(kind, key, owner.name)
                ]
                assert best == [owner.name]

    def test_ownership_is_roughly_balanced(self):
        table = PlacementTable(specs(["a", "b", "c", "d"]))
        counts = {}
        for name in owners(table).values():
            counts[name] = counts.get(name, 0) + 1
        for name in table.names:
            # Expected 500 of 2000 per shard; allow generous skew.
            assert 300 < counts[name] < 700, counts

    def test_adding_a_shard_moves_about_one_over_n_keys(self):
        before = PlacementTable(specs(["a", "b", "c", "d"]))
        after = before.with_shard(
            ShardSpec(name="e", addresses=(("127.0.0.1", 1),))
        )
        old, new = owners(before), owners(after)
        moved = [k for k in old if old[k] != new[k]]
        # Expected fraction 1/5 = 0.2 of the keyspace.
        assert 0.12 < len(moved) / N_KEYS < 0.30, len(moved)
        # Rendezvous only ever moves keys *onto* the new shard.
        assert all(new[k] == "e" for k in moved)

    def test_removing_a_shard_moves_only_its_keys(self):
        before = PlacementTable(specs(["a", "b", "c", "d", "e"]))
        after = before.without_shard("c")
        old, new = owners(before), owners(after)
        for key in old:
            if old[key] == "c":
                assert new[key] != "c"
            else:
                # Survivors' rankings are untouched by the removal.
                assert new[key] == old[key]

    def test_draining_moves_keys_like_removal_but_keeps_reachability(self):
        before = PlacementTable(specs(["a", "b", "c"]))
        drained = before.draining_shard("b")
        assert drained.version == before.version + 1
        assert drained.shard("b").draining
        assert "b" not in {s.name for s in drained.active}
        removed = before.without_shard("b")
        # Draining and removal induce the identical ownership map.
        assert owners(drained) == owners(removed)
        # ... but the drained shard is still in the table to route to.
        assert "b" in drained.names


class TestPlacementTable:
    def test_round_trips_through_dict(self):
        table = PlacementTable(
            [
                ShardSpec(name="a", addresses=(("10.0.0.1", 8301),)),
                ShardSpec(
                    name="b",
                    addresses=(("10.0.0.2", 8301), ("10.0.0.3", 8301)),
                    draining=True,
                ),
            ],
            version=7,
        )
        clone = PlacementTable.from_dict(table.to_dict())
        assert clone.version == 7
        assert clone.names == table.names
        assert clone.shard("b").addresses == (("10.0.0.2", 8301), ("10.0.0.3", 8301))
        assert clone.shard("b").draining
        assert owners(clone, n=200) == owners(table, n=200)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            PlacementTable([])
        with pytest.raises(ValueError):
            PlacementTable(specs(["a", "a"]))
        with pytest.raises(ValueError):
            PlacementTable(specs(["a"]), version=0)
        with pytest.raises(ValueError):
            PlacementTable(
                [ShardSpec(name="a", draining=True)]
            )  # no active shard left
        with pytest.raises(ValueError):
            PlacementTable.from_dict({"shards": []})

    def test_evolution_bumps_version_and_is_pure(self):
        table = PlacementTable(specs(["a", "b"]))
        grown = table.with_shard(ShardSpec(name="c"))
        assert (table.version, grown.version) == (1, 2)
        assert table.names == ["a", "b"]  # original untouched
        assert grown.without_shard("c").version == 3
        with pytest.raises(ValueError):
            table.with_shard(ShardSpec(name="b"))
        with pytest.raises(KeyError):
            table.without_shard("zz")
        with pytest.raises(KeyError):
            table.draining_shard("zz")


class TestPlacementEdgeCases:
    def test_draining_the_last_active_shard_is_rejected(self):
        table = PlacementTable(specs(["a", "b"]))
        drained = table.draining_shard("a")
        with pytest.raises(ValueError):
            drained.draining_shard("b")  # would leave no active shard
        with pytest.raises(ValueError):
            PlacementTable(specs(["a"])).draining_shard("a")

    def test_drain_undrain_round_trip_restores_ownership(self):
        table = PlacementTable(specs(["a", "b", "c"]))
        restored = table.draining_shard("b").draining_shard("b", False)
        assert restored.version == table.version + 2
        assert not restored.shard("b").draining
        # The round trip is ownership-neutral: every key goes home.
        assert owners(restored) == owners(table)


@pytest.fixture()
def fleet():
    """Three in-process shards behind a running router."""
    servers = [PredictionServer(**SERVER_ARGS) for _ in range(3)]
    for server in servers:
        server.start()
    table = PlacementTable(
        [
            ShardSpec(name=f"s{k}", addresses=(server.address,))
            for k, server in enumerate(servers)
        ]
    )
    router = ClusterRouter(table)
    router.start()
    client = ClusterClient(router.address, retries=0)
    try:
        yield servers, table, router, client
    finally:
        client.close()
        router.stop()
        for server in servers:
            server.stop()


class TestRouterFleet:
    def test_observations_land_on_the_owning_shard(self, fleet):
        servers, table, router, client = fleet
        expected = {f"s{k}": 0 for k in range(3)}
        for user_id in range(12):
            client.report_observation(user_id, user_id % 5, 0.5, float(user_id))
            expected[table.owner_of("user", user_id).name] += 1
        for name, count in expected.items():
            handled = router.shard_client(name).status()[
                "observations_handled"
            ]
            assert handled == count, (name, handled, count)

    def test_batch_prediction_merges_home_shard_credence(self, fleet):
        servers, table, router, client = fleet
        for k in range(30):
            client.report_observation(k % 6, k % 8, 0.3 + 0.1 * (k % 4), float(k))
        detail = client.predict_candidates_detailed(2, [0, 1, 2, 3, 4])
        assert set(detail["predictions"]) == {0, 1, 2, 3, 4}
        assert set(detail["credence"]) == {0, 1, 2, 3, 4}
        assert detail["credence_partial"] == []
        assert detail["shard"] == table.owner_of("user", 2).name
        assert detail["placement_version"] == table.version

    def test_rank_candidates_orders_by_prediction(self, fleet):
        servers, table, router, client = fleet
        for k in range(40):
            client.report_observation(k % 6, k % 8, 0.3 + 0.1 * (k % 4), float(k))
        ranked = client.rank_candidates(1, [0, 1, 2, 3, 4, 5], k=3)
        assert len(ranked["ranked"]) == 3
        values = [entry["prediction"] for entry in ranked["ranked"]]
        assert values == sorted(values)  # prefer="min"
        for entry in ranked["ranked"]:
            assert "credence" in entry and "source" in entry

    def test_health_and_aggregated_metrics(self, fleet):
        servers, table, router, client = fleet
        client.report_observation(0, 0, 0.5, 0.0)
        health = client.health()
        assert health["status"] == "ok"
        assert health["shards_ready"] == health["shards_total"] == 3
        ok, info = check_metrics_exposition(client.metrics())
        assert ok, info
        # Every sample is attributed to its shard.
        assert 'shard="s0"' in client.metrics()

    def test_stale_placement_is_rejected_with_409(self, fleet):
        servers, table, router, client = fleet
        with pytest.raises(TerminalServiceError) as excinfo:
            client.update_placement(table)  # same version: not newer
        assert excinfo.value.status == 409
        assert excinfo.value.body["code"] == "stale_placement"
        assert router.placement.version == table.version

    def test_drain_rebalances_new_traffic_off_the_shard(self, fleet):
        servers, table, router, client = fleet
        drained_name = table.owner_of("user", 0).name
        client.update_placement(table.draining_shard(drained_name))
        assert client.placement().version == table.version + 1
        body_owner = client.owner_of("user", 0)
        assert body_owner.name != drained_name

    def test_lower_version_install_is_stale(self, fleet):
        servers, table, router, client = fleet
        client.update_placement(table.draining_shard("s2"))
        # Re-offering the original (now older) table must be refused.
        with pytest.raises(TerminalServiceError) as excinfo:
            client.update_placement(table)
        assert excinfo.value.status == 409
        assert excinfo.value.body["code"] == "stale_placement"
        assert router.placement.version == table.version + 1

    def test_refresh_failures_back_off_with_jitter(self, fleet):
        servers, table, router, client = fleet
        client.placement()  # prime the cache
        attempts = []
        healthy_placement = client.placement

        def failing_placement(refresh=False):
            attempts.append(refresh)
            raise RetryableServiceError("placement endpoint down")

        client.placement = failing_placement
        client._note_version(table.version + 1)
        assert attempts == [True]
        assert client._refresh_failures == 1
        gate = client._refresh_not_before
        assert gate > 0.0
        # Inside the backoff window the next advertisement is ignored —
        # the cached table keeps serving instead of hammering the router.
        client._note_version(table.version + 1)
        assert attempts == [True]
        # Past the gate it retries, and the failure count keeps growing.
        client._refresh_not_before = 0.0
        client._note_version(table.version + 1)
        assert attempts == [True, True]
        assert client._refresh_failures == 2
        # One successful refresh resets the backoff entirely.
        client.placement = healthy_placement
        client._refresh_not_before = 0.0
        client._note_version(table.version + 1)
        assert client._refresh_failures == 0
        assert client._refresh_not_before == 0.0


class TestRouterErrorContainment:
    def test_dead_shard_is_a_structured_503_not_a_breaker_trip(self, tmp_path):
        live = PredictionServer(**SERVER_ARGS)
        live.start()
        table = PlacementTable(
            [
                ShardSpec(name="live", addresses=(live.address,)),
                ShardSpec(name="dead", addresses=(("127.0.0.1", free_port()),)),
            ]
        )
        router = ClusterRouter(table)
        router.start()
        # A breaker this tight would open on the very first transport
        # failure — the point is that it never sees one.
        client = PredictionClient(
            router.address, retries=0, breaker_threshold=1
        )
        try:
            dead_user = next(
                u for u in range(500)
                if table.owner_of("user", u).name == "dead"
            )
            live_user = next(
                u for u in range(500)
                if table.owner_of("user", u).name == "live"
            )
            with pytest.raises(RetryableServiceError) as excinfo:
                client.report_observation(dead_user, 0, 0.5, 0.0)
            assert excinfo.value.status == 503
            assert excinfo.value.body["code"] == "shard_unavailable"
            assert excinfo.value.body["shard"] == "dead"
            # The 503 is a *router answer*: the caller's breaker stays
            # closed and traffic for healthy shards flows untouched.
            assert client._failures == [0]
            client.report_observation(live_user, 0, 0.5, 0.0)
            assert float(client.predict(live_user, 0)) > 0.0
        finally:
            client.close()
            router.stop()
            live.stop()

    def test_routed_fenced_409_redirects_without_tripping_breakers(
        self, tmp_path
    ):
        """PR 5's fencing contract, extended to the routed path: a shard
        that is an HA pair lists its standby first, the router's shard
        client swallows the standby's fenced ``not_primary`` 409 by
        redirecting to the primary, and no breaker anywhere counts it."""
        store = str(tmp_path / "epoch.json")
        primary = PredictionServer(
            data_dir=str(tmp_path / "primary"),
            replication=ReplicationConfig(store, role="primary", node_id="p"),
            **SERVER_ARGS,
        )
        primary.start()
        standby = PredictionServer(
            data_dir=str(tmp_path / "standby"),
            replication=ReplicationConfig(
                store,
                role="standby",
                primary_address=primary.address,
                node_id="s",
                poll_interval=0.01,
            ),
            **SERVER_ARGS,
        )
        standby.start()
        # Standby listed first: every write the router sends hits the
        # fence before the shard client learns the primary.
        table = PlacementTable(
            [
                ShardSpec(
                    name="pair",
                    addresses=(standby.address, primary.address),
                )
            ]
        )
        router = ClusterRouter(table, client_kwargs={"breaker_threshold": 1})
        router.start()
        client = PredictionClient(
            router.address, retries=0, breaker_threshold=1
        )
        framed = TRANSPORT_BINARY_REQUESTS.value
        try:
            for k in range(5):
                client.report_observation(k, k % 3, 0.4, float(k))
            # Every write went over the binary hops: five frames to the
            # router, then the fenced frame to the standby and one frame
            # each to the primary.
            assert TRANSPORT_BINARY_REQUESTS.value - framed == 5 + 6
            assert float(client.predict(0, 0)) > 0.0
            shard_client = router.shard_client("pair")
            # The fenced 409 redirect must not have counted as a failure
            # on either endpoint of the shard client...
            assert shard_client._failures == [0, 0]
            # ... and the caller-facing breaker never saw an error at all.
            assert client._failures == [0]
            # Writes actually landed on the primary through the fence.
            with PredictionClient(primary.address, retries=0) as direct:
                assert direct.status()["updates_applied"] >= 5
        finally:
            client.close()
            router.stop()
            standby.stop()
            primary.stop()


@contextlib.contextmanager
def durable_pair(root, client_kwargs=None):
    """Two durable shards behind a router; yields ``(servers, router)``."""
    servers = [
        PredictionServer(data_dir=os.path.join(root, name), **SERVER_ARGS)
        for name in ("s0", "s1")
    ]
    for server in servers:
        server.start()
    table = PlacementTable(
        [
            ShardSpec(name=f"s{k}", addresses=(server.address,))
            for k, server in enumerate(servers)
        ]
    )
    router = ClusterRouter(table, client_kwargs=client_kwargs)
    router.start()
    try:
        yield servers, router
    finally:
        router.stop()
        for server in servers:
            if server._httpd is not None:
                server.stop()


@contextlib.contextmanager
def routed_pair(root, client_kwargs=None):
    """:func:`durable_pair`, yielding ``(servers, ask)`` where
    ``ask(method, path, payload)`` is one raw JSON request to the
    router."""
    with durable_pair(root, client_kwargs) as (servers, router):
        caller = PredictionClient(router.address, retries=0, transport="json")

        def ask(method, path, payload=None):
            try:
                return caller._request(method, path, payload, idempotent=False)
            except (RetryableServiceError, TerminalServiceError) as exc:
                return {"status": exc.status, "body": exc.body}

        yield servers, ask


def seeded_requests(seed=7, count=160):
    """A mixed stream: keyed and unkeyed observes, a resend, batches with
    a refused record, rankings with duplicate ids, credence reads, and
    payloads only the shard's validation can word a refusal for."""
    rng = random.Random(seed)
    requests = []
    for step in range(count):
        user, service = rng.randrange(12), rng.randrange(20)
        observation = {
            "timestamp": float(step),
            "user_id": user,
            "service_id": service,
            "value": round(rng.uniform(0.1, 4.0), 6),
        }
        kind = step % 8
        if kind == 3:
            observation["idempotency_key"] = f"m:{step}"
            requests.append(("POST", "/observations", observation))
            requests.append(("POST", "/observations", observation))  # resend
        elif kind == 4:
            batch = [
                dict(observation, user_id=rng.randrange(12), timestamp=step + 0.1 * k)
                for k in range(5)
            ]
            batch[2]["value"] = -1.0
            requests.append(("POST", "/observations/batch", {"observations": batch}))
        elif kind == 5:
            ids = [rng.randrange(20) for _ in range(6)] + [service, service]
            requests.append(
                ("POST", "/predictions/batch", {"user_id": user, "service_ids": ids})
            )
        elif kind == 6:
            ids = rng.sample(range(24), 8)
            requests.append(
                ("POST", "/rank/candidates",
                 {"user_id": user, "service_ids": ids, "k": 3, "prefer": "max"})
            )
        elif kind == 7:
            ids = ",".join(str(rng.randrange(24)) for _ in range(4))
            requests.append(("GET", f"/credence?service_ids={ids}", None))
        else:
            requests.append(("POST", "/observations", observation))
    requests += [
        ("POST", "/observations",
         {"timestamp": "soon", "user_id": 1, "service_id": 1, "value": 1.0}),
        ("POST", "/observations",
         {"timestamp": 1e9, "user_id": 1, "service_id": 1, "value": float("nan")}),
        ("POST", "/observations",
         {"timestamp": 1e9, "user_id": 1, "service_id": 1, "value": 1.0,
          "idempotency_key": ""}),
        ("POST", "/observations",
         {"timestamp": 1e9, "user_id": 1, "service_id": "2", "value": "0.5"}),
        ("POST", "/predictions/batch", {"user_id": 1, "service_ids": [3, -4]}),
        ("GET", "/credence?service_ids=-1", None),
    ]
    return requests


class TestBinaryHop:
    """The router's data plane on pooled binary connections: same replies,
    same shard state, same failure contract as the JSON hop."""

    def test_same_stream_same_replies_same_checkpoints_as_the_json_hop(
        self, tmp_path
    ):
        outcomes = {}
        for hop, client_kwargs in (("json", {"transport": "json"}), ("default", None)):
            root = str(tmp_path / hop)
            framed = TRANSPORT_BINARY_REQUESTS.value
            with routed_pair(root, client_kwargs) as (servers, ask):
                replies = [ask(*request) for request in seeded_requests()]
                for server in servers:
                    server.stop()  # graceful: writes the final checkpoint
            outcomes[hop] = {
                "replies": replies,
                "digests": [
                    archive_digest(CheckpointStore(os.path.join(root, name)).path)
                    for name in ("s0", "s1")
                ],
                "framed": TRANSPORT_BINARY_REQUESTS.value - framed,
            }
        assert outcomes["default"]["replies"] == outcomes["json"]["replies"]
        assert outcomes["default"]["digests"] == outcomes["json"]["digests"]
        assert outcomes["json"]["framed"] == 0
        # At least one frame per routed data-plane request (a ranking
        # sends one per shard it touches).
        assert outcomes["default"]["framed"] >= len(seeded_requests()) - 4
        # The tail of the stream: refused by the shard's own validation on
        # either hop, except the string-typed fields JSON coerces.
        statuses = [
            reply.get("status") for reply in outcomes["default"]["replies"][-6:]
        ]
        assert statuses == [400, 400, 400, None, 400, 400]

    def test_dead_home_shard_degrades_a_ranking_to_credence_partial(self):
        live = PredictionServer(**SERVER_ARGS)
        live.start()
        table = PlacementTable(
            [
                ShardSpec(name="live", addresses=(live.address,)),
                ShardSpec(name="dead", addresses=(("127.0.0.1", free_port()),)),
            ]
        )
        router = ClusterRouter(table)
        router.start()
        client = ClusterClient(router.address, retries=0)
        try:
            user = next(
                u for u in range(500) if table.owner_of("user", u).name == "live"
            )
            ids = list(range(12))
            homes = {s: table.owner_of("service", s).name for s in ids}
            assert set(homes.values()) == {"live", "dead"}
            for service in ids:
                client.report_observation(user, service, 0.5, float(service))
            detail = client.predict_candidates_detailed(user, ids)
            assert set(detail["predictions"]) == set(ids)
            assert detail["credence_partial"] == ["dead"]
            assert set(detail["credence"]) == {
                s for s in ids if homes[s] == "live"
            }
            assert router.shard_client("live")._binary_idle[0]  # it was framed
            assert client._router._binary_idle[0]  # ... as a PREDICT_ROUTED reply
            with ClusterClient(router.address, retries=0, transport="json") as pinned:
                assert pinned.predict_candidates_detailed(user, ids) == detail
        finally:
            client.close()
            router.stop()
            live.stop()

    def test_restarted_shard_on_a_new_binary_port_is_reached_again(self, tmp_path):
        port = free_port()
        kwargs = dict(port=port, data_dir=str(tmp_path / "s0"), **SERVER_ARGS)
        server = PredictionServer(**kwargs)
        server.start()
        table = PlacementTable(
            [ShardSpec(name="s0", addresses=(("127.0.0.1", port),))]
        )
        router = ClusterRouter(table)
        router.start()
        client = ClusterClient(router.address, retries=0)
        try:
            for k in range(6):
                client.report_observation(k, k % 3, 0.5, float(k))
            shard_client = router.shard_client("s0")
            assert shard_client._binary_addresses == [server.binary_address]
            server.stop()
            with pytest.raises(RetryableServiceError) as excinfo:
                client.report_observation(0, 0, 0.5, 10.0)
            assert excinfo.value.body["code"] == "shard_unavailable"
            server = PredictionServer(**kwargs)
            server.start()
            framed = TRANSPORT_BINARY_REQUESTS.value
            # Unkeyed, unretried, through the same router: served again.
            client.report_observation(0, 0, 0.5, 11.0)
            assert client.predict_candidates(0, [0, 1, 2])
            assert shard_client._binary_addresses == [server.binary_address]
            # Two frames to the router; observe, predict and credence on.
            assert TRANSPORT_BINARY_REQUESTS.value - framed == 2 + 3
            assert server.model.updates_applied == 7
        finally:
            client.close()
            router.stop()
            server.stop()

    def test_eight_threads_of_mixed_requests_each_get_their_own_reply(self, fleet):
        servers, table, router, client = fleet
        users, services = range(8), list(range(40))
        for step in range(400):
            client.report_observation(
                step % 8, step % 40, 0.2 + 0.01 * (step % 37), float(step)
            )
        # Reads name warmed entities only and writes name others, so every
        # read has one right answer however the threads interleave.
        wanted = {}
        for user in users:
            ids = services[user : user + 12]
            detail = client.predict_candidates_detailed(user, ids)
            wanted[user] = (ids, detail["predictions"], detail["credence"])
        failures: list = []

        def worker(user: int) -> None:
            own = ClusterClient(router.address, retries=0, timeout=30.0)
            ids, predictions, credence = wanted[user]
            try:
                for step in range(200):
                    kind = step % 4
                    if kind == 0:
                        own.report_observation(
                            100 + user, 100 + step, 0.5, 1000.0 + step
                        )
                    elif kind == 1:
                        reply = own.report_observations_detailed(
                            [
                                {"timestamp": 2000.0 + step, "user_id": 200 + user,
                                 "service_id": 200 + k, "value": 0.25 * (k + 1)}
                                for k in range(3)
                            ]
                        )
                        assert reply["accepted"] == 3 and not reply["rejected"]
                    elif kind == 2:
                        detail = own.predict_candidates_detailed(user, ids)
                        assert detail["predictions"] == pytest.approx(
                            predictions, rel=1e-9
                        )
                        assert detail["credence"] == credence
                        assert detail["shard"] == table.owner_of("user", user).name
                    else:
                        assert own.credence(ids[:5]) == {
                            s: credence[s] for s in ids[:5]
                        }
                # Its observes and rankings shared one connection to the router.
                assert len(own._router._binary_idle[0]) == 1
            except BaseException as exc:  # noqa: BLE001 — reported below
                failures.append((user, exc))
            finally:
                own.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=worker, args=(u,)) for u in users]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        # Connections were pooled, not opened per request, and none leaked
        # out of the pool: at most one per concurrent caller, all idle.
        for name in table.names:
            idle = router.shard_client(name)._binary_idle[0]
            assert 1 <= len(idle) <= 8
            assert all(conn.outstanding == 0 for conn in idle)


def client_stream(client, seed=11, count=120):
    """A mixed stream through a :class:`ClusterClient`'s own methods; each
    reply (or refusal) as the caller would see it."""
    rng = random.Random(seed)
    replies = []

    def call(fn, *args, **kwargs):
        try:
            reply = fn(*args, **kwargs)
            # A deduplicated observe reports NaN, which equals nothing.
            replies.append("nan" if reply != reply else reply)
        except (RetryableServiceError, TerminalServiceError) as exc:
            replies.append({"status": exc.status, "body": exc.body})

    for step in range(count):
        user, service = rng.randrange(12), rng.randrange(20)
        value = round(rng.uniform(0.1, 4.0), 6)
        kind = step % 6
        if kind == 2:
            call(client.report_observation, user, service, value, float(step),
                 idempotency_key=f"c:{step}")
            call(client.report_observation, user, service, value, float(step),
                 idempotency_key=f"c:{step}")  # resend: deduplicated
        elif kind == 3:
            ids = [rng.randrange(20) for _ in range(6)] + [service, service]
            call(client.predict_candidates_detailed, user, ids)
        elif kind == 4:
            batch = [
                {"timestamp": step + 0.1 * k, "user_id": rng.randrange(12),
                 "service_id": service, "value": value}
                for k in range(4)
            ]
            batch[1]["value"] = -1.0
            call(client.report_observations_detailed, batch)
        elif kind == 5:
            call(client.rank_candidates, user, rng.sample(range(24), 8), k=3)
            call(client.credence, rng.sample(range(24), 4))
        else:
            call(client.report_observation, user, service, value, float(step))
    call(client.report_observation, 1, 1, -1.0, 1e9)  # the shard's 400
    call(client.predict_candidates_detailed, 1, [3, -4])
    call(client.predict_candidates_detailed, -1, [3])  # the router's 400
    return replies


def router_frames() -> float:
    """Frames the router has counted under its JSON routes' labels."""
    from repro.observability import get_registry

    counter = get_registry().counter(
        "qos_router_requests_total", labelnames=("route",)
    )
    return sum(
        counter.labels(route=route).value
        for route in ("observations", "predictions/batch")
    )


class TestBinaryFrontDoor:
    """The client-to-router hop as frames: same replies, same shard state,
    same failure contract as JSON to the same router."""

    def test_same_stream_same_replies_same_checkpoints_as_the_json_client(
        self, tmp_path
    ):
        outcomes = {}
        for hop, kwargs in (("json", {"transport": "json"}), ("default", {})):
            root = str(tmp_path / hop)
            with durable_pair(root) as (servers, router):
                client = ClusterClient(router.address, retries=0, **kwargs)
                before = router_frames()
                replies = client_stream(client)
                counted = router_frames() - before
                learned = client._router._binary_addresses[0]
                client.close()
                for server in servers:
                    server.stop()
            outcomes[hop] = {
                "replies": replies,
                "digests": [
                    archive_digest(CheckpointStore(os.path.join(root, name)).path)
                    for name in ("s0", "s1")
                ],
                "learned": learned,
                "counted": counted,
            }
        assert outcomes["default"]["replies"] == outcomes["json"]["replies"]
        assert outcomes["default"]["digests"] == outcomes["json"]["digests"]
        assert outcomes["json"]["learned"] is None  # never asked
        assert outcomes["default"]["learned"] is not None
        # A frame counts under the label of the JSON route it stands for.
        assert outcomes["default"]["counted"] == outcomes["json"]["counted"]
        statuses = [
            reply.get("status") for reply in outcomes["default"]["replies"][-3:]
        ]
        assert statuses == [400, 400, 400]

    def test_a_newer_placement_version_on_a_frame_refreshes_the_cached_table(
        self, fleet
    ):
        servers, table, router, client = fleet
        assert client.placement().version == table.version
        # Installed behind the client's back, so only a reply can tell it.
        router.update_placement(table.draining_shard("s2"))
        detail = client.predict_candidates_detailed(0, [0, 1, 2])
        assert client._router._binary_idle[0]  # the reply was a frame
        assert detail["placement_version"] == table.version + 1
        assert client.placement().version == table.version + 1
        assert client.placement().shard("s2").draining

    def test_restarted_router_on_a_new_binary_port_is_reached_again(self):
        with PredictionServer(**SERVER_ARGS) as server:
            table = PlacementTable([ShardSpec(name="s0", addresses=(server.address,))])
            port = free_port()
            router = ClusterRouter(table, port=port)
            router.start()
            client = ClusterClient(router.address, retries=0)
            try:
                client.report_observation(0, 0, 0.5, 0.0)
                assert client._router._binary_addresses == [router.binary_address]
                router.stop()
                with pytest.raises(RetryableServiceError) as excinfo:
                    client.report_observation(0, 0, 0.5, 1.0)
                assert excinfo.value.status is None  # nobody answered
                router = ClusterRouter(table, port=port)
                router.start()
                # Unkeyed and unretried: the stale pooled connection is
                # noticed before anything is written to it.
                client.report_observation(0, 0, 0.5, 2.0)
                assert client.predict_candidates(0, [0, 1])
                assert client._router._binary_addresses == [router.binary_address]
                assert server.model.updates_applied == 2
            finally:
                client.close()
                router.stop()

    def test_discovery_succeeds_with_every_shard_down(self):
        table = PlacementTable(
            [
                ShardSpec(name=name, addresses=(("127.0.0.1", free_port()),))
                for name in ("a", "b")
            ]
        )
        with ClusterRouter(table, timeout=2.0) as router:
            with ClusterClient(router.address, retries=0, transport="binary") as client:
                with pytest.raises(RetryableServiceError) as excinfo:
                    client.report_observation(0, 0, 0.5, 0.0)
                assert excinfo.value.status == 503
                assert excinfo.value.body["code"] == "shard_unavailable"
                assert client._router._binary_addresses == [router.binary_address]
                assert client._router._failures == [0]  # an answer, not a failure

    def test_stop_leaves_no_binary_connection_serving(self, fleet):
        servers, table, router, client = fleet
        client.report_observation(0, 0, 0.5, 0.0)
        address = router.binary_address
        (pooled,) = client._router._binary_idle[0]
        assert not pooled.peer_closed()
        router.stop()
        assert router.binary_address is None
        assert pooled.peer_closed()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2.0).close()

    def test_transport_kwarg_still_pins_the_hop(self, fleet):
        servers, table, router, client = fleet
        with ClusterClient(router.address, retries=0, transport="json") as pinned:
            pinned.report_observation(0, 0, 0.5, 0.0)
            assert pinned.predict_candidates(0, [0, 1])
            assert pinned._router._binary_addresses == [None]  # never asked
            assert not router._binary._connections  # nobody connected
        # "binary" means binary: a router with no listener to offer is an
        # error, not a reason to fall back.
        router._binary.stop()
        status = client.status()
        assert status["transport"] == {"binary_address": None}
        with ClusterClient(router.address, retries=0, transport="binary") as strict:
            with pytest.raises(RetryableServiceError, match="binary transport"):
                strict.predict_candidates(0, [0, 1])
        with ClusterClient(router.address, retries=0) as auto:
            assert auto.predict_candidates(0, [0, 1])  # falls back to JSON

    def test_status_advertises_nothing_before_start(self):
        table = PlacementTable(
            [ShardSpec(name="a", addresses=(("127.0.0.1", free_port()),))]
        )
        router = ClusterRouter(table, timeout=2.0)
        assert router.binary_address is None
        assert router._handle_status()["transport"] == {"binary_address": None}
        router.stop()  # never started: nothing to tear down
