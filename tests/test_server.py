"""Tests for the HTTP prediction service and its client."""

import json
import threading
import types
import urllib.request
from collections import Counter

import pytest

from repro.core import AMFConfig
from repro.core.daemon import QUIET_SECONDS
from repro.lifecycle import LifecycleConfig
from repro.observability import get_registry
from repro.server import PredictionClient, PredictionServer
from repro.server.client import PredictionServiceError


@pytest.fixture()
def server():
    instance = PredictionServer(
        AMFConfig.for_response_time(), rng=0, background_replay=False
    )
    with instance:
        yield instance


@pytest.fixture()
def client(server):
    return PredictionClient(server.address)


class TestObservations:
    def test_report_returns_sample_error(self, client):
        error = client.report_observation(0, 0, value=1.5, timestamp=0.0)
        assert error > 0

    def test_batch_report(self, client):
        observations = [
            {"timestamp": float(k), "user_id": k % 3, "service_id": k % 5, "value": 1.0}
            for k in range(20)
        ]
        assert client.report_observations(observations) == 20

    def test_missing_field_is_client_error(self, client, server):
        with pytest.raises(PredictionServiceError, match="400"):
            client._request("POST", "/observations", {"user_id": 0})

    def test_invalid_value_is_client_error(self, client):
        with pytest.raises(PredictionServiceError, match="400"):
            client._request(
                "POST",
                "/observations",
                {"timestamp": 0.0, "user_id": 0, "service_id": 0, "value": "nan"},
            )


class TestPredictions:
    def test_predict_roundtrip(self, client):
        for k in range(200):
            client.report_observation(0, 0, value=2.0, timestamp=float(k))
        assert client.predict(0, 0) == pytest.approx(2.0, rel=0.3)

    def test_predict_unknown_pair_is_finite(self, client):
        value = client.predict(7, 13)
        assert 0.0 <= value <= 20.0

    def test_predict_candidates(self, client):
        predictions = client.predict_candidates(0, [1, 2, 3])
        assert set(predictions) == {1, 2, 3}
        assert all(0.0 <= v <= 20.0 for v in predictions.values())

    def test_negative_ids_rejected(self, client):
        with pytest.raises(PredictionServiceError, match="400"):
            client._request("GET", "/predictions?user_id=-1&service_id=0")

    def test_missing_query_rejected(self, client):
        with pytest.raises(PredictionServiceError, match="400"):
            client._request("GET", "/predictions")

    def test_empty_candidate_list_rejected(self, client):
        with pytest.raises(PredictionServiceError, match="400"):
            client.predict_candidates(0, [])


class TestStatusAndProtocol:
    def test_status_counts(self, client):
        client.report_observation(0, 0, value=1.0, timestamp=0.0)
        status = client.status()
        assert status["observations_handled"] == 1
        assert status["updates_applied"] >= 1
        assert status["stored_samples"] == 1

    def test_unknown_path_404(self, server):
        host, port = server.address
        request = urllib.request.Request(f"http://{host}:{port}/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404

    def test_malformed_json_400(self, server):
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/observations",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_non_object_body_400(self, server):
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/observations",
            data=json.dumps([1, 2]).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_unreachable_server_raises(self):
        client = PredictionClient(("127.0.0.1", 1), timeout=0.5)
        with pytest.raises(PredictionServiceError, match="cannot reach"):
            client.status()


class TestEndToEnd:
    def test_background_replay_improves_served_model(self):
        """With the daemon on, the served predictions converge between
        requests — the 'online updating' box of Fig. 3."""
        import time

        with PredictionServer(
            AMFConfig.for_response_time(), rng=1, background_replay=True
        ) as server:
            client = PredictionClient(server.address)
            import numpy as np

            rng = np.random.default_rng(0)
            base = np.outer(rng.uniform(0.5, 2, 6), rng.uniform(0.5, 2, 10))
            observations = [
                {"timestamp": 0.0, "user_id": u, "service_id": s, "value": float(base[u, s])}
                for u in range(6)
                for s in range(10)
            ]
            client.report_observations(observations)
            deadline = time.time() + 3.0
            while client.status()["background_replays"] < 2000 and time.time() < deadline:
                time.sleep(0.02)
            errors = [
                abs(client.predict(u, s) - base[u, s]) / base[u, s]
                for u in range(6)
                for s in range(10)
            ]
            assert float(np.median(errors)) < 0.25

    def test_collaborative_prediction_across_clients(self):
        """Two 'applications' share one service: user 1's uploads improve
        the service profile user 0 is predicted against."""
        with PredictionServer(
            AMFConfig.for_response_time(), rng=2, background_replay=False
        ) as server:
            a = PredictionClient(server.address)
            b = PredictionClient(server.address)
            for k in range(150):
                a.report_observation(0, 0, value=1.0, timestamp=float(k))
                b.report_observation(1, 0, value=1.0, timestamp=float(k))
            status = a.status()
            assert status["observations_handled"] == 300


WAIT = 10.0  # bound on every Event wait / join below; none is expected to run out


def _blocking(server, name):
    """Patch handler ``server.name`` (on the instance, as the route tables
    allow) to stop mid-request: ``(entered, release)`` events."""
    original = getattr(server, name)
    entered, release = threading.Event(), threading.Event()

    def blocked(*args):
        entered.set()
        release.wait(WAIT)
        return original(*args)

    setattr(server, name, blocked)
    return entered, release


class TestReplayScheduling:
    """The trainer yields to the data plane — and only to it — and says so
    in ``/status.trainer``."""

    @pytest.fixture()
    def replaying(self):
        with PredictionServer(
            AMFConfig.for_response_time(), rng=0, background_replay=True
        ) as server:
            client = PredictionClient(server.address, transport="json")
            client.report_observations(
                [
                    {"timestamp": 0.0, "user_id": k % 5, "service_id": k % 9,
                     "value": 1.0 + k % 3}
                    for k in range(60)
                ]
            )
            yield server, client
            client.close()

    @staticmethod
    def _after_an_idle_second(called, server, client, clock):
        """Move the clock a second on — far past the quiet interval of
        anything that has left — let the trainer's loop turn on that, and
        read ``/status``: ``(background_replays, yields)``."""
        clock.advance(1.0)
        assert called(server.model, "idle_for", times=2).wait(WAIT)
        status = client.status()
        return status["background_replays"], status["trainer"]["yields"]

    def test_status_reports_replay_scheduling(self, replaying, clock, called):
        server, client = replaying
        clock.advance(1.0)  # idle: a slice is taken ...
        assert called(server.model, "replay_many").wait(WAIT)
        assert called(server.model, "idle_for").wait(WAIT)  # ... and accounted
        trainer = client.status()["trainer"]
        assert trainer["running"]
        assert 0.0 <= trainer["replay_lag_s"] < 1.0
        client.predict_candidates(0, [0, 1])  # an arrival the clock never leaves
        assert called(server.model, "idle_for", times=2).wait(WAIT)
        assert client.status()["trainer"]["yields"] > trainer["yields"]
        assert client.health()["trainer"]["yields"] > trainer["yields"]

    def test_status_without_a_trainer(self, client):
        trainer = client.status()["trainer"]
        assert trainer["replay_lag_s"] is None
        assert trainer["yields"] == 0

    @pytest.mark.parametrize(
        "handler, transport, request_it",
        [
            ("_handle_prediction_batch", "json",
             lambda c: c.predict_candidates(0, [0, 1, 2])),
            ("_frame_predict_batch", "binary",
             lambda c: c.predict_candidates(0, [0, 1, 2])),
            ("_handle_observation", "json",
             lambda c: c.report_observation(0, 1, value=2.0, timestamp=1.0)),
            ("_handle_observation", "binary",
             lambda c: c.report_observation(0, 1, value=2.0, timestamp=1.0)),
            ("_handle_credence", "json", lambda c: c.credence([0, 1])),
        ],
    )
    def test_a_data_plane_request_in_flight_freezes_replay(
        self, replaying, clock, called, handler, transport, request_it
    ):
        server, client = replaying
        entered, release = _blocking(server, handler)
        other = PredictionClient(server.address, transport=transport)
        caller = threading.Thread(target=request_it, args=(other,))
        caller.start()
        try:
            assert entered.wait(WAIT)
            # (A slice begun before the request is accounted by now.)
            turn = (called, server, client, clock)
            frozen, yields = self._after_an_idle_second(*turn)
            sliced = called(server.model, "replay_many")
            for __ in range(3):
                replays, more_yields = self._after_an_idle_second(*turn)
                assert replays == frozen
                assert more_yields > yields
                yields = more_yields
            assert not sliced.is_set()
        finally:
            release.set()
            caller.join(WAIT)
            other.close()
        assert not caller.is_alive()
        # Once the reply is out and the stream idle, replay resumes unasked.
        clock.advance(1.0)
        assert sliced.wait(WAIT)

    @pytest.mark.parametrize("path", ["/status", "/metrics"])
    def test_a_control_plane_request_is_not_an_arrival(self, replaying, called, path):
        server, client = replaying
        if path == "/status":
            entered, release = _blocking(server, "_handle_status")
        else:
            registry = types.SimpleNamespace(render=server.metrics.render)
            entered, release = _blocking(registry, "render")
            server.metrics = registry
        other = PredictionClient(server.address, transport="json")
        caller = threading.Thread(
            target=other.status if path == "/status" else other.metrics
        )
        caller.start()
        try:
            assert entered.wait(WAIT)
            # The scrape is in flight, and the trainer takes slices anyway.
            assert called(server.model, "replay_many", times=3).wait(WAIT)
        finally:
            release.set()
            caller.join(WAIT)
            other.close()
        assert not caller.is_alive()

    def test_replay_lag_grows_under_a_closed_loop_and_falls_back(
        self, replaying, clock, called
    ):
        server, client = replaying
        # Idle for a (hand-moved) second: the trainer replays.
        clock.advance(1.0)
        assert called(server.model, "replay_many").wait(WAIT)
        assert called(server.model, "idle_for").wait(WAIT)  # slice accounted
        trainer = client.status()["trainer"]
        lag, yields = trainer["replay_lag_s"], trainer["yields"]
        # A closed loop: each request follows the last reply within the
        # quiet interval, so every turn of the trainer's loop is a yield.
        sliced = called(server.model, "replay_many")
        for k in range(40):
            client.predict_candidates(k % 5, [0, 1, 2, 3])
            clock.advance(QUIET_SECONDS * 0.4)
            if k % 10 == 9:
                assert called(server.model, "idle_for", times=2).wait(WAIT)
                trainer = client.status()["trainer"]
                assert trainer["replay_lag_s"] > lag
                assert trainer["yields"] > yields
                lag, yields = trainer["replay_lag_s"], trainer["yields"]
        assert not sliced.is_set()
        assert lag >= 40 * QUIET_SECONDS * 0.4 * 0.99
        # The loop stops; the stream goes idle; replay catches up unasked.
        clock.advance(1.0)
        assert sliced.wait(WAIT)
        assert called(server.model, "idle_for").wait(WAIT)
        assert client.status()["trainer"]["replay_lag_s"] < lag


class TestBatchSourceCounters:
    def test_spilled_candidates_count_once_per_source(self):
        """A tiered ranking is mostly fallbacks: ``qos_predictions_total``
        moves by exactly the per-source counts of the reply."""
        family = get_registry().counter(
            "qos_predictions_total", labelnames=("source",)
        )
        with PredictionServer(
            AMFConfig.for_response_time(),
            rng=0,
            background_replay=False,
            lifecycle=LifecycleConfig(hot_users=4, hot_services=4),
        ) as server:
            client = PredictionClient(server.address)
            for k in range(48):
                client.report_observation(
                    k % 3, k % 12, value=1.0 + k % 4, timestamp=float(k)
                )
            assert server._lifecycle_status()["demoted_services"] > 0
            ids = list(range(12)) + [500, 501]
            sources_seen = set()
            for transport in ("binary", "json"):
                asking = PredictionClient(server.address, transport=transport)
                before = {
                    labels: child.value for labels, child in family.children()
                }
                reply = asking.predict_candidates_detailed(1, ids)
                expected = Counter(reply["sources"].values())
                moved = {
                    labels: child.value - before.get(labels, 0.0)
                    for labels, child in family.children()
                }
                assert {k: v for k, v in moved.items() if v} == {
                    (source,): float(count) for source, count in expected.items()
                }
                sources_seen |= set(expected)
                asking.close()
            assert "model" in sources_seen and len(sources_seen) >= 2
            client.close()
