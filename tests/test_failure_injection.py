"""Failure-injection tests: the system under hostile or degenerate inputs.

These exercise the paths an operator actually hits: corrupt observations,
extreme QoS values, services vanishing between decision and application,
oracles failing mid-run, pathological streams — and, at the serving layer,
malformed/oversized/truncated HTTP requests, flaky upstreams, poisoned
factor matrices, and lossy delivery (via the fault-injection harness).
The contract under test is always one of: a clean, descriptive error;
graceful skipping; or documented degraded behavior — never silent
corruption.
"""

import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.adaptation import (
    SLA,
    AbstractTask,
    ExecutionEngine,
    QoSPredictionService,
    ServiceRegistry,
    TensorQoSOracle,
    ThresholdPolicy,
    Workflow,
)
from repro.adaptation.policies import AdaptationAction, AdaptationPolicy
from repro.core import AdaptiveMatrixFactorization, AMFConfig, StreamTrainer
from repro.datasets import generate_dataset
from repro.datasets.schema import QoSRecord
from repro.server import (
    PredictionClient,
    PredictionServer,
    RetryableServiceError,
    TerminalServiceError,
)
from repro.simulation import FaultConfig, FaultInjector, drive_client


def record(u, s, value, t=0.0):
    return QoSRecord(timestamp=t, user_id=u, service_id=s, value=value)


class TestHostileObservations:
    def test_nan_value_rejected_at_record_boundary(self):
        with pytest.raises(ValueError, match="finite"):
            record(0, 0, float("nan"))

    def test_inf_value_rejected_at_record_boundary(self):
        with pytest.raises(ValueError, match="finite"):
            record(0, 0, float("inf"))

    def test_negative_qos_clamped_not_propagated(self):
        """Negative raw values (clock skew artifacts) clamp to the floor
        instead of poisoning the transform."""
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        model.observe(record(0, 0, -5.0))
        assert np.isfinite(model.predict(0, 0))

    def test_value_beyond_rmax_clamped(self):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        for __ in range(50):
            model.observe(record(0, 0, 1e9))
        assert model.predict(0, 0) <= 20.0

    def test_alternating_extremes_stay_finite(self):
        """A flapping service (floor <-> ceiling) must not blow up factors."""
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        for k in range(500):
            model.observe(record(0, 0, 20.0 if k % 2 else 0.001, t=float(k)))
        assert np.all(np.isfinite(model.user_factors()))
        assert 0.0 <= model.predict(0, 0) <= 20.0

    def test_single_user_monoculture(self):
        """All observations from one user: no division blow-ups anywhere."""
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        for s in range(100):
            model.observe(record(0, s, 0.5 + 0.01 * s))
        trainer = StreamTrainer(model)
        report = trainer.replay_until_converged(now=0.0)
        assert np.isfinite(report.final_error)

    def test_out_of_order_timestamps_accepted(self):
        """Late-arriving (older) samples are data, not errors."""
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        model.observe(record(0, 0, 1.0, t=1000.0))
        model.observe(record(0, 1, 1.0, t=10.0))  # older than the previous
        assert model.n_stored_samples == 2


class TestAdaptationFailures:
    def _world(self):
        data = generate_dataset(n_users=4, n_services=6, n_slices=2, seed=0)
        registry = ServiceRegistry()
        for sid in range(6):
            registry.register(sid, "t")
        workflow = Workflow(name="w", tasks=[AbstractTask("A", "t")])
        workflow.bind("A", 0)
        predictor = QoSPredictionService(AMFConfig.for_response_time(), rng=0)
        sla = SLA(attribute="rt", threshold=1.0)
        return data, registry, workflow, predictor, sla

    def test_candidate_vanishes_between_decision_and_application(self):
        """The engine must skip an adaptation whose target was deregistered
        after the policy decided."""
        data, registry, workflow, predictor, sla = self._world()

        class VanishingTarget(AdaptationPolicy):
            def on_observation(self, user_id, workflow, task_name, observed_value,
                               now, registry, predictor):
                registry.deregister(3)  # decision target disappears...
                return AdaptationAction(
                    task_name=task_name,
                    old_service_id=workflow.bound_service(task_name),
                    new_service_id=3,  # ...right before this is applied
                    reason="test",
                    decided_at=now,
                )

        engine = ExecutionEngine(
            user_id=0,
            workflow=workflow,
            registry=registry,
            predictor=predictor,
            policy=VanishingTarget(),
            oracle=TensorQoSOracle(data, noise_sigma=0.0, rng=0),
            sla=sla,
        )
        engine.execute_once(now=0.0)
        assert engine.stats.adaptations == 0
        assert workflow.bound_service("A") == 0  # binding untouched

    def test_all_candidates_deregistered_mid_run(self):
        data, registry, workflow, predictor, sla = self._world()
        policy = ThresholdPolicy(sla, window=2, min_violations=1, improvement_margin=0.0)
        engine = ExecutionEngine(
            user_id=0,
            workflow=workflow,
            registry=registry,
            predictor=predictor,
            policy=policy,
            oracle=TensorQoSOracle(data, noise_sigma=0.0, rng=0),
            sla=sla,
        )
        for sid in range(1, 6):
            registry.deregister(sid)
        stats = engine.run(start=0.0, interval=10.0, count=20)
        assert stats.executions == 20  # keeps running on the only binding
        assert stats.adaptations == 0

    def test_oracle_failure_propagates_cleanly(self):
        """A broken ground-truth source is a hard error, not silent zeros."""
        data, registry, workflow, predictor, sla = self._world()

        class BrokenOracle(TensorQoSOracle):
            def value(self, user_id, service_id, now):
                raise ConnectionError("measurement backend down")

        engine = ExecutionEngine(
            user_id=0,
            workflow=workflow,
            registry=registry,
            predictor=predictor,
            policy=ThresholdPolicy(sla),
            oracle=BrokenOracle(data, rng=0),
            sla=sla,
        )
        with pytest.raises(ConnectionError, match="backend down"):
            engine.execute_once(now=0.0)
        assert engine.stats.executions == 0  # nothing half-counted

    def test_policy_exception_propagates(self):
        data, registry, workflow, predictor, sla = self._world()

        class BrokenPolicy(AdaptationPolicy):
            def on_observation(self, *args, **kwargs):
                raise RuntimeError("policy bug")

        engine = ExecutionEngine(
            user_id=0,
            workflow=workflow,
            registry=registry,
            predictor=predictor,
            policy=BrokenPolicy(),
            oracle=TensorQoSOracle(data, noise_sigma=0.0, rng=0),
            sla=sla,
        )
        with pytest.raises(RuntimeError, match="policy bug"):
            engine.execute_once(now=0.0)


class TestDegenerateTraining:
    def test_empty_stream_trainer_process(self):
        model = AdaptiveMatrixFactorization(rng=0)
        report = StreamTrainer(model).process([])
        assert report.arrivals == 0
        assert report.epochs == 0

    def test_single_sample_training(self):
        model = AdaptiveMatrixFactorization(rng=0)
        report = StreamTrainer(model).process([record(0, 0, 1.0)])
        assert report.arrivals == 1
        assert np.isfinite(model.predict(0, 0))

    def test_duplicate_heavy_stream(self):
        """1000 samples, all the same pair: store holds 1, training sane."""
        model = AdaptiveMatrixFactorization(rng=0)
        StreamTrainer(model).process(
            [record(0, 0, 2.0, t=float(k)) for k in range(1000)]
        )
        assert model.n_stored_samples == 1
        assert model.predict(0, 0) == pytest.approx(2.0, rel=0.3)

    def test_everything_expires_mid_training(self):
        model = AdaptiveMatrixFactorization(AMFConfig(expiry_seconds=5.0), rng=0)
        trainer = StreamTrainer(model)
        trainer.consume([record(k % 3, k % 4, 1.0, t=0.0) for k in range(30)])
        report = trainer.replay_until_converged(now=1000.0)
        assert model.n_stored_samples == 0
        assert np.isfinite(report.final_error) or np.isnan(report.final_error)


# ---------------------------------------------------------------------------
# Serving-layer faults
# ---------------------------------------------------------------------------


@pytest.fixture
def server():
    with PredictionServer(rng=0, background_replay=False) as srv:
        yield srv


def _post_raw(address, path, body: bytes, content_length: "int | None" = None):
    """POST arbitrary bytes, returning (status, parsed JSON body)."""
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    if content_length is not None:
        request.add_header("Content-Length", str(content_length))
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHostileRequests:
    def test_malformed_json_is_a_clean_400(self, server):
        status, body = _post_raw(server.address, "/observations", b"{not json!!")
        assert status == 400
        assert "invalid JSON" in body["error"]
        # The server is still fully functional afterwards.
        assert PredictionClient(server.address).status()["observations_handled"] == 0

    def test_non_object_json_rejected(self, server):
        status, body = _post_raw(server.address, "/observations", b"[1, 2, 3]")
        assert status == 400
        assert "must be an object" in body["error"]

    def test_oversized_body_rejected_with_413(self, monkeypatch):
        monkeypatch.setattr(PredictionServer, "max_body_bytes", 512)
        with PredictionServer(rng=0, background_replay=False) as srv:
            big = json.dumps({"observations": [{"x": "y" * 600}]}).encode()
            status, body = _post_raw(srv.address, "/observations/batch", big)
            assert status == 413
            assert "exceeds limit" in body["error"]
            # The typed client surfaces it as terminal (retrying cannot help).
            client = PredictionClient(srv.address)
            with pytest.raises(TerminalServiceError, match="413"):
                client.report_observations_detailed(
                    [{"timestamp": 0.0, "user_id": 0, "service_id": 0,
                      "value": 1.0}] * 50
                )

    def test_connection_drop_mid_request(self, server):
        """A client that dies after the headers (Content-Length promised,
        body never sent) must not wedge or kill the server."""
        host, port = server.address
        for __ in range(3):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(
                b"POST /observations HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 4096\r\n\r\n{\"trunc"
            )
            sock.close()
        client = PredictionClient(server.address)
        client.report_observation(0, 0, 1.0, 0.0)
        assert client.status()["observations_handled"] == 1

    def test_unexpected_handler_exception_is_a_json_500(self, server):
        server._handle_status = lambda: 1 / 0  # simulate an internal bug
        client = PredictionClient(server.address, retries=0)
        with pytest.raises(RetryableServiceError, match="ZeroDivisionError"):
            client.status()
        # The failure was accounted and other routes still work.
        health = client.health()
        assert health["status"] == "ok"

    def test_batch_partial_apply_reports_per_item_outcomes(self, server):
        client = PredictionClient(server.address)
        outcome = client.report_observations_detailed(
            [
                {"timestamp": 0.0, "user_id": 0, "service_id": 0, "value": 1.0},
                {"timestamp": 0.0, "user_id": 0, "service_id": 1},  # no value
                "not an object",
                {"timestamp": 0.0, "user_id": -1, "service_id": 0, "value": 1.0},
                {"timestamp": 1.0, "user_id": 1, "service_id": 1, "value": 2.0},
            ]
        )
        assert outcome["accepted"] == 2
        assert [item["index"] for item in outcome["rejected"]] == [1, 2, 3]
        assert "value" in outcome["rejected"][0]["error"]
        # Good records around the bad ones were applied, not rolled back.
        status = client.status()
        assert status["observations_handled"] == 2
        assert status["observations_rejected"] == 3


class TestDegradedPredictions:
    def test_cold_server_serves_prior_not_error(self, server):
        client = PredictionClient(server.address)
        result = client.predict_detailed(5, 7)
        assert result["source"] == "prior"
        assert np.isfinite(result["prediction"])

    def test_unknown_service_degrades_to_user_mean(self, server):
        client = PredictionClient(server.address)
        client.report_observation(0, 0, 4.0, 0.0)
        result = client.predict_detailed(0, 999)
        assert result["source"] == "user_mean"
        assert result["prediction"] == pytest.approx(4.0)

    def test_unknown_queries_do_not_grow_the_model(self, server):
        client = PredictionClient(server.address)
        client.report_observation(0, 0, 1.0, 0.0)
        for sid in range(100, 200):
            client.predict_detailed(0, sid)
        assert server.model.n_services == 1  # hostile scans cost nothing

    def test_poisoned_factors_fail_health_and_degrade_predictions(self, server):
        client = PredictionClient(server.address)
        client.report_observation(0, 0, 3.0, 0.0)
        assert client.predict_detailed(0, 0)["source"] == "model"

        def poison(m):
            m._user_factors.row(0)[:] = np.nan

        server.model.with_model(poison)
        health = client.health()
        assert health["status"] == "unavailable"
        assert not health["checks"]["model_finite"]
        # Predictions keep flowing from the fallback chain, flagged as such.
        result = client.predict_detailed(0, 0)
        assert result["source"] == "user_service_mean"
        assert result["prediction"] == pytest.approx(3.0)
        assert client.status()["degraded_predictions"] >= 1

        def heal(m):
            m._user_factors.reinitialize(0)

        server.model.with_model(heal)
        assert client.health()["status"] == "ok"
        assert client.predict_detailed(0, 0)["source"] == "model"

    @pytest.mark.parametrize("first", ["single", "json", "binary"])
    def test_poisoned_row_degrades_on_the_first_prediction(self, server, first):
        """Nobody polls ``/health`` here: the request that meets the poisoned
        row must itself notice, whichever request that is.  (The kernel used
        to turn a NaN row into ``value_max`` and serve it as a model answer.)"""
        client = PredictionClient(server.address)
        ids = [0, 1, 2]
        for service_id in ids:
            client.report_observation(0, service_id, 3.0, 0.0)

        def poison(m):
            m._user_factors.row(0)[:] = np.nan

        rankers = {
            transport: PredictionClient(server.address, transport=transport)
            for transport in ("json", "binary")
        }

        def rank(transport):
            reply = rankers[transport].predict_candidates_detailed(0, ids)
            assert reply["transport"] == transport
            return reply

        server.model.with_model(poison)
        if first == "single":
            assert client.predict_detailed(0, 0)["source"] == "user_service_mean"
        else:
            assert set(rank(first)["sources"].values()) == {"user_service_mean"}
        assert not server._model_healthy
        assert 0 not in server._predict_cache._users
        # ... and every later answer, of either kind, is flagged too.
        single = client.predict_detailed(0, 0)
        assert single["source"] == "user_service_mean"
        assert single["prediction"] == pytest.approx(3.0)
        for transport in ("json", "binary"):
            reply = rank(transport)
            assert set(reply["sources"].values()) == {"user_service_mean"}
            assert list(reply["predictions"].values()) == pytest.approx([3.0] * 3)
        assert 0 not in server._predict_cache._users

        def heal(m):
            m._user_factors.reinitialize(0)

        server.model.with_model(heal)
        assert client.health()["status"] == "ok"
        assert client.predict_detailed(0, 0)["source"] == "model"
        assert set(rank("binary")["sources"].values()) == {"model"}


class _FlakyUpstream:
    """A stub server that fails its first N requests with a given status."""

    def __init__(self, failures: int, status: int = 503):
        state = {"left": failures, "gets": 0, "posts": 0}
        self.state = state

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass

            def _reply(self):
                if state["left"] > 0:
                    state["left"] -= 1
                    code, body = status, {"error": "injected failure"}
                else:
                    code, body = 200, {"ok": True, "sample_error": 0.0}
                data = json.dumps(body).encode()
                self.send_response(code)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):
                state["gets"] += 1
                self._reply()

            def do_POST(self):
                state["posts"] += 1
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self._reply()

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()

    @property
    def address(self):
        return self.httpd.server_address[0], self.httpd.server_address[1]


class TestClientResilience:
    def _client(self, address, **overrides):
        # The fake upstreams speak HTTP only and count requests, so keep
        # the client's binary discovery (a GET /status) out of the tally.
        defaults = dict(
            retries=3, backoff=0.01, backoff_max=0.05, jitter=0.0, transport="json"
        )
        defaults.update(overrides)
        return PredictionClient(address, **defaults)

    def test_get_retries_through_transient_503s(self):
        with _FlakyUpstream(failures=2) as upstream:
            client = self._client(upstream.address)
            assert client.status() == {"ok": True, "sample_error": 0.0}
            assert upstream.state["gets"] == 3
            assert client.retries_performed == 2

    def test_retries_exhausted_raises_retryable(self):
        with _FlakyUpstream(failures=10**9) as upstream:
            client = self._client(upstream.address, retries=2)
            with pytest.raises(RetryableServiceError, match="503"):
                client.status()
            assert upstream.state["gets"] == 3  # 1 try + 2 retries, then give up

    def test_observation_posts_are_never_retried(self):
        """Re-reporting re-applies an SGD step — at-least-once delivery is
        the caller's decision, so the client must not retry on its own."""
        with _FlakyUpstream(failures=1) as upstream:
            client = self._client(upstream.address)
            with pytest.raises(RetryableServiceError):
                client.report_observation(0, 0, 1.0, 0.0)
            assert upstream.state["posts"] == 1

    def test_4xx_is_terminal_and_not_retried(self):
        with _FlakyUpstream(failures=5, status=404) as upstream:
            client = self._client(upstream.address)
            with pytest.raises(TerminalServiceError, match="404"):
                client.status()
            assert upstream.state["gets"] == 1

    def test_unreachable_server_is_retryable(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        client = self._client(("127.0.0.1", port), retries=0)
        with pytest.raises(RetryableServiceError, match="cannot reach"):
            client.status()


class TestFaultInjector:
    def _records(self, n=200):
        return [record(k % 5, k % 7, 1.0 + 0.01 * k, t=float(k)) for k in range(n)]

    def test_no_faults_is_identity(self):
        records = self._records()
        assert list(FaultInjector(records, FaultConfig(), rng=0)) == records

    def test_same_seed_same_stream(self):
        config = FaultConfig(drop_rate=0.2, duplicate_rate=0.1, reorder_rate=0.1,
                             corrupt_rate=0.1)
        first = list(FaultInjector(self._records(), config, rng=7))
        second = list(FaultInjector(self._records(), config, rng=7))
        assert first == second

    def test_drop_everything(self):
        injector = FaultInjector(self._records(50), FaultConfig(drop_rate=1.0), rng=0)
        assert list(injector) == []
        assert injector.counts["dropped"] == 50

    def test_duplicate_everything(self):
        injector = FaultInjector(
            self._records(50), FaultConfig(duplicate_rate=1.0), rng=0
        )
        delivered = list(injector)
        assert len(delivered) == 100
        assert delivered[0] == delivered[1]

    def test_corruption_scales_values_and_is_tagged(self):
        injector = FaultInjector(
            self._records(50), FaultConfig(corrupt_rate=1.0, corrupt_factor=10.0),
            rng=0,
        )
        events = [e for e in injector.events() if e.record is not None]
        assert all("corrupt" in e.faults for e in events)
        assert events[0].record.value == pytest.approx(10.0)

    def test_reorder_preserves_the_multiset(self):
        records = self._records(100)
        delivered = list(FaultInjector(records, FaultConfig(reorder_rate=0.5), rng=0))
        assert sorted(delivered, key=lambda r: r.timestamp) == records
        assert delivered != records  # something actually moved

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultConfig(stall_seconds=-1.0)

    def test_drive_client_survives_a_hostile_stream(self, server):
        """End to end: a mangled stream (including stalls) is absorbed;
        nothing raises, the model stays finite, tallies reconcile."""
        injector = FaultInjector(
            self._records(120),
            FaultConfig(drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.1,
                        corrupt_rate=0.1, corrupt_factor=1e6,
                        stall_rate=0.05, stall_seconds=0.0),
            rng=3,
        )
        client = PredictionClient(server.address)
        outcome = drive_client(client, injector)
        status = client.status()
        assert outcome["reported"] == status["observations_handled"]
        assert outcome["reported"] + outcome["rejected"] == injector.counts["delivered"]
        assert outcome["stalls"] == injector.counts["stalled"]
        assert server.model.is_finite()
