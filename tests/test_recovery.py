"""Crash-recovery and supervision tests.

Three layers:

* exact recovery — checkpoint + WAL-tail replay reproduces the
  uninterrupted model bit-for-bit (property-style over seeds and crash
  points, using the server's real ingestion path without HTTP);
* server-level kill-and-restart through HTTP, via the fault-injection
  harness, with and without a hostile stream;
* trainer supervision — a crashed replay thread is restarted with the
  failure visible in ``/status`` and ``/health``, and ``stop()`` leaves a
  consistent state even when the join times out.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core import (
    AdaptiveMatrixFactorization,
    AMFConfig,
    BackgroundTrainer,
    ConcurrentModel,
    TrainerSupervisor,
)
from repro.datasets.schema import QoSRecord
from repro.robustness import GateConfig
from repro.server import PredictionClient, PredictionServer
from repro.simulation import FaultConfig, run_crash_recovery


def make_stream(n, seed, n_users=20, n_services=40):
    """Entity spaces deliberately larger than the stream can saturate early:
    new users/services keep appearing late, so recovered runs must draw
    their init vectors from the *restored* RNG stream to stay exact."""
    rng = np.random.default_rng(seed)
    return [
        QoSRecord(
            timestamp=float(k),
            user_id=int(rng.integers(n_users)),
            service_id=int(rng.integers(n_services)),
            value=float(rng.uniform(0.05, 5.0)),
        )
        for k in range(n)
    ]


def ingest(server, records):
    """Drive the server's real ingestion path (WAL + checkpointing) without
    paying for HTTP round-trips."""
    for record in records:
        server._handle_observation(
            {
                "timestamp": record.timestamp,
                "user_id": record.user_id,
                "service_id": record.service_id,
                "value": record.value,
            }
        )


class TestExactRecovery:
    """Recovered model == uninterrupted model, exactly — the durability
    contract, checked at every layer of model state."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("crash_after", [0, 5, 52, 100])
    def test_checkpoint_plus_wal_replay_is_exact(self, tmp_path, seed, crash_after):
        records = make_stream(100, seed)
        args = dict(rng=seed, background_replay=False, checkpoint_interval=13)

        server = PredictionServer(data_dir=str(tmp_path), **args)
        ingest(server, records[:crash_after])
        server.kill()  # no final checkpoint — the kill -9 state

        recovered = PredictionServer(data_dir=str(tmp_path), **args)
        info = recovered.recovery
        assert info["checkpoint_seq"] + info["wal_replayed"] == crash_after
        assert info["checkpoint_seq"] == (crash_after // 13) * 13
        assert info["torn_lines"] == 0
        ingest(recovered, records[crash_after:])

        baseline = PredictionServer(**args)
        ingest(baseline, records)

        assert recovered.model.updates_applied == baseline.model.updates_applied
        assert recovered.model.n_stored_samples == baseline.model.n_stored_samples
        np.testing.assert_array_equal(
            recovered.model.user_factors(), baseline.model.user_factors()
        )
        np.testing.assert_array_equal(
            recovered.model.service_factors(), baseline.model.service_factors()
        )
        np.testing.assert_array_equal(
            recovered.model.predict_matrix(), baseline.model.predict_matrix()
        )
        recovered.kill()

    def test_double_crash(self, tmp_path):
        """Crash, recover, crash again before any new checkpoint, recover:
        no observation lost or duplicated across either boundary."""
        records = make_stream(90, seed=3)
        args = dict(rng=3, background_replay=False, checkpoint_interval=40)

        first = PredictionServer(data_dir=str(tmp_path), **args)
        ingest(first, records[:50])
        first.kill()
        second = PredictionServer(data_dir=str(tmp_path), **args)
        ingest(second, records[50:70])
        second.kill()
        third = PredictionServer(data_dir=str(tmp_path), **args)
        ingest(third, records[70:])

        baseline = PredictionServer(**args)
        ingest(baseline, records)
        assert third.model.updates_applied == baseline.model.updates_applied
        np.testing.assert_array_equal(
            third.model.predict_matrix(), baseline.model.predict_matrix()
        )
        third.kill()

    def test_graceful_stop_checkpoints_everything(self, tmp_path):
        """After stop(), restart replays nothing: the final checkpoint
        covers the whole WAL."""
        records = make_stream(30, seed=4)
        args = dict(rng=4, background_replay=False, checkpoint_interval=1000)
        server = PredictionServer(data_dir=str(tmp_path), **args)
        ingest(server, records)
        server.stop()
        restarted = PredictionServer(data_dir=str(tmp_path), **args)
        assert restarted.recovery["wal_replayed"] == 0
        assert restarted.recovery["checkpoint_seq"] == 30
        assert restarted.model.updates_applied == server.model.updates_applied
        restarted.kill()

    def test_observes_acknowledged_after_a_torn_tail_survive_the_next_crash(
        self, tmp_path
    ):
        """Kill a keyed server, tear its active segment the way a crash
        mid-write does, restart it and acknowledge more observes, then kill
        and restart again: every acknowledged observe is applied, the model
        is bit-equal to a server that never crashed, and no seq was handed
        out twice."""
        records = make_stream(60, seed=6)
        keyed = [
            {"timestamp": r.timestamp, "user_id": r.user_id,
             "service_id": r.service_id, "value": r.value, "idempotency_key": f"k:{i}"}
            for i, r in enumerate(records)
        ]
        args = dict(rng=6, background_replay=False, checkpoint_interval=1000)
        first = PredictionServer(data_dir=str(tmp_path), **args)
        for payload in keyed[:40]:
            first._handle_observation(payload)
        first.kill()
        (segment,) = tmp_path.glob("wal-*.jsonl")
        data = segment.read_bytes()
        with open(segment, "r+b") as handle:  # an observe cut mid-line
            handle.seek(data.index(b"\0") if b"\0" in data else len(data))
            handle.write(b'{"seq": 41, "t": 40.0, "u"')

        second = PredictionServer(data_dir=str(tmp_path), **args)
        assert second.recovery["torn_lines"] == 1
        assert second.wal_last_seq == 40
        for payload in keyed[40:]:
            assert second._handle_observation(payload)["action"] == "admit"
        second.kill()

        third = PredictionServer(data_dir=str(tmp_path), **args)
        baseline = PredictionServer(**args)
        for payload in keyed:
            baseline._handle_observation(payload)
        assert third.recovery == {
            "checkpoint_seq": 0, "wal_replayed": 60, "torn_lines": 0
        }
        assert third.model.updates_applied == baseline.model.updates_applied == 60
        np.testing.assert_array_equal(
            third.model.user_factors(), baseline.model.user_factors()
        )
        np.testing.assert_array_equal(
            third.model.service_factors(), baseline.model.service_factors()
        )
        assert third.ledger.state_dict() == baseline.ledger.state_dict()
        logged = [seq for __, seq, __, __ in third._wal.replay_entries()]
        assert logged == list(range(1, 61))  # no seq reused
        third.kill()

    def test_recovery_seeds_fallback_state(self, tmp_path):
        """Degraded-mode running means survive a crash too (rebuilt from the
        recovered sample store)."""
        args = dict(rng=0, background_replay=False, checkpoint_interval=10)
        server = PredictionServer(data_dir=str(tmp_path), **args)
        ingest(server, [QoSRecord(timestamp=1.0, user_id=0, service_id=0, value=4.0)])
        server.kill()
        recovered = PredictionServer(data_dir=str(tmp_path), **args)
        assert recovered.fallback.observations == 1
        result = recovered.fallback.predict(0, 999)
        assert result.source == "user_mean"
        assert result.value == pytest.approx(4.0)
        recovered.kill()


class TestServerCrashRecovery:
    """End-to-end over HTTP via the fault-injection harness."""

    def test_kill_and_restart_matches_baseline(self, tmp_path):
        records = make_stream(120, seed=0)
        report = run_crash_recovery(
            records, crash_after=70, data_dir=str(tmp_path), checkpoint_interval=25
        )
        assert report.matches, report.summary()
        assert report.detail["updates_applied"] == 120
        assert report.detail["recovery"]["checkpoint_seq"] == 50
        assert report.detail["recovery"]["wal_replayed"] == 20

    def test_recovery_under_hostile_stream(self, tmp_path):
        """Drops/duplicates/reorders/corruption before the crash change the
        stream, not the recovery guarantee: both runs see the same mangled
        stream and still agree exactly."""
        records = make_stream(120, seed=1)
        report = run_crash_recovery(
            records,
            crash_after=60,
            data_dir=str(tmp_path),
            checkpoint_interval=20,
            faults=FaultConfig(
                drop_rate=0.1, duplicate_rate=0.05, reorder_rate=0.05,
                corrupt_rate=0.05, corrupt_factor=100.0,
            ),
        )
        assert report.matches, report.summary()

    def test_crash_before_first_checkpoint(self, tmp_path):
        report = run_crash_recovery(
            records=make_stream(40, seed=2),
            crash_after=15,
            data_dir=str(tmp_path),
            checkpoint_interval=1000,  # never reached: recovery is WAL-only
        )
        assert report.matches, report.summary()
        assert report.detail["recovery"]["checkpoint_seq"] == 0
        assert report.detail["recovery"]["wal_replayed"] == 15

    def test_recovery_with_gate_active_is_bit_exact(self, tmp_path):
        """The gate is deterministic state: a kill mid-stream with the
        outlier gate on (and a corrupting stream exercising every decision
        path) must still reproduce the baseline decisions, model, and a
        byte-identical checkpoint archive."""
        records = make_stream(120, seed=5)
        report = run_crash_recovery(
            records,
            crash_after=70,
            data_dir=str(tmp_path / "crash"),
            checkpoint_interval=25,
            faults=FaultConfig(corrupt_rate=0.1, corrupt_factor=500.0),
            server_kwargs=dict(gate=GateConfig(warmup=4)),
            baseline_data_dir=str(tmp_path / "baseline"),
        )
        assert report.matches, report.summary()
        digests = report.detail["checkpoint_digests"]
        assert digests["recovered"] == digests["baseline"]
        # The corrupting stream actually drove the gate off the admit path.
        counts = report.detail["gate_counts"]
        assert counts["quarantined"] > 0
        assert counts["admitted"] > 0

    def test_a_lone_surrogate_key_checkpoints_and_restores(self, tmp_path):
        """An idempotency key is any JSON string, and ``"\\ud800"`` decodes
        to a lone surrogate.  The ledger checkpoints and restores it like
        any other key; it must not make every later checkpoint fail."""
        args = dict(rng=0, background_replay=False, data_dir=str(tmp_path))
        body = (
            b'{"timestamp": 1.0, "user_id": 0, "service_id": 0, "value": 1.0,'
            b' "idempotency_key": "\\ud800"}'
        )
        with PredictionServer(**args) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=10.0)
            try:
                conn.request("POST", "/observations", body=body)
                response = conn.getresponse()
                assert response.status == 200, response.read()
                assert json.loads(response.read())["action"] == "admit"
            finally:
                conn.close()
            server.checkpoint()
            ledger = server.ledger.state_dict()
        assert ledger["keys"] == ["\ud800"]

        restarted = PredictionServer(**args)
        assert restarted.recovery == {
            "checkpoint_seq": 1, "wal_replayed": 0, "torn_lines": 0
        }
        assert restarted.ledger.state_dict() == ledger
        repeat = json.loads(body)  # the same key, decoded the same way
        assert restarted._handle_observation(repeat)["action"] == "deduplicated"
        restarted.kill()


def _flaky_replay(model, crashes):
    """Wrap a ConcurrentModel's replay so its first ``crashes`` calls die —
    the moral equivalent of a faulty retained sample poisoning the replay
    batch."""
    original = model.replay_many
    remaining = {"n": crashes}

    def replay_many(now, count, kernel=None):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise ValueError("corrupt sample in replay batch")
        return original(now, count, kernel=kernel)

    model.replay_many = replay_many


def _wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestTrainerSupervision:
    def _shared_model(self):
        model = ConcurrentModel(AdaptiveMatrixFactorization(rng=0))
        for k in range(20):
            model.observe(
                QoSRecord(timestamp=float(k), user_id=k % 3, service_id=k % 5,
                          value=1.0)
            )
        return model

    def test_supervisor_restarts_crashed_trainer(self):
        model = self._shared_model()
        _flaky_replay(model, crashes=2)
        trainer = BackgroundTrainer(model)
        supervisor = TrainerSupervisor(
            trainer, check_interval=0.01, backoff_base=0.01, backoff_max=0.05
        )
        with supervisor:
            assert _wait_for(
                lambda: trainer.crash_count == 2
                and trainer.running
                and trainer.replays_applied > 0
            )
            health = supervisor.health()
        assert health["running"]
        assert health["supervised"]
        assert health["crashes"] == 2
        assert health["restarts"] >= 2
        assert "corrupt sample" in health["last_failure"]

    def test_stop_does_not_resurrect(self):
        model = self._shared_model()
        _flaky_replay(model, crashes=1)
        supervisor = TrainerSupervisor(
            BackgroundTrainer(model), check_interval=0.01, backoff_base=0.01
        )
        supervisor.start()
        assert _wait_for(lambda: supervisor.restarts >= 1)
        supervisor.stop()
        assert not supervisor.running
        assert not supervisor.trainer.running
        time.sleep(0.1)  # were the monitor still alive, it could restart here
        assert not supervisor.trainer.running

    def test_unsupervised_crash_is_recorded_but_not_restarted(self):
        model = self._shared_model()
        _flaky_replay(model, crashes=1)
        trainer = BackgroundTrainer(model)
        trainer.start()
        assert _wait_for(lambda: trainer.crash_count == 1 and not trainer.running)
        assert isinstance(trainer.failure, ValueError)
        trainer.stop()  # cleans up the dead thread reference

    def test_stop_timeout_leaves_consistent_state(self):
        """A join timeout raises, but the trainer is still 'stopped': running
        is False and repeated stop() is a no-op (the former behavior left
        ``_thread`` set, so the object looked half-running forever)."""
        model = self._shared_model()
        original = model.replay_many
        release = threading.Event()

        def stuck_replay(now, count, kernel=None):
            release.wait(5.0)
            return original(now, count, kernel=kernel)

        model.replay_many = stuck_replay
        trainer = BackgroundTrainer(model)
        trainer.start()
        assert _wait_for(lambda: trainer.running)
        time.sleep(0.05)  # let the worker enter the stuck replay call
        with pytest.raises(TimeoutError, match="abandoned"):
            trainer.stop(timeout=0.05)
        assert not trainer.running
        trainer.stop()  # repeated stop: no-op, no exception
        trainer.stop()
        release.set()

    def test_stop_before_start_is_noop(self):
        trainer = BackgroundTrainer(self._shared_model())
        trainer.stop()
        assert not trainer.running

    def test_restart_after_stop(self):
        trainer = BackgroundTrainer(self._shared_model())
        trainer.start()
        trainer.stop()
        trainer.start()
        assert trainer.running
        trainer.stop()


class TestTrainerCrashOverHTTP:
    def test_crash_surfaces_in_status_and_health_and_recovers(self):
        """Acceptance scenario: a trainer-thread crash is auto-restarted,
        and the failure is visible through /status and /health."""
        server = PredictionServer(rng=0, background_replay=True, supervise=True)
        # Fast supervision for test time; production defaults are larger.
        server.supervisor = TrainerSupervisor(
            server.trainer, check_interval=0.01, backoff_base=0.01
        )
        _flaky_replay(server.model, crashes=1)
        with server:
            client = PredictionClient(server.address)
            for k in range(10):
                client.report_observation(k % 2, k % 3, 1.0, float(k))
            assert _wait_for(
                lambda: server.trainer.crash_count >= 1 and server.trainer.running
            )
            status = client.status()["trainer"]
            assert status["supervised"]
            assert status["crashes"] >= 1
            assert status["restarts"] >= 1
            assert status["running"]
            assert "corrupt sample" in status["last_failure"]
            health = client.health()
            assert health["status"] == "ok"  # restarted: ready again
            assert health["checks"]["trainer_alive"]
            assert health["trainer"]["crashes"] >= 1
            # And the restarted trainer actually trains.
            assert _wait_for(lambda: server.trainer.replays_applied > 0)

    def test_dead_unsupervised_trainer_fails_health(self):
        server = PredictionServer(rng=0, background_replay=True, supervise=False)
        _flaky_replay(server.model, crashes=10**9)  # every replay dies
        with server:
            client = PredictionClient(server.address)
            for k in range(10):
                client.report_observation(k % 2, k % 3, 1.0, float(k))
            assert _wait_for(
                lambda: server.trainer.crash_count >= 1 and not server.trainer.running
            )
            health = client.health()
            assert health["status"] == "unavailable"
            assert not health["checks"]["trainer_alive"]
            assert health["trainer"]["crashes"] >= 1
