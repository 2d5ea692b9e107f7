"""Robustness layer tests: outlier gate, idempotent ingest, data hygiene.

Four layers:

* gate mechanics — admit / clip / quarantine / corroborated release /
  eviction decisions, and exact JSON round-trip of the gate state (the
  crash-recovery prerequisite);
* dedup ledger + timestamp policy semantics;
* accuracy — a gated :class:`StreamTrainer` on a tail-corrupted stream
  beats the ungated model against clean ground truth, and costs nothing
  on a clean one;
* server boundary over HTTP — NaN/±inf/negative values bounce with a
  structured 400 in both observation handlers, and idempotency keys
  deduplicate.
"""

import json
import math

import numpy as np
import pytest

from repro.core import AdaptiveMatrixFactorization, AMFConfig, StreamTrainer
from repro.datasets.schema import QoSRecord
from repro.metrics.errors import mae
from repro.robustness import (
    DedupLedger,
    GateConfig,
    SanitizerGate,
    StaleObservation,
    TimestampPolicy,
    apply_observation,
)
from repro.robustness import dedup
from repro.server import PredictionClient, PredictionServer
from repro.server.client import TerminalServiceError


class _TightGate(GateConfig):
    """Narrower bands than the shipped constants, so a handful of test
    samples reaches every decision."""

    clip_k, quarantine_k, min_spread, corroborate_tol = 2.0, 4.0, 0.1, 0.05


def identity_gate(warmup=2, quarantine_max=GateConfig.quarantine_max) -> SanitizerGate:
    """Gate over the identity normalization: test values ARE normalized
    values, so thresholds can be reasoned about directly."""
    config_class = type("_Gate", (_TightGate,), {"quarantine_max": quarantine_max})
    return SanitizerGate(config_class(warmup=warmup, ema=0.5), lambda v: v, lambda v: v)


def rec(value, user=0, service=0, t=0.0) -> QoSRecord:
    return QoSRecord(timestamp=t, user_id=user, service_id=service, value=value)


def warm(gate, value=0.5, n=2, user=0, service=0):
    """Feed ``n`` identical samples: with warmup=2 the entity bands settle
    at center=value, spread=min_spread."""
    for k in range(n):
        decision = gate.process(rec(value, user=user, service=service, t=float(k)))
        assert decision.action == "admit"


class TestGateDecisions:
    def test_warmup_admits_everything(self):
        gate = identity_gate(warmup=3)
        for value in (0.5, 0.01, 0.99):  # wildly inconsistent, all admitted
            assert gate.process(rec(value)).action == "admit"
        assert gate.counts["admitted"] == 3

    def test_in_band_admit(self):
        gate = identity_gate()
        warm(gate)
        decision = gate.process(rec(0.55, t=2.0))
        assert decision.action == "admit"
        assert decision.value == 0.55
        assert decision.score == pytest.approx(0.5)  # |0.55-0.5| / 0.1

    def test_out_of_band_clip(self):
        gate = identity_gate()
        warm(gate)
        # score 2.5: past clip_k=2, short of quarantine_k=4.  The band is
        # center ± clip_k * spread = [0.3, 0.7].
        decision = gate.process(rec(0.75, t=2.0))
        assert decision.action == "clip"
        assert decision.value == pytest.approx(0.7)
        assert gate.counts["clipped"] == 1

    def test_wild_value_quarantined_not_applied(self):
        gate = identity_gate()
        warm(gate)
        decision = gate.process(rec(0.95, t=2.0))
        assert decision.action == "quarantine"
        assert decision.released == []
        assert gate.quarantine_size == 1
        # Quarantine must not move the entity bands: a follow-up in-band
        # sample is still judged against the old center.
        assert gate.process(rec(0.5, t=3.0)).action == "admit"

    def test_corroborated_release(self):
        gate = identity_gate()
        warm(gate)
        assert gate.process(rec(0.95, t=2.0)).action == "quarantine"
        assert gate.process(rec(0.96, t=3.0)).action == "quarantine"
        decision = gate.process(rec(0.94, t=4.0))
        assert decision.action == "release"
        # The two held samples come back, oldest first; the current one is
        # the caller's to apply.
        assert [r.value for r in decision.released] == [0.95, 0.96]
        assert [r.timestamp for r in decision.released] == [2.0, 3.0]
        assert gate.quarantine_size == 0
        assert gate.counts["released"] == 3
        # The trackers chased the new level: the next extreme is in-band.
        assert gate.process(rec(0.95, t=5.0)).action in ("admit", "clip")

    def test_inconsistent_extreme_restarts_the_group(self):
        gate = identity_gate()
        warm(gate)
        assert gate.process(rec(0.95, t=2.0)).action == "quarantine"
        # 2.0 is extreme but nowhere near the pending 0.95 group: the group
        # was noise, drop it and start over from the new sample.
        assert gate.process(rec(2.0, t=3.0)).action == "quarantine"
        assert gate.counts["evicted"] == 1
        assert gate.quarantine_size == 1

    def test_bounded_quarantine_evicts_oldest_pair(self):
        gate = identity_gate(quarantine_max=2)
        for pair in range(3):
            warm(gate, user=pair, service=pair)
        for k, pair in enumerate(range(3)):
            gate.process(rec(0.95, user=pair, service=pair, t=10.0 + k))
        assert gate.quarantine_size == 2  # pair 0 aged out
        assert gate.counts["evicted"] == 1
        assert gate.counts["quarantined"] == 3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="warmup"):
            GateConfig(warmup=0)
        with pytest.raises(ValueError, match="ema"):
            GateConfig(ema=0.0)

    def test_single_sample_influence_is_bounded(self):
        """One clipped extreme moves the center by at most
        ema * clip_k * spread — the robustness invariant."""
        gate = identity_gate()
        warm(gate)
        center_before = gate._users[0].center
        spread_before = max(gate._users[0].spread, gate.config.min_spread)
        gate.process(rec(0.79, t=2.0))  # score 2.9: clipped
        moved = abs(gate._users[0].center - center_before)
        assert moved <= gate.config.ema * gate.config.clip_k * spread_before + 1e-12


class TestGateStateRoundTrip:
    def drive(self, gate, values, t0=0.0):
        return [
            gate.process(rec(v, t=t0 + k)).action for k, v in enumerate(values)
        ]

    def test_json_round_trip_preserves_future_decisions(self):
        history = [0.5, 0.5, 0.55, 0.75, 0.95, 0.96, 0.94, 0.5, 2.0, 0.45]
        future = [0.5, 0.93, 0.94, 0.95, 0.6, 3.0, 0.5, 0.97]
        original = identity_gate()
        self.drive(original, history)
        # The snapshot crosses JSON exactly as it does inside a checkpoint.
        snapshot = json.loads(json.dumps(original.state_dict()))
        restored = identity_gate()
        restored.restore(snapshot)
        assert restored.state_dict() == original.state_dict()
        assert restored.quarantine_size == original.quarantine_size
        assert restored.counts == original.counts
        # Identical futures: same decisions, bit-identical final state.
        assert (
            self.drive(restored, future, t0=100.0)
            == self.drive(original, future, t0=100.0)
        )
        assert restored.state_dict() == original.state_dict()


@pytest.fixture
def ledger_capacity(monkeypatch):
    """``ledger_capacity(n)``: fresh dedup ledgers hold ``n`` keys."""
    return lambda n: monkeypatch.setattr(dedup, "_CAPACITY", n)


class TestDedupLedger:
    def test_seen_and_add(self):
        ledger = DedupLedger()
        assert not ledger.seen("a")
        ledger.add("a")
        assert ledger.seen("a")
        assert len(ledger) == 1

    def test_bounded_eviction_is_fifo(self, ledger_capacity):
        ledger_capacity(2)
        ledger = DedupLedger()
        for key in ("a", "b", "c"):
            ledger.add(key)
        assert not ledger.seen("a")  # evicted: a very late retry re-applies
        assert ledger.seen("b") and ledger.seen("c")

    def test_state_round_trip(self, ledger_capacity):
        ledger_capacity(4)
        ledger = DedupLedger()
        for key in ("x", "y", "z"):
            ledger.add(key)
        ledger_capacity(65536)
        clone = DedupLedger()
        clone.restore(json.loads(json.dumps(ledger.state_dict())))
        assert clone.capacity == 4
        assert clone.state_dict() == ledger.state_dict()
        clone.add("w")
        clone.add("v")  # eviction order survived the round trip
        assert not clone.seen("x")


class TestDedupEvictionVsWalTail:
    """FIFO eviction must stay coherent with crash recovery: a key the WAL
    tail would replay after a crash has to still be in the live ledger, and
    the ledger rebuilt from checkpoint + tail must equal the pre-crash one
    (eviction applied in the same order during replay as it was live)."""

    def _keyed_server(self, data_dir, capacity=16, interval=8):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dedup, "_CAPACITY", capacity)
            server = PredictionServer(
                data_dir=str(data_dir),
                rng=0,
                background_replay=False,
                checkpoint_interval=interval,
            )
        server.start()
        return server

    @staticmethod
    def _post_keyed(client, n, prefix="evict"):
        for k in range(n):
            client.report_observation(
                k % 7, k % 9, 0.5 + (k % 5) * 0.2, float(k),
                idempotency_key=f"{prefix}:{k}",
            )

    def test_eviction_spares_every_key_in_the_live_wal_tail(self, tmp_path):
        # capacity (16) exceeds the checkpoint interval (8), so the keys the
        # post-checkpoint WAL tail carries are always younger than anything
        # FIFO eviction has discarded.
        server = self._keyed_server(tmp_path)
        try:
            client = PredictionClient(server.address)
            self._post_keyed(client, 43)
            checkpoint_seq = server._checkpoints.load_full()[1]
            assert checkpoint_seq == 40
            tail = server._wal.read_committed_entries(after_seq=checkpoint_seq)
            assert len(tail) == 3
            for __, __, __, key in tail:
                assert server.ledger.seen(key)
            # ... while the oldest keys were in fact evicted (bounded memory).
            assert not server.ledger.seen("evict:0")
            assert len(server.ledger) == 16
        finally:
            server.stop()

    def test_ledger_rebuilt_from_wal_matches_pre_crash_one(self, tmp_path):
        server = self._keyed_server(tmp_path)
        client = PredictionClient(server.address)
        self._post_keyed(client, 43)
        pre_crash = server.ledger.state_dict()
        server.kill()  # no final checkpoint: the tail lives only in the WAL

        recovered = self._keyed_server(tmp_path)
        try:
            assert recovered.ledger.state_dict() == pre_crash
            # A late duplicate of a tail key is still absorbed after recovery.
            updates_before = recovered.model.updates_applied
            duplicate_error = PredictionClient(recovered.address).report_observation(
                42 % 7, 42 % 9, 99.0, 42.0, idempotency_key="evict:42"
            )
            assert duplicate_error != duplicate_error  # NaN: deduplicated
            assert recovered.model.updates_applied == updates_before
        finally:
            recovered.stop()

    def test_replayed_eviction_preserves_fifo_order(self, tmp_path):
        # More keyed records since the checkpoint than the ledger holds:
        # replay must evict in arrival order, ending with the newest keys.
        server = self._keyed_server(tmp_path, capacity=4, interval=100)
        client = PredictionClient(server.address)
        self._post_keyed(client, 10)
        pre_crash = server.ledger.state_dict()
        assert pre_crash["keys"] == [f"evict:{k}" for k in (6, 7, 8, 9)]
        server.kill()

        recovered = self._keyed_server(tmp_path, capacity=4, interval=100)
        try:
            assert recovered.ledger.state_dict() == pre_crash
        finally:
            recovered.stop()


class TestTimestampPolicy:
    def test_first_observation_always_passes(self):
        TimestampPolicy(max_future_skew=0.0, max_staleness=0.0).check(1e9, None)

    def test_future_skew(self):
        policy = TimestampPolicy(max_future_skew=5.0)
        policy.check(104.9, latest=100.0)
        with pytest.raises(StaleObservation) as exc:
            policy.check(106.0, latest=100.0)
        assert exc.value.reason == "future"

    def test_staleness(self):
        policy = TimestampPolicy(max_staleness=10.0)
        policy.check(90.0, latest=100.0)
        with pytest.raises(StaleObservation) as exc:
            policy.check(89.0, latest=100.0)
        assert exc.value.reason == "stale"

    def test_defaults_disable_both_checks(self):
        TimestampPolicy().check(-1e12, latest=1e12)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_staleness"):
            TimestampPolicy(max_staleness=-1.0)
        with pytest.raises(ValueError, match="max_future_skew"):
            TimestampPolicy(max_future_skew=float("nan"))


def make_truth(rng, n_users=16, n_services=24):
    user_profile = rng.uniform(0.5, 2.0, size=n_users)
    service_profile = rng.uniform(0.4, 2.5, size=n_services)
    return np.outer(user_profile, service_profile)


def make_stream(truth, n, corruption, rng):
    n_users, n_services = truth.shape
    records = []
    for k in range(n):
        u = int(rng.integers(n_users))
        s = int(rng.integers(n_services))
        value = float(truth[u, s] * (1.0 + rng.normal(0.0, 0.05)))
        if corruption and rng.random() < corruption:
            value *= float(rng.uniform(50.0, 500.0))
        records.append(rec(max(value, 1e-3), user=u, service=s, t=float(k)))
    return records


class TestGatedTraining:
    """The accuracy claim behind the gate, at test scale."""

    def train(self, records, gate_on, seed=0):
        """Every arrival through the gate (or none), then replay to
        convergence; returns the model and how many arrivals the gate
        quarantined."""
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=seed)
        gate = (
            SanitizerGate(GateConfig(), model.normalize_value, model.denormalize_value)
            if gate_on
            else None
        )
        quarantined = sum(
            apply_observation(model, gate, record)[0] == "quarantine"
            for record in records
        )
        StreamTrainer(model).replay_until_converged(records[-1].timestamp)
        return model, quarantined

    def score(self, model, truth):
        predicted = model.predict_matrix()[: truth.shape[0], : truth.shape[1]]
        return mae(
            [float(v) for v in predicted.ravel()],
            [float(v) for v in truth.ravel()],
        )

    def test_gate_beats_ungated_on_corrupted_stream(self):
        rng = np.random.default_rng(0)
        truth = make_truth(rng)
        records = make_stream(truth, 3000, corruption=0.1, rng=rng)
        ungated_model, ungated_quarantined = self.train(records, gate_on=False)
        gated_model, gated_quarantined = self.train(records, gate_on=True)
        assert ungated_quarantined == 0
        assert gated_quarantined > 0
        assert self.score(gated_model, truth) < self.score(ungated_model, truth)

    def test_gate_is_free_on_a_clean_stream(self):
        rng = np.random.default_rng(1)
        truth = make_truth(rng)
        records = make_stream(truth, 2000, corruption=0.0, rng=rng)
        ungated_model, __ = self.train(records, gate_on=False)
        gated_model, __ = self.train(records, gate_on=True)
        clean = self.score(ungated_model, truth)
        assert self.score(gated_model, truth) <= clean * 1.05

    def test_apply_observation_without_gate_is_plain_observe(self):
        model = AdaptiveMatrixFactorization(rng=0)
        action, applied = apply_observation(model, None, rec(1.0))
        assert action == "admit"
        assert len(applied) == 1
        assert model.updates_applied == 1


@pytest.fixture()
def server():
    with PredictionServer(rng=0, background_replay=False, gate=True) as s:
        yield s


def post_observation(client, **overrides):
    payload = {"timestamp": 0.0, "user_id": 0, "service_id": 0, "value": 1.0}
    payload.update(overrides)
    return client._request("POST", "/observations", payload, idempotent=False)


class TestServerBoundary:
    """API-boundary hygiene over real HTTP."""

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_bad_values_bounce_with_structured_400(self, server, value):
        client = PredictionClient(server.address)
        with pytest.raises(TerminalServiceError) as exc:
            post_observation(client, value=value)
        assert exc.value.status == 400
        assert exc.value.body["code"] == "invalid_value"
        assert server.model.updates_applied == 0

    def test_bad_timestamp_bounces(self, server):
        client = PredictionClient(server.address)
        with pytest.raises(TerminalServiceError) as exc:
            post_observation(client, timestamp=float("nan"))
        assert exc.value.status == 400
        assert exc.value.body["code"] == "invalid_timestamp"

    def test_batch_rejects_bad_values_per_item(self, server):
        client = PredictionClient(server.address)
        result = client.report_observations_detailed(
            [
                {"timestamp": 0.0, "user_id": 0, "service_id": 0, "value": 1.0},
                {"timestamp": 1.0, "user_id": 0, "service_id": 1,
                 "value": float("nan")},
                {"timestamp": 2.0, "user_id": 0, "service_id": 2, "value": -3.0},
                {"timestamp": 3.0, "user_id": 0, "service_id": 3, "value": 2.0},
            ]
        )
        assert result["accepted"] == 2
        assert [item["index"] for item in result["rejected"]] == [1, 2]
        assert all("value" in item["error"] for item in result["rejected"])
        assert server.model.updates_applied == 2

    def test_idempotency_key_deduplicates(self, server):
        client = PredictionClient(server.address)
        first = client.report_observation(0, 0, 1.5, 0.0, idempotency_key="m:1")
        assert math.isfinite(first)
        assert server.model.updates_applied == 1
        retry = client.report_observation(0, 0, 1.5, 0.0, idempotency_key="m:1")
        assert math.isnan(retry)  # acknowledged, not re-applied
        assert server.model.updates_applied == 1
        status = client.status()["robustness"]["dedup"]
        assert status["deduplicated"] == 1
        assert status["ledger_size"] == 1
        # A fresh key is a fresh measurement.
        client.report_observation(0, 0, 1.5, 1.0, idempotency_key="m:2")
        assert server.model.updates_applied == 2

    @pytest.mark.parametrize("key", ["", "x" * 257, 7])
    def test_invalid_idempotency_key(self, server, key):
        client = PredictionClient(server.address)
        with pytest.raises(TerminalServiceError) as exc:
            post_observation(client, idempotency_key=key)
        assert exc.value.body["code"] == "invalid_idempotency_key"

    def test_status_exposes_robustness_block(self, server):
        client = PredictionClient(server.address)
        client.report_observation(0, 0, 1.0, 0.0)
        robustness = client.status()["robustness"]
        assert robustness["gate"]["admitted"] == 1
        assert robustness["gate"]["quarantine_size"] == 0
        assert robustness["dedup"]["ledger_size"] == 0
        assert robustness["admission"] is None
