"""Tests for primary/standby replication, fenced failover, and the
multi-endpoint client (circuit breaker, fenced-409 redirect, deadlines)."""

import errno
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.datasets.schema import QoSRecord
from repro.lifecycle import LifecycleConfig
from repro.server import (
    DeadlineExceeded,
    EpochStore,
    PredictionClient,
    PredictionServer,
    ReplicationConfig,
    RetryableServiceError,
    TerminalServiceError,
)
from repro.server.http import ServiceError
from repro.server.replication import HttpReplicaLink
from repro.simulation import FaultyReplicaLink, LinkFaultConfig, run_failover
from tests.conftest import wal_counts

SERVER_ARGS = dict(rng=0, background_replay=False, checkpoint_interval=20)


def record(k, value=None):
    return QoSRecord(
        timestamp=float(k),
        user_id=k % 6,
        service_id=k % 9,
        value=value if value is not None else 0.3 + (k % 11) * 0.15,
    )


def post(client, records, key_prefix="obs"):
    for k, rec in enumerate(records):
        client.report_observation(
            rec.user_id,
            rec.service_id,
            rec.value,
            rec.timestamp,
            idempotency_key=f"{key_prefix}:{k}",
        )


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(interval)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def make_pair(tmp_path, standby_kwargs=None, primary_kwargs=None):
    """A running primary + pulling standby around a shared epoch store."""
    store = str(tmp_path / "epoch.json")
    primary = PredictionServer(
        data_dir=str(tmp_path / "primary"),
        replication=ReplicationConfig(store, role="primary", node_id="p"),
        **{**SERVER_ARGS, **(primary_kwargs or {})},
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
        **{**SERVER_ARGS, **(standby_kwargs or {})},
    )
    standby.start()
    return primary, standby


class TestEpochStore:
    def test_starts_at_zero(self, tmp_path):
        store = EpochStore(str(tmp_path / "epoch.json"))
        assert store.epoch() == 0
        assert store.read() == {"epoch": 0, "owner": None}

    def test_cas_advances_and_records_owner(self, tmp_path):
        store = EpochStore(str(tmp_path / "epoch.json"))
        assert store.cas(0, 1, owner="alpha")
        assert store.read() == {"epoch": 1, "owner": "alpha"}

    def test_cas_fails_on_wrong_expected(self, tmp_path):
        store = EpochStore(str(tmp_path / "epoch.json"))
        assert store.cas(0, 1)
        assert not store.cas(0, 2)
        assert store.epoch() == 1

    def test_cas_must_advance(self, tmp_path):
        store = EpochStore(str(tmp_path / "epoch.json"))
        with pytest.raises(ValueError):
            store.cas(1, 1)

    def test_racing_cas_has_exactly_one_winner(self, tmp_path):
        path = str(tmp_path / "epoch.json")
        wins = []
        barrier = threading.Barrier(8)

        def racer(name):
            store = EpochStore(path)
            barrier.wait()
            if store.cas(0, 1, owner=name):
                wins.append(name)

        threads = [
            threading.Thread(target=racer, args=(f"n{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert EpochStore(path).read()["owner"] == wins[0]


class TestShippingEndpoint:
    def test_ships_committed_records_with_keys(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            standby._replicator.stop()  # read the wire directly
            post(PredictionClient(primary.address), [record(k) for k in range(5)])
            batch = HttpReplicaLink(primary.address).fetch(after_seq=0, limit=10)
            assert batch["epoch"] == 1
            assert batch["role"] == "primary"
            assert batch["last_seq"] == 5
            assert [entry[0] for entry in batch["records"]] == [1, 2, 3, 4, 5]
            seq, ts, user, service, value, key = batch["records"][2]
            assert (user, service) == (2 % 6, 2 % 9)
            assert key == "obs:2"
        finally:
            primary.stop()
            standby.stop()

    def test_after_seq_and_limit_window_the_batch(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            standby._replicator.stop()
            post(PredictionClient(primary.address), [record(k) for k in range(8)])
            batch = HttpReplicaLink(primary.address).fetch(after_seq=3, limit=2)
            assert [entry[0] for entry in batch["records"]] == [4, 5]
            assert batch["last_seq"] == 8
        finally:
            primary.stop()
            standby.stop()

    def test_unreplicated_server_reports_not_replicated(self):
        server = PredictionServer(**SERVER_ARGS)
        server.start()
        try:
            status = PredictionClient(server.address).replication_status()
            assert status == {
                "role": "primary",
                "epoch": 0,
                "fenced": False,
                "replicated": False,
            }
        finally:
            server.stop()


class TestStandbyCatchUp:
    def test_standby_replays_to_bit_exact_state(self, tmp_path):
        primary, standby = make_pair(
            tmp_path, standby_kwargs={"gate": True}, primary_kwargs={"gate": True}
        )
        try:
            records = [record(k) for k in range(60)]
            post(PredictionClient(primary.address), records)
            wait_until(lambda: standby.wal_last_seq >= primary.wal_last_seq)
            # A pull logs its group, then applies it, all under the ingest
            # lock: holding the lock reads the state after the last apply.
            with standby._ingest_lock:
                assert np.array_equal(
                    standby.model.user_factors(), primary.model.user_factors()
                )
                assert np.array_equal(
                    standby.model.service_factors(), primary.model.service_factors()
                )
                assert standby.model.updates_applied == primary.model.updates_applied
                assert standby.ledger.state_dict() == primary.ledger.state_dict()
                assert standby.gate.state_dict() == primary.gate.state_dict()
                # The standby's windowed accuracy tracked the same stream.
                assert standby.drift.snapshot() == primary.drift.snapshot()
        finally:
            primary.stop()
            standby.stop()

    def test_standby_wal_is_byte_identical_log(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            post(PredictionClient(primary.address), [record(k) for k in range(30)])
            wait_until(lambda: standby.wal_last_seq >= primary.wal_last_seq)
        finally:
            primary.stop()
            standby.stop()
        primary_dir, standby_dir = tmp_path / "primary", tmp_path / "standby"
        segments = sorted(p.name for p in primary_dir.glob("wal-*.jsonl"))
        assert segments == sorted(p.name for p in standby_dir.glob("wal-*.jsonl"))
        for name in segments:
            assert (primary_dir / name).read_bytes() == (
                standby_dir / name
            ).read_bytes()

    def test_standby_refuses_writes_and_serves_reads(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            post(PredictionClient(primary.address), [record(k) for k in range(10)])
            wait_until(lambda: standby.wal_last_seq >= 10)
            standby_client = PredictionClient(standby.address, retries=0)
            with pytest.raises(TerminalServiceError) as excinfo:
                standby_client.report_observation(0, 0, 1.0, 100.0)
            assert excinfo.value.status == 409
            assert excinfo.value.body["code"] == "not_primary"
            # Predictions keep serving from the warm replica.
            assert standby_client.predict(0, 0) > 0
        finally:
            primary.stop()
            standby.stop()

    def test_partition_heals_and_lag_recovers(self, tmp_path):
        store = str(tmp_path / "epoch.json")
        primary = PredictionServer(
            data_dir=str(tmp_path / "primary"),
            replication=ReplicationConfig(store, role="primary"),
            **SERVER_ARGS,
        )
        primary.start()
        link = FaultyReplicaLink(
            HttpReplicaLink(primary.address), LinkFaultConfig(partitioned=True)
        )
        standby = PredictionServer(
            data_dir=str(tmp_path / "standby"),
            replication=ReplicationConfig(
                store,
                role="standby",
                primary_address=primary.address,
                poll_interval=0.01,
            ),
            replication_link=link,
            **SERVER_ARGS,
        )
        standby.start()
        try:
            post(PredictionClient(primary.address), [record(k) for k in range(20)])
            assert standby.wal_last_seq == 0  # partitioned: nothing shipped
            assert link.counts["blocked"] > 0
            link.heal()
            wait_until(lambda: standby._replicator.lag_records == 0)
            assert standby.wal_last_seq >= 20
        finally:
            primary.stop()
            standby.stop()


class _InProcessLink:
    """``HttpReplicaLink.fetch`` without the socket."""

    def __init__(self, primary: PredictionServer) -> None:
        self.primary = primary

    def fetch(self, after_seq: int, limit: int) -> dict:
        return self.primary._handle_replication_wal(
            {"after_seq": [str(after_seq)], "limit": [str(limit)]}
        )


class TestStandbyCommitsEachPullAsOneGroup:
    @pytest.fixture
    def pair(self, tmp_path):
        """An idle primary holding 50 entries and an empty standby that
        pulls 16 at a time, neither serving: the test is the pull loop."""
        store = str(tmp_path / "epoch.json")
        primary = PredictionServer(
            data_dir=str(tmp_path / "primary"),
            replication=ReplicationConfig(store, role="primary", node_id="p"),
            **SERVER_ARGS,
        )
        for k in range(50):
            rec = record(k)
            primary._handle_observation(
                {"timestamp": rec.timestamp, "user_id": rec.user_id,
                 "service_id": rec.service_id, "value": rec.value}
            )
        replication = ReplicationConfig(
            store, role="standby", primary_address=("127.0.0.1", 1), node_id="s"
        )
        replication.batch_limit = 16
        standby = PredictionServer(
            data_dir=str(tmp_path / "standby"),
            replication=replication,
            replication_link=_InProcessLink(primary),
            **SERVER_ARGS,
        )
        yield primary, standby
        primary.kill()
        standby.kill()

    def test_catching_up_costs_one_fsync_per_pull(self, pair, tmp_path):
        primary, standby = pair
        before = wal_counts()[0]
        pulls = []
        while applied := standby._replicator.poll_once():
            pulls.append(applied)
        assert pulls == [16, 16, 16, 2]
        assert wal_counts()[0] - before == 4  # ceil(50 / 16), not 50
        assert standby._replicator.records_applied == 50
        assert np.array_equal(standby.model.user_factors(), primary.model.user_factors())
        assert standby.model.updates_applied == primary.model.updates_applied
        for segment in (tmp_path / "primary").glob("wal-*.jsonl"):
            assert (tmp_path / "standby" / segment.name).read_bytes() == segment.read_bytes()

    def test_outcomes_are_per_entry_and_nothing_past_a_hole_is_logged(self, pair):
        primary, standby = pair
        entries = primary._wal.read_committed_entries()
        assert standby.apply_shipped(entries[:5]) == ["applied"] * 5
        before = wal_counts()[0]
        assert standby.apply_shipped(entries[:5]) == ["skipped"] * 5
        assert wal_counts()[0] == before  # an all-skipped batch logs nothing
        holed = entries[2:7] + entries[8:12]
        assert standby.apply_shipped(holed) == ["skipped"] * 3 + ["applied"] * 2 + ["gap"]
        assert wal_counts()[0] == before + 1
        assert standby.wal_last_seq == 7
        assert standby.model.updates_applied == 7

    def test_a_flat_standby_logs_nothing_of_a_batch_that_holds_an_event(self, pair):
        primary, standby = pair
        entries = primary._wal.read_committed_entries(limit=3)
        event = ("ev", 4, "pressure", {"hu": 2, "hs": 2, "level": "tighten"})
        with pytest.raises(ValueError, match="lifecycle tiering is disabled"):
            standby.apply_shipped(entries + [event])
        assert standby.wal_last_seq == 0 and standby.model.updates_applied == 0


class TestEveryNodeAnswersFromTheRowItHolds:
    """A read changes nothing, so who may write does not matter to it: a
    standby, a fenced primary and a read-only-degraded one each answer a
    ranking for a *spilled* user from his stored row — the values the
    healthy primary gives, ``source: "model"`` — and append nothing.  (A
    cold read used to revive, which only a healthy primary may log; the
    other three answered from the fallback means.)"""

    TIER = LifecycleConfig(hot_users=3, hot_services=8)
    CANDIDATES = [0, 1, 2]

    @pytest.fixture
    def trio(self, tmp_path):
        """``(primary, standby, cold, expected)``: a tiered pair, neither
        serving, the standby caught up; ``cold`` is a user both have
        spilled and ``expected`` the healthy primary's answers for him."""
        store = str(tmp_path / "epoch.json")
        tiered = {**SERVER_ARGS, "lifecycle": self.TIER}
        replication = ReplicationConfig(store, role="primary", node_id="p")
        replication.fence_check_interval = 0.0
        primary = PredictionServer(
            data_dir=str(tmp_path / "primary"), replication=replication, **tiered
        )
        for k in range(30):
            primary._handle_observation(
                {"timestamp": float(k), "user_id": k % 6, "service_id": k % 3,
                 "value": 0.5 + (k % 7) * 0.3}
            )
        standby = PredictionServer(
            data_dir=str(tmp_path / "standby"),
            replication=ReplicationConfig(
                store, role="standby", primary_address=("127.0.0.1", 1), node_id="s"
            ),
            replication_link=_InProcessLink(primary),
            **tiered,
        )
        while standby._replicator.poll_once():
            pass
        cold = primary.model.with_model(lambda m: min(m._spilled_users))
        assert standby.model.with_model(lambda m: cold in m._spilled_users)
        yield primary, standby, cold, self._answers(primary, cold)
        primary.kill()
        standby.kill()

    def _answers(self, server, user):
        """A ranking and a single GET, which must leave the log alone."""
        before = server.wal_last_seq, wal_counts()[0]
        ranking = server._predict_batch(user, self.CANDIDATES)
        single = server._predict_one(user, self.CANDIDATES[0])
        assert (server.wal_last_seq, wal_counts()[0]) == before
        assert server.model.with_model(lambda m: user in m._spilled_users)
        return ranking, single

    def _assert_answers_like_the_primary(self, server, cold, expected):
        (values, sources), single = self._answers(server, cold)
        assert sources == expected[0][1] == ["model"] * len(self.CANDIDATES)
        assert values == pytest.approx(expected[0][0], rel=1e-9, abs=0.0)
        assert single["source"] == "model"
        assert single["expected_error"] == expected[1]["expected_error"]
        assert single["prediction"] == pytest.approx(
            expected[1]["prediction"], rel=1e-9, abs=0.0
        )

    def test_a_caught_up_standby(self, trio):
        __, standby, cold, expected = trio
        self._assert_answers_like_the_primary(standby, cold, expected)

    def test_a_fenced_primary(self, trio):
        primary, standby, cold, expected = trio
        assert standby.promote()
        with pytest.raises(ServiceError) as excinfo:
            primary._handle_observation(
                {"timestamp": 99.0, "user_id": cold, "service_id": 0, "value": 1.0}
            )
        assert excinfo.value.code == "stale_epoch" and primary._fenced
        self._assert_answers_like_the_primary(primary, cold, expected)

    def test_a_read_only_degraded_primary(self, trio, monkeypatch):
        primary, __, cold, expected = trio

        def failing(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", failing)
            with pytest.raises(ServiceError) as excinfo:
                primary._handle_observation(
                    {"timestamp": 99.0, "user_id": cold, "service_id": 0, "value": 1.0}
                )
        assert excinfo.value.status == 507 and primary._degraded_reason is not None
        self._assert_answers_like_the_primary(primary, cold, expected)


class TestPromotionAndFencing:
    def test_promotion_advances_epoch_and_accepts_writes(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            post(PredictionClient(primary.address), [record(k) for k in range(15)])
            wait_until(lambda: standby.wal_last_seq >= 15)
            primary.kill()
            assert standby.promote()
            assert standby.role == "primary"
            assert standby.epoch == 2
            client = PredictionClient(standby.address)
            client.report_observation(1, 1, 0.5, 100.0)
            assert standby.wal_last_seq == 16
        finally:
            standby.stop()

    def test_live_deposed_primary_fences_itself(self, tmp_path):
        primary, standby = make_pair(
            tmp_path,
            primary_kwargs={},
        )
        primary.replication.fence_check_interval = 0.01
        try:
            post(PredictionClient(primary.address), [record(k) for k in range(5)])
            wait_until(lambda: standby.wal_last_seq >= 5)
            assert standby.promote()
            time.sleep(0.02)  # let the fence-check interval elapse
            with pytest.raises(TerminalServiceError) as excinfo:
                PredictionClient(primary.address, retries=0).report_observation(
                    0, 0, 1.0, 200.0
                )
            assert excinfo.value.status == 409
            assert excinfo.value.body["code"] == "stale_epoch"
            assert excinfo.value.body["cluster_epoch"] == 2
            assert primary._fenced
            # Reads still work on the fenced node.
            assert PredictionClient(primary.address).predict(0, 0) > 0
        finally:
            primary.stop()
            standby.stop()

    def test_promotion_lost_cas_stays_standby(self, tmp_path):
        class VetoStore(EpochStore):
            def cas(self, expected, new, owner=None):
                if new <= expected:
                    raise ValueError("epoch must advance")
                return False  # a sibling always wins

        store = VetoStore(str(tmp_path / "epoch.json"))
        primary = PredictionServer(
            data_dir=str(tmp_path / "primary"),
            replication=ReplicationConfig(
                str(tmp_path / "epoch.json"), role="primary"
            ),
            **SERVER_ARGS,
        )
        primary.start()
        standby = PredictionServer(
            data_dir=str(tmp_path / "standby"),
            replication=ReplicationConfig(
                store,
                role="standby",
                primary_address=primary.address,
                poll_interval=0.01,
            ),
            **SERVER_ARGS,
        )
        standby.start()
        try:
            assert not standby.promote()
            assert standby.role == "standby"
            assert standby._replicator.running  # went back to pulling
        finally:
            primary.stop()
            standby.stop()

    def test_restarted_deposed_primary_starts_fenced(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        post(PredictionClient(primary.address), [record(k) for k in range(25)])
        wait_until(lambda: standby.wal_last_seq >= 25)
        primary.kill()
        assert standby.promote()
        revived = PredictionServer(
            data_dir=str(tmp_path / "primary"),
            replication=ReplicationConfig(str(tmp_path / "epoch.json")),
            **SERVER_ARGS,
        )
        revived.start()
        try:
            assert revived._fenced
            with pytest.raises(TerminalServiceError) as excinfo:
                PredictionClient(revived.address, retries=0).report_observation(
                    0, 0, 1.0, 300.0
                )
            assert excinfo.value.body["code"] == "stale_epoch"
        finally:
            revived.kill()
            standby.stop()


class TestStandbyDiskFailure:
    def test_a_standby_whose_own_log_fails_does_not_depose_the_primary(
        self, tmp_path
    ):
        """The auto-promote timer measures the primary's silence.  A standby
        that cannot append to its *own* WAL (what ENOSPC leaves behind) is
        a degraded standby — not grounds to fence a primary that answers
        every fetch, which would leave the cluster with no writable node."""
        store = str(tmp_path / "epoch.json")
        replication = ReplicationConfig(store, role="primary", node_id="p")
        replication.fence_check_interval = 0.01
        primary = PredictionServer(
            data_dir=str(tmp_path / "primary"), replication=replication, **SERVER_ARGS
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
                auto_promote_after=0.3,
            ),
            **SERVER_ARGS,
        )
        standby.start()
        try:
            client = PredictionClient(primary.address, retries=0)
            post(client, [record(k) for k in range(5)])
            wait_until(lambda: standby.wal_last_seq >= 5)
            standby._wal._append_failed = "OSError: [Errno 28] No space left on device"
            post(client, [record(k) for k in range(5, 10)], key_prefix="late")
            wait_until(lambda: standby._replicator.consecutive_failures >= 3)
            time.sleep(0.45)  # well past auto_promote_after
            assert standby.role == "standby"
            assert EpochStore(store).epoch() == 1
            assert not standby.promote()  # nor will an operator's promote()
            assert EpochStore(store).epoch() == 1
            assert standby._replicator.running  # still a standby, still pulling
            # The primary still accepts writes, at the epoch it always had.
            client.report_observation(1, 1, 0.5, 100.0)
            assert primary.wal_last_seq == 11 and not primary._fenced
            # The standby says what is wrong with it, and keeps serving reads.
            standby_client = PredictionClient(standby.address, retries=0)
            status = standby_client.status()
            assert "No space left" in status["durability"]["read_only"]
            replicator = standby_client.replication_status()["standby"]
            assert "No space left" in replicator["last_error"]
            assert standby.wal_last_seq == 5
            assert standby_client.predict(0, 0) > 0
        finally:
            primary.stop()
            standby.stop()


class TestClientFailover:
    def test_reads_fail_over_to_surviving_replica(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            post(PredictionClient(primary.address), [record(k) for k in range(10)])
            wait_until(lambda: standby.wal_last_seq >= 10)
            client = PredictionClient(
                [primary.address, standby.address], retries=2, backoff=0.01
            )
            assert client.predict(0, 0) > 0  # served by the primary
            primary.kill()
            assert client.predict(0, 0) > 0  # transparently fails over
            assert client.failovers_performed >= 1
        finally:
            standby.stop()

    def test_write_redirects_off_standby_without_key(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            # Standby listed first: the keyless write hits 409 not_primary
            # and must be re-routed (safe — the 409 applied nothing).
            client = PredictionClient(
                [standby.address, primary.address], retries=0
            )
            client.report_observation(0, 0, 1.0, 1.0)
            assert primary.wal_last_seq == 1
            assert standby.epoch >= 0  # standby untouched by the write
        finally:
            primary.stop()
            standby.stop()

    def test_single_endpoint_fenced_write_raises(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            with pytest.raises(TerminalServiceError) as excinfo:
                PredictionClient(standby.address, retries=0).report_observation(
                    0, 0, 1.0, 1.0
                )
            assert excinfo.value.body["code"] == "not_primary"
        finally:
            primary.stop()
            standby.stop()

    def test_breaker_remembers_dead_endpoint(self, tmp_path):
        primary, standby = make_pair(tmp_path)
        try:
            post(PredictionClient(primary.address), [record(k) for k in range(5)])
            wait_until(lambda: standby.wal_last_seq >= 5)
            client = PredictionClient(
                [primary.address, standby.address],
                retries=2,
                backoff=0.01,
                breaker_threshold=1,
                breaker_cooldown=30.0,
            )
            primary.kill()
            client.predict(0, 0)
            failovers_after_first = client.failovers_performed
            # The open breaker routes subsequent reads straight to the
            # standby — no more failover hops, no re-probing the corpse.
            for __ in range(3):
                client.predict(0, 0)
            assert client.failovers_performed == failovers_after_first
        finally:
            standby.stop()


class TestDeadline:
    def test_deadline_exceeded_is_raised_instead_of_sleeping(self):
        client = PredictionClient(
            ("127.0.0.1", free_port()),
            retries=10,
            backoff=5.0,
            backoff_max=10.0,
            jitter=0.0,
            deadline=0.3,
        )
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded) as excinfo:
            client.predict(0, 0)
        assert time.monotonic() - started < 2.0
        assert isinstance(excinfo.value.__cause__, RetryableServiceError)

    def test_per_call_deadline_overrides_constructor(self):
        server = PredictionServer(**SERVER_ARGS)
        server.start()
        try:
            client = PredictionClient(server.address, deadline=0.001)
            # The write-path override gets a workable budget even though the
            # constructor default is hopeless.
            client.report_observation(0, 0, 1.0, 1.0, deadline=10.0)
        finally:
            server.stop()

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            PredictionClient(("127.0.0.1", 1), deadline=0.0)

    def test_without_deadline_retries_are_bounded_by_count(self):
        client = PredictionClient(
            ("127.0.0.1", free_port()), retries=1, backoff=0.01
        )
        with pytest.raises(RetryableServiceError):
            client.predict(0, 0)
        assert client.retries_performed == 1


class TestFailoverDrill:
    def test_run_failover_smoke(self, tmp_path):
        records = [record(k) for k in range(48)]
        report = run_failover(
            records,
            kill_after=30,
            primary_dir=str(tmp_path / "primary"),
            standby_dir=str(tmp_path / "standby"),
            baseline_dir=str(tmp_path / "baseline"),
            epoch_store=str(tmp_path / "epoch.json"),
            rng=0,
            server_kwargs={"gate": True, "checkpoint_interval": 10},
        )
        assert report.matches, report.summary()
        assert report.metrics_ok, report.detail["metrics"]
        # The silence timer is armed from the standby's last successful
        # fetch, which may precede the kill by up to one poll interval —
        # allow that much undercount; the floor still proves the standby
        # waited out its 0.25 s silence window instead of promoting instantly.
        assert report.detail["time_to_promote"] >= 0.25 - 0.02
        assert report.detail["promoted_epoch"] == 2
        assert report.detail["fence_probe"]["code"] == "stale_epoch"
        digests = report.detail["checkpoint_digests"]
        assert digests["promoted"] == digests["baseline"]
