"""Bounded-memory entity lifecycle: tiering, spill/revive, pressure.

The tiered model must be *transparent* — same math, same RNG stream,
same recovery guarantees as the unbounded model — while holding resident
state to a fixed hot-tier budget.  These tests pin the transparency
contract at the model level (slot indirection, demotion determinism,
bit-exact revival, RNG alignment), the durability contract (lifecycle
state in checkpoints, revive events in the WAL, byte-equal archives
across kill-and-restart), the degradation ladder (watchdog levels,
capacity tightening) and the read rule: a prediction for a spilled entity
is answered from its stored row and changes nothing — no revive, no log
entry, no growth of the hot tier, at any pressure level.
"""

import math
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.daemon import ConcurrentModel
from repro.core.online import PredictionCache
from repro.datasets.schema import QoSRecord
from repro.lifecycle import (
    ColdEntityError,
    LifecycleConfig,
    MemoryWatchdog,
    SpillStore,
    TieredAMF,
)
from repro.observability import get_registry
from repro.robustness import GateConfig, SanitizerGate, apply_observation
from repro.server.app import PredictionServer
from repro.server.client import PredictionClient
from repro.simulation.drills import diff_state, snapshot
from tests.conftest import wal_counts


def stream(n, seed=0, n_users=40, n_services=20):
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


def drive(model, records):
    """Feed records through the reviving observe; returns per-sample errors."""
    return [model.observe_reviving(record)[1] for record in records]


def tiered(seed=0, hot_users=8, hot_services=8, **kwargs):
    lifecycle = LifecycleConfig(
        hot_users=hot_users, hot_services=hot_services, **kwargs
    )
    return TieredAMF(rng=seed, lifecycle=lifecycle, spill=SpillStore(":memory:"))



class _NeverQuarantine(GateConfig):
    """The shipped gate with no quarantine band: outliers clip."""

    quarantine_k = math.inf


def _free_pages(spill) -> int:
    """Pages on the spill file's free list (reclaimable space)."""
    return int(spill._conn.execute("PRAGMA freelist_count").fetchone()[0])

class TestTieredModel:
    def test_hot_tier_never_exceeds_capacity(self):
        model = tiered(hot_users=8, hot_services=6)
        drive(model, stream(400, n_users=60, n_services=30))
        assert len(model._u_slot_of) <= 8
        assert len(model._s_slot_of) <= 6
        status = model.lifecycle_status()
        assert status["demoted_users"] > 0
        assert status["spilled_users"] + status["hot_users"] == 60

    def test_spill_invariant_row_present_iff_spilled(self):
        model = tiered()
        drive(model, stream(300, n_users=50))
        assert set(model._spill.keys("user")) == model._spilled_users
        assert set(model._spill.keys("service")) == model._spilled_services
        # Hot and spilled partition the known population.
        assert not (model._spilled_users & set(model._u_slot_of))

    def test_observe_on_cold_entity_raises(self):
        model = tiered()
        drive(model, stream(300, n_users=50))
        cold = next(iter(model._spilled_users))
        with pytest.raises(ColdEntityError, match="spilled"):
            model.observe(QoSRecord(1000.0, cold, 0, 1.0))

    def test_revive_restores_state_bit_exact(self):
        model = tiered(hot_users=8)
        records = stream(200, n_users=8, n_services=8)
        drive(model, records)
        target = 3
        row_before = model._user_factors.row(model._u_slot_of[target]).copy()
        err_before = model.weights.user_error(model._u_slot_of[target])
        # Push enough fresh users through to force the target out.
        drive(model, stream(120, seed=7, n_users=200, n_services=8))
        assert target in model._spilled_users
        payload = model.revive_payload("user", target)
        model.apply_revive("user", target, payload)
        slot = model._u_slot_of[target]
        assert np.array_equal(model._user_factors.row(slot), row_before)
        assert model.weights.user_error(slot) == err_before
        assert target not in model._spilled_users
        assert model._spill.get("user", target) is None

    def test_demotion_is_deterministic(self):
        records = stream(500, n_users=80, n_services=40)
        first, second = tiered(), tiered()
        errors_a = drive(first, records)
        errors_b = drive(second, records)
        assert errors_a == errors_b
        assert first.lifecycle_state() == second.lifecycle_state()
        assert sorted(first._spill.keys("user")) == sorted(
            second._spill.keys("user")
        )

    def test_rng_alignment_with_uncapped_baseline(self):
        """Per-sample errors of a capped model match an uncapped one.

        Fresh slot allocation draws exactly one init vector and revival
        draws zero, so RNG consumption aligns 1:1 with entity
        first-touches regardless of tiering — the property that makes
        the bounded-vs-unbounded error-stream comparison of the
        ``memory-cap`` drill an equality, not a tolerance.
        """
        records = stream(600, n_users=100, n_services=50)
        bounded = tiered(hot_users=8, hot_services=8)
        unbounded = tiered(hot_users=10_000, hot_services=10_000)
        assert drive(bounded, records) == drive(unbounded, records)
        assert bounded.lifecycle_status()["demoted_users"] > 0
        assert unbounded.lifecycle_status()["demoted_users"] == 0

    def test_revive_events_replay_to_identical_state(self):
        """Applying the logged (kind, id, payload) events on a follower
        reproduces the leader's state exactly — the standby/recovery path."""
        records = stream(400, n_users=60, n_services=30)
        leader, follower = tiered(), tiered()
        for record in records:
            events, __ = leader.observe_reviving(record)
            for kind, ext_id, payload in events:
                follower.apply_revive(kind, ext_id, payload)
            follower.observe(record)
        assert leader.lifecycle_state() == follower.lifecycle_state()
        for ext, slot in leader._u_slot_of.items():
            assert np.array_equal(
                leader._user_factors.row(slot),
                follower._user_factors.row(follower._u_slot_of[ext]),
            )


class TestPressure:
    def test_apply_pressure_shrinks_and_demotes(self):
        model = tiered(hot_users=16, hot_services=16)
        drive(model, stream(300, n_users=16, n_services=16))
        before = len(model._u_slot_of)
        model.apply_pressure(6, 6, "tighten")
        assert model._hot_users == 6
        assert len(model._u_slot_of) <= 6
        assert len(model._u_slot_of) < before
        assert model.lifecycle_status()["pressure_level"] == "tighten"

    def test_pressure_event_is_replayable(self):
        records = stream(200, n_users=30, n_services=15)
        organic, replayed = tiered(hot_users=16, hot_services=16), tiered(
            hot_users=16, hot_services=16
        )
        drive(organic, records)
        drive(replayed, records)
        organic.apply_pressure(5, 5, "tighten")
        replayed.apply_event("pressure", {"hu": 5, "hs": 5, "level": "tighten"})
        assert organic.lifecycle_state() == replayed.lifecycle_state()

    def test_watchdog_ladder(self):
        """ok -> tighten (sustained) -> critical -> recovery."""
        lifecycle = LifecycleConfig(
            hot_users=16,
            hot_services=16,
            memory_limit_bytes=1000,
            min_hot=4,
            sustain_polls=2,
        )
        usage = {"bytes": 100}
        caps = {"hot": (16, 16)}
        tightened = []

        def on_tighten(hot_users, hot_services, level):
            caps["hot"] = (hot_users, hot_services)
            tightened.append((hot_users, hot_services, level))

        dog = MemoryWatchdog(
            lifecycle,
            usage=lambda: usage["bytes"],
            capacities=lambda: caps["hot"],
            on_tighten=on_tighten,
        )
        assert dog.poll_once() == "ok"
        usage["bytes"] = 850  # >= 80%: needs sustain_polls before acting
        assert dog.poll_once() == "ok"
        assert not tightened
        assert dog.poll_once() == "tighten"
        assert tightened[-1] == (11, 11, "tighten")
        usage["bytes"] = 990  # >= 95%
        dog.poll_once()
        assert dog.poll_once() == "critical"
        assert tightened[-1][2] == "critical"
        usage["bytes"] = 100
        assert dog.poll_once() == "ok"
        # The floor holds however long pressure persists.
        usage["bytes"] = 990
        for __ in range(10):
            dog.poll_once()
        assert caps["hot"][0] >= lifecycle.min_hot

    def test_watchdog_requires_limit(self):
        with pytest.raises(ValueError, match="memory_limit_bytes"):
            MemoryWatchdog(
                LifecycleConfig(),
                usage=lambda: 0,
                capacities=lambda: (4, 4),
                on_tighten=lambda *a: None,
            )


class TestServerLifecycle:
    def _churn(self, client, n=240, users=12, services=6, start=0):
        # users > hot_users forces demotion churn; services stays under
        # hot_services so candidate predictions hit the model, not the
        # cold-service fallback.
        for k in range(n):
            client.report_observation(
                start + (k % users),
                k % services,
                value=0.5 + (k % 9) * 0.4,
                timestamp=float(k),
            )

    @staticmethod
    def _log_counts(server) -> tuple:
        return (server.wal_last_seq, *wal_counts())

    def test_a_cold_read_answers_from_the_model_and_an_observe_revives(self):
        lifecycle = LifecycleConfig(hot_users=8, hot_services=8)
        with tempfile.TemporaryDirectory() as data_dir:
            with PredictionServer(
                rng=0,
                background_replay=False,
                data_dir=data_dir,
                lifecycle=lifecycle,
            ) as server:
                client = PredictionClient(server.address)
                self._churn(client)
                status = client.status()["lifecycle"]
                assert status["demoted_users"] > 0
                assert status["hot_users"] <= 8
                assert os.path.exists(os.path.join(data_dir, "spill.sqlite"))
                cold = server.model.with_model(
                    lambda m: sorted(m._spilled_users)[0]
                )
                # The read: answered from the stored row, nobody moves.
                log = self._log_counts(server)
                result = client.predict_candidates_detailed(cold, [0, 1])
                assert set(result["sources"].values()) == {"model"}
                single = client.predict_detailed(cold, 0)
                assert single["source"] == "model"
                assert single["prediction"] == pytest.approx(
                    result["predictions"][0], rel=1e-9
                )
                assert server.model.with_model(lambda m: cold in m._spilled_users)
                after = client.status()["lifecycle"]
                assert after["revived_users"] == status["revived_users"]
                assert after["cold_reads"] == status["cold_reads"] + 3
                assert self._log_counts(server) == log
                # The write: his revive rides the observe's commit group.
                client.report_observation(cold, 0, value=1.0, timestamp=1000.0)
                seq, fsyncs, appends = log
                assert self._log_counts(server) == (seq + 2, fsyncs + 1, appends + 2)
                kinds = [entry[2] for entry in server._wal.replay_entries(seq)]
                assert kinds[0] == "revive_user"
                assert server.model.with_model(lambda m: m.knows_user(cold))
                final = client.status()["lifecycle"]
                assert final["revived_users"] == status["revived_users"] + 1
                assert client.predict_detailed(cold, 0)["source"] == "model"
                assert final["cold_reads"] == after["cold_reads"]
                client.close()

    def test_the_cap_holds_under_reads(self):
        """A read-only stream cannot move the tier: after churn, a ranking
        and a single GET for every spilled user and service — JSON and
        binary, no observe in between — leave the hot tier within its cap
        and the log, the counters and the spill rows where they were.  (A
        read-path revive did not advance the demotion tick, so reads alone
        grew an 8-user tier to 31 hot users.)"""
        lifecycle = LifecycleConfig(hot_users=8, hot_services=8)
        with tempfile.TemporaryDirectory() as data_dir:
            with PredictionServer(
                rng=0,
                background_replay=False,
                data_dir=data_dir,
                lifecycle=lifecycle,
            ) as server:
                json_client = PredictionClient(server.address, transport="json")
                binary_client = PredictionClient(server.address, transport="binary")
                self._churn(json_client, n=300, users=50, services=14)
                cold_users, cold_services, hot_user, hot_service = (
                    server.model.with_model(
                        lambda m: (
                            sorted(m._spilled_users),
                            sorted(m._spilled_services),
                            min(m._u_slot_of),
                            min(m._s_slot_of),
                        )
                    )
                )
                assert len(cold_users) > 30 and cold_services
                state, log = snapshot(server), self._log_counts(server)
                counters = server._lifecycle_status()
                cold_reads = get_registry().counter(
                    "qos_lifecycle_cold_reads_total", labelnames=("kind",)
                )
                counted = [cold_reads.labels(kind=k).value for k in ("user", "service")]
                candidates = list(range(14))
                for client in (json_client, binary_client):
                    for user in cold_users:
                        ranking = client.predict_candidates_detailed(user, candidates)
                        assert ranking["sources"][hot_service] == "model"
                        for service in (hot_service, cold_services[0]):
                            reply = client.predict_detailed(user, service)
                            assert reply["source"] == "model"
                    for service in cold_services:
                        reply = client.predict_detailed(hot_user, service)
                        assert reply["source"] == "model"
                status = server._lifecycle_status()
                assert status["hot_users"] <= status["capacity_users"] == 8
                assert status["hot_services"] <= status["capacity_services"] == 8
                by_kind = [
                    cold_reads.labels(kind=k).value - was
                    for k, was in zip(("user", "service"), counted)
                ]
                assert min(by_kind) > 0  # each kind went through the store
                assert status["cold_reads"] == counters["cold_reads"] + sum(by_kind)
                for key in ("revived_users", "revived_services",
                            "demoted_users", "demoted_services"):
                    assert status[key] == counters[key], key
                assert self._log_counts(server) == log
                assert diff_state(state, snapshot(server)) == []
                json_client.close()
                binary_client.close()

    def test_crash_recovery_bit_exact_with_spilled_entities(self):
        from repro.simulation import run_crash_recovery

        records = stream(300, seed=2, n_users=60, n_services=30)
        with tempfile.TemporaryDirectory() as root:
            data_dir = os.path.join(root, "crash")
            report = run_crash_recovery(
                records,
                crash_after=190,
                data_dir=data_dir,
                rng=2,
                server_kwargs={
                    "lifecycle": LifecycleConfig(hot_users=16, hot_services=16),
                    "checkpoint_interval": 75,
                },
            )
            assert report.matches, report.summary()
            digests = report.detail["checkpoint_digests"]
            assert digests["recovered"] == digests["baseline"]
            spill = SpillStore(os.path.join(data_dir, "spill.sqlite"))
            assert spill.count() > 0
            spill.close()

    def test_memory_pressure_drill(self):
        """End-to-end degradation: tighten to the floor, keep cold and hot
        predictions answering from the model without growing the hot tier,
        recover bit-exact after a kill."""
        from repro.simulation import run_memory_pressure

        records = stream(240, seed=3, n_users=60, n_services=24)
        with tempfile.TemporaryDirectory() as data_dir:
            report = run_memory_pressure(
                records,
                data_dir=data_dir,
                rng=3,
                checkpoint_interval=80,
                hot_users=16,
                hot_services=16,
            )
        assert report.matches, report.summary()
        assert report.metrics_ok

    def test_a_cold_ranking_does_not_wait_for_the_ingest_lock(self):
        """``test_admission.py``'s rule — the read path is not behind the
        ingest lock — holds for a spilled user too: his ranking needs no
        revive, so nothing to log, so no lock."""
        lifecycle = LifecycleConfig(hot_users=8, hot_services=8)
        with PredictionServer(
            rng=0, background_replay=False, lifecycle=lifecycle
        ) as server:
            client = PredictionClient(server.address, retries=0)
            self._churn(client)
            cold = server.model.with_model(lambda m: sorted(m._spilled_users)[0])
            answered: dict = {}
            reader = threading.Thread(
                target=lambda: answered.update(
                    client.predict_candidates_detailed(cold, [0, 1])
                ),
                daemon=True,
            )
            server._ingest_lock.acquire()  # a stuck checkpoint, in effect
            try:
                reader.start()
                reader.join(timeout=5.0)
                assert not reader.is_alive(), "the cold read waited for the ingest lock"
            finally:
                server._ingest_lock.release()
            assert set(answered["sources"].values()) == {"model"}
            client.close()

    def test_a_cold_read_answers_under_critical_pressure(self):
        """Nothing is refused for memory: at ``critical`` a cold read
        answers like a hot one, and the hot tier does not grow by it."""
        lifecycle = LifecycleConfig(hot_users=8, hot_services=8)
        with tempfile.TemporaryDirectory() as data_dir:
            with PredictionServer(
                rng=0,
                background_replay=False,
                data_dir=data_dir,
                lifecycle=lifecycle,
            ) as server:
                client = PredictionClient(server.address, retries=0)
                self._churn(client)
                server._apply_pressure(6, 6, "critical")
                before = client.status()["lifecycle"]
                assert before["pressure_level"] == "critical"
                assert before["hot_users"] <= before["capacity_users"] == 6
                cold = server.model.with_model(
                    lambda m: sorted(m._spilled_users)[0]
                )
                hot = server.model.with_model(lambda m: sorted(m._u_slot_of)[0])
                for user in (cold, hot):
                    detail = client.predict_candidates_detailed(user, [0, 1])
                    assert set(detail["sources"].values()) == {"model"}
                    assert client.predict_detailed(user, 0)["source"] == "model"
                after = client.status()["lifecycle"]
                assert after["hot_users"] == before["hot_users"]
                assert after["spilled_users"] == before["spilled_users"]
                assert server.model.with_model(lambda m: cold in m._spilled_users)
                client.close()


class TestStoreOrderDeterminism:
    def test_drop_user_discards_in_sorted_order(self):
        """The store's physical row order must be a function of the
        logical op sequence alone.  ``drop_user`` swap-removes one peer
        at a time; iterating the peer *set* directly would make the
        resulting order depend on set internals — which differ between
        an organically-built index and one rebuilt from a checkpoint —
        and break byte-equal archives across recovery."""
        flat = AdaptiveMatrixFactorization(rng=0)
        for k in range(6):
            flat.observe(QoSRecord(float(k), 0, k, 1.0))
        for k in range(3):
            flat.observe(QoSRecord(10.0 + k, 1, k, 1.0))
        flat._store.drop_user(0)
        # Swap-remove pulls the tail into vacated positions in peer-sorted
        # order; the survivors land deterministically.
        size = len(flat._store)
        assert size == 3
        keys = flat._store._keys[:size]
        assert keys == [(1, 2), (1, 1), (1, 0)]


class TestSpillCompaction:
    def test_spill_file_shrinks_after_mass_drop(self):
        """Deleted rows leave sqlite free pages; without incremental
        vacuum a long churn run's spill file grows without bound.  After
        a mass forget the file must actually shrink on disk."""
        payload = b"x" * 2048
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "spill.sqlite")
            spill = SpillStore(path)
            spill.compact_threshold_pages = 8
            for ext_id in range(800):
                spill.put("user", ext_id, payload)
            spill.commit()
            grown = os.path.getsize(path)
            assert grown > 800 * len(payload)  # rows really hit disk
            for ext_id in range(780):
                spill.delete("user", ext_id)
            spill.commit()
            assert _free_pages(spill) > 8
            assert spill.maybe_compact()
            shrunk = os.path.getsize(path)
            assert shrunk < grown / 4, (grown, shrunk)
            assert _free_pages(spill) == 0
            # Surviving rows are untouched by the vacuum.
            assert spill.count("user") == 20
            assert spill.get("user", 799) == payload
            spill.close()

    def test_maybe_compact_is_cheap_below_threshold(self):
        with tempfile.TemporaryDirectory() as root:
            spill = SpillStore(os.path.join(root, "s.sqlite"))
            spill.put("user", 1, b"a")
            spill.commit()
            assert spill.maybe_compact() is False
            assert spill.compactions == 0
            spill.close()

    def test_legacy_file_is_migrated_to_incremental_vacuum(self):
        """A spill file created before compaction existed (auto_vacuum
        off) gets one full VACUUM on open, after which incremental
        vacuum works."""
        import sqlite3

        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "legacy.sqlite")
            conn = sqlite3.connect(path)
            conn.execute(
                "CREATE TABLE entities (kind TEXT NOT NULL, ext_id INTEGER "
                "NOT NULL, payload BLOB NOT NULL, PRIMARY KEY (kind, ext_id)"
                ") WITHOUT ROWID"
            )
            conn.execute(
                "INSERT INTO entities VALUES ('user', 7, ?)",
                (sqlite3.Binary(b"keep"),),
            )
            conn.commit()
            assert int(conn.execute("PRAGMA auto_vacuum").fetchone()[0]) == 0
            conn.close()
            spill = SpillStore(path)
            spill.compact_threshold_pages = 1
            assert spill.get("user", 7) == b"keep"
            for ext_id in range(200):
                spill.put("user", ext_id, b"y" * 2048)
            spill.commit()
            before = os.path.getsize(path)
            for ext_id in range(200):
                spill.delete("user", ext_id)
            spill.commit()
            assert spill.maybe_compact()
            assert os.path.getsize(path) < before
            assert spill.get("user", 7) is None or spill.get("user", 7) == b"keep"
            spill.close()


# -- model-based: tiering is transparent, whatever the interleaving ------------


@seed(11)
class TieringParityMachine(RuleBasedStateMachine):
    """A 3x3 hot tier that pressure tightens to 2x2, against a hot tier
    nothing ever leaves, rule for rule.

    No replay step runs, so the retained samples a demotion or an import
    drops (cold or absent peers — the documented re-warming tradeoff) never
    reach a factor: every entity hot in the small tier must hold the factor
    row, the EMA error and the predictions the never-demoting model holds
    for the same external id.  A twin of the small tier takes the same rules
    too: tier assignment and spill rows are a function of the rule sequence
    alone.

    Each model carries its own gate, as a server's does, so the statistics
    that ride the spill payload are held to the same standard.  The gate can
    clip but never quarantine: demotion drops an entity's pending quarantine
    pairs (``SanitizerGate.export_entity``), which a never-demoting model
    keeps — a documented tradeoff, not a transparent one.

    Reads go to the small tier only, through the facade and the cache a
    server reads through: every reply must be the never-demoting model's,
    whoever is spilled, and the twin — which is never read — must stay the
    small tier's equal, so a read that moved anything fails the next
    invariant.
    """

    IDS = st.integers(0, 3)
    READ_IDS = st.integers(0, 5)  # 4 and 5 are never observed
    KINDS = st.sampled_from(["user", "service"])

    def __init__(self):
        super().__init__()
        self.small, self.twin = tiered(hot_users=3, hot_services=3), tiered(
            hot_users=3, hot_services=3
        )
        self.roomy = tiered(hot_users=10_000, hot_services=10_000)
        self.models = (self.small, self.twin, self.roomy)
        for model in self.models:
            model.gate = SanitizerGate(
                _NeverQuarantine(warmup=2),
                model.normalize_value,
                model.denormalize_value,
            )
        self.served, self.reference = ConcurrentModel(self.small), ConcurrentModel(self.roomy)
        self.cache = PredictionCache(capacity=64)
        self.clock = 0.0

    @rule(user=READ_IDS, service=READ_IDS)
    def read(self, user, service):
        small, served, reference = self.small, self.served, self.reference
        cached = len(self.cache)
        candidates = list(range(6))
        ranking, __ = served.predict_batch_known(user, candidates, self.cache)
        wanted, __ = reference.predict_batch_known(user, candidates)
        for candidate, ours, theirs in zip(candidates, ranking, wanted):
            if small.holds_user(user) and small.knows_service(candidate):
                assert ours == pytest.approx(theirs, rel=1e-9, abs=0.0)
            else:  # a spilled candidate is left to the caller's fallback chain
                assert ours is None
        if user in small._spilled_users:  # no slot version to stamp: not cached
            assert len(self.cache) == cached
        ours, theirs = (cm.predict_known(user, service) for cm in (served, reference))
        assert theirs is not None or ours is None
        assert ours == pytest.approx(theirs, rel=1e-9, abs=0.0)
        assert served.expected_error(user, service) == reference.expected_error(
            user, service
        )

    @rule(user=IDS, service=IDS, value=st.floats(0.05, 20.0), gated=st.booleans())
    def observe(self, user, service, value, gated):
        self.clock += 1.0
        record = QoSRecord(self.clock, user, service, value)
        outcomes = set()
        for model in self.models:
            if not gated:  # the WAL-free driver: revive, then observe
                revived, error = model.observe_reviving(record)
                outcomes.add(error)
            else:
                # What a server does: revive (gate statistics come back with
                # the payload), then let the gate decide what is observed.
                revived = []
                for kind, ext in model.pending_revivals(user, service):
                    payload = model.revive_payload(kind, ext)
                    model.apply_revive(kind, ext, payload)
                    revived.append((kind, ext, payload))
                action, applied = apply_observation(model, model.gate, record)
                outcomes.add((action, *(error for __, error in applied)))
            # A revived entity's retained samples are back, the right way
            # round, wherever the peer is hot — except the observed pair's,
            # which this observation has just replaced.
            for kind, ext, payload in revived:
                for peer, timestamp, value in payload["samples"]:
                    pair = (ext, peer) if kind == "user" else (peer, ext)
                    slots = model._u_slot_of.get(pair[0]), model._s_slot_of.get(pair[1])
                    if pair != (user, service) and None not in slots:
                        assert model._store.get(*slots) == (timestamp, value)
        assert len(outcomes) == 1  # NaN-free: one outcome, the same on all three

    @rule(kind=KINDS, ext=IDS, by_migration=st.booleans())
    def forget(self, kind, ext, by_migration):
        for model in self.models:
            if by_migration:
                model.remove_entity(kind, ext)
            elif kind == "user":
                model.forget_user(ext)
            else:
                model.forget_service(ext)

    @rule(kind=KINDS, ext=IDS)
    def export_then_import(self, kind, ext):
        for model in self.models:
            try:
                payload = model.export_payload(kind, ext)
            except KeyError:
                continue  # unknown to one is unknown to all: checked below
            assert model.import_entities([(kind, ext, payload)]) == 1

    @rule(hot_users=st.integers(2, 3), hot_services=st.integers(2, 3),
          level=st.sampled_from(["ok", "tighten", "critical"]))
    def pressure(self, hot_users, hot_services, level):
        # Tighten only, as the watchdog does.  A raised capacity lets a later
        # revival find the free list empty and grow the slot arrays, and a
        # grown row draws an init vector (overwritten at once) that the
        # never-demoting model never draws: deterministic for recovery and
        # standbys, which replay the same draw, but not transparent.
        hot_users = min(hot_users, self.small._hot_users)
        hot_services = min(hot_services, self.small._hot_services)
        self.small.apply_pressure(hot_users, hot_services, level)
        self.twin.apply_event(
            "pressure", {"hu": hot_users, "hs": hot_services, "level": level}
        )
        self.roomy.apply_pressure(10_000, 10_000, level)

    @invariant()
    def the_small_tier_is_the_roomy_one_by_external_id(self):
        small, roomy = self.small, self.roomy
        for kind in ("user", "service"):
            assert small.entity_ids(kind) == roomy.entity_ids(kind)
        assert len(small._u_slot_of) <= small._hot_users
        assert len(small._s_slot_of) <= small._hot_services
        assert not roomy._spilled_users and not roomy._spilled_services
        for ext, slot in small._u_slot_of.items():
            there = roomy._u_slot_of[ext]
            assert np.array_equal(
                small._user_factors.row(slot), roomy._user_factors.row(there)
            )
            assert small.weights.user_error(slot) == roomy.weights.user_error(there)
        for ext, slot in small._s_slot_of.items():
            there = roomy._s_slot_of[ext]
            assert np.array_equal(
                small._service_factors.row(slot), roomy._service_factors.row(there)
            )
            assert small.weights.service_error(slot) == roomy.weights.service_error(
                there
            )
            assert small.service_credence(ext) == roomy.service_credence(ext)
        services = sorted(small._s_slot_of)
        for user in small._u_slot_of:
            assert np.array_equal(
                small.predict_for_user(user, services),
                roomy.predict_for_user(user, services),
            )
        for kind, hot, spilled in (
            ("user", small._u_slot_of, small._spilled_users),
            ("service", small._s_slot_of, small._spilled_services),
        ):
            for ext in hot:
                ours = small.gate.peek_entity(kind, ext)
                assert ours == roomy.gate.peek_entity(kind, ext)
            for ext in spilled:  # its statistics left with it, in the payload
                assert small.gate.peek_entity(kind, ext) is None
                carried = small.revive_payload(kind, ext).get("gate")
                assert carried == roomy.gate.peek_entity(kind, ext)

    @invariant()
    def two_runs_of_one_sequence_are_one_state(self):
        small, twin = self.small, self.twin
        assert small.lifecycle_state() == twin.lifecycle_state()
        assert small.gate.state_dict() == twin.gate.state_dict()
        for kind in ("user", "service"):
            assert small._spill.keys(kind) == twin._spill.keys(kind)
            spilled = set(small._spill.keys(kind))
            assert spilled == small._sides[kind].spilled
            for ext in spilled:
                assert small._spill.get(kind, ext) == twin._spill.get(kind, ext)


TestTieringParity = TieringParityMachine.TestCase
TestTieringParity.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
