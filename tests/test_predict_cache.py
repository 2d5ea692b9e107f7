"""Prediction-cache correctness: a stale entry must never be served.

Staleness in the cache (:class:`repro.core.online.PredictionCache`) is
detected by comparing the per-row version stamps the SGD write sites bump
— and nothing else: under hot/cold tiering an entity leaves its factor
slot and comes back to another, so :class:`repro.lifecycle.TieredAMF`
starts every slot occupancy at a version no other occupancy can reach.
These tests drive every write site (scalar online updates, vectorized
replay scatter, row reinitialisation), the two restart-shaped paths
(checkpoint restore, standby catch-up) and random interleavings of the
lifecycle transitions, and assert the served values always match a
cache-free recomputation — and that the eviction counter/size gauge stay
truthful under demote/revive churn.
"""

import math

import numpy as np
import pytest
from hypothesis import seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core import (
    AdaptiveMatrixFactorization,
    AMFConfig,
    ConcurrentModel,
    PredictionCache,
)
from repro.datasets.schema import QoSRecord
from repro.server.app import PredictionServer
from repro.server.client import PredictionClient


def _feed(model, n=300, n_users=15, n_services=25, seed=3):
    rng = np.random.default_rng(seed)
    for k in range(n):
        model.observe(
            QoSRecord(
                timestamp=float(k),
                user_id=int(rng.integers(0, n_users)),
                service_id=int(rng.integers(0, n_services)),
                value=float(rng.random() * 10 + 0.1),
            )
        )


def _ints(*values):
    return np.asarray(values, dtype=np.int64)


def _lookup(cache, user_id, service_id, user_version, service_version):
    """One pair through the vectorized lookup: the value, or None on a miss."""
    values, hit = cache.lookup(
        user_id, _ints(service_id), user_version, _ints(service_version)
    )
    return float(values[0]) if hit[0] else None


def _store(cache, user_id, service_id, value, user_version, service_version):
    cache.store(
        user_id, _ints(service_id), user_version, _ints(service_version),
        np.asarray([value]),
    )


class TestCacheUnit:
    def test_cold_then_hit_then_stale(self):
        cache = PredictionCache(capacity=8)
        assert _lookup(cache, 1, 2, 10, 20) is None  # cold
        _store(cache, 1, 2, 3.5, 10, 20)
        assert _lookup(cache, 1, 2, 10, 20) == 3.5  # hit
        assert _lookup(cache, 1, 2, 11, 20) is None  # user moved
        assert len(cache) == 0  # ... which drops every pair of that user
        _store(cache, 1, 2, 3.5, 10, 20)
        assert _lookup(cache, 1, 2, 10, 21) is None  # service moved
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 3

    def test_lru_eviction(self):
        """LRU is over users: the least recently read or written user goes,
        with every pair of theirs."""
        cache = PredictionCache(capacity=2)
        _store(cache, 0, 0, 1.0, 0, 0)
        _store(cache, 1, 0, 2.0, 0, 0)
        assert _lookup(cache, 0, 0, 0, 0) == 1.0  # refresh 0 -> 1 is now LRU
        _store(cache, 2, 0, 3.0, 0, 0)
        assert _lookup(cache, 1, 0, 0, 0) is None
        assert _lookup(cache, 0, 0, 0, 0) == 1.0
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            PredictionCache(capacity=0)

    def test_clear(self):
        cache = PredictionCache()
        _store(cache, 0, 0, 1.0, 0, 0)
        cache.clear()
        assert len(cache) == 0
        assert _lookup(cache, 0, 0, 0, 0) is None

    def test_one_lookup_sorts_out_hit_stale_and_cold(self):
        cache = PredictionCache()
        cache.store(7, _ints(5, 1, 3), 1, _ints(50, 10, 30), np.array([5.0, 1.0, 3.0]))
        values, hit = cache.lookup(7, _ints(3, 4, 1, 5), 1, _ints(30, 40, 11, 50))
        assert hit.tolist() == [True, False, False, True]  # 4 cold, 1 stale
        assert values[hit].tolist() == [3.0, 5.0]
        assert cache.stats()["misses"] == 2

    def test_stale_pair_is_refreshed_in_place(self):
        cache = PredictionCache()
        cache.store(7, _ints(1, 3, 5), 1, _ints(10, 30, 50), np.array([1.0, 3.0, 5.0]))
        arrays = [id(column) for column in cache._users[7][1:]]
        cache.store(7, _ints(3), 1, _ints(31), np.array([3.5]))
        assert [id(column) for column in cache._users[7][1:]] == arrays
        assert len(cache) == 3
        assert _lookup(cache, 7, 3, 1, 31) == 3.5
        assert _lookup(cache, 7, 3, 1, 30) is None
        assert _lookup(cache, 7, 5, 1, 50) == 5.0  # neighbours untouched

    def test_new_pairs_merge_into_sorted_order(self):
        cache = PredictionCache()
        cache.store(7, _ints(8, 2), 1, _ints(80, 20), np.array([8.0, 2.0]))
        cache.store(7, _ints(5, 9, 1), 1, _ints(50, 90, 10), np.array([5.0, 9.0, 1.0]))
        __, ids, versions, values = cache._users[7]
        assert ids.tolist() == [1, 2, 5, 8, 9]
        assert versions.tolist() == [10, 20, 50, 80, 90]
        assert values.tolist() == [1.0, 2.0, 5.0, 8.0, 9.0]
        assert len(cache) == 5

    def test_duplicate_ids_in_one_request_are_not_cached(self):
        cache = PredictionCache()
        cache.store(7, _ints(4, 4), 1, _ints(40, 40), np.array([4.0, 4.0]))
        assert len(cache) == 0 and 7 not in cache._users
        cache.store(7, _ints(2), 1, _ints(20), np.array([2.0]))
        cache.store(7, _ints(4, 6, 4), 1, _ints(40, 60, 40), np.array([4.0, 6.0, 4.0]))
        assert len(cache) == 1  # the earlier pair stays, nothing else came in
        assert _lookup(cache, 7, 2, 1, 20) == 2.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_never_cached(self, bad):
        cache = PredictionCache()
        cache.store(7, _ints(1, 2), 1, _ints(10, 20), np.array([1.0, bad]))
        assert len(cache) == 0
        assert _lookup(cache, 7, 1, 1, 10) is None

    def test_capacity_counts_pairs_and_holds_after_every_store(self):
        rng = np.random.default_rng(0)
        cache = PredictionCache(capacity=50)
        for __ in range(400):
            ids = rng.choice(60, size=int(rng.integers(1, 30)), replace=False)
            cache.store(
                int(rng.integers(0, 6)), ids.astype(np.int64), 1,
                np.zeros(ids.size, dtype=np.int64), rng.random(ids.size),
            )
            assert len(cache) <= 50
            assert len(cache) == sum(e[1].size for e in cache._users.values())
        assert cache.stats()["evictions"] > 0


def _service_version(model, service_id):
    return int(model.service_versions(np.array([service_id]))[0])


class TestVersionStamps:
    def test_observe_bumps_both_entities(self):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        _feed(model, n=50)
        user_before = model.user_version(3)
        service_before = _service_version(model, 4)
        other_user = model.user_version(5)
        model.observe(
            QoSRecord(timestamp=100.0, user_id=3, service_id=4, value=2.0)
        )
        assert model.user_version(3) == user_before + 1
        assert _service_version(model, 4) == service_before + 1
        assert model.user_version(5) == other_user

    @pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
    def test_replay_bumps_touched_rows(self, kernel):
        model = AdaptiveMatrixFactorization(
            AMFConfig.for_response_time(kernel=kernel), rng=0
        )
        _feed(model, n=300)
        before = [model.user_version(u) for u in range(model.n_users)]
        applied, __, __ = model.replay_many(300.0, 200)
        assert applied == 200
        after = [model.user_version(u) for u in range(model.n_users)]
        assert sum(after) == sum(before) + applied

    def test_forget_bumps_versions(self):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        _feed(model, n=100)
        user_before = model.user_version(2)
        service_before = _service_version(model, 2)
        model.forget_user(2)
        model.forget_service(2)
        assert model.user_version(2) > user_before
        assert _service_version(model, 2) > service_before


class TestBatchPathAgainstCache:
    def _batch_equals_per_pair(self, cm, cache, user_id, service_ids):
        """The cache never serves a stale value: what it answers is exactly
        what the same kernel computes now without it.  The per-pair path is
        the other shape of that kernel (``math`` against numpy's loops) and
        may differ in the last digits, never by more."""
        values, __ = cm.predict_batch_known(user_id, service_ids, cache)
        uncached, __ = cm.predict_batch_known(user_id, service_ids, cache=None)
        for service_id, value, fresh in zip(service_ids, values, uncached):
            per_pair = cm.predict_known(user_id, service_id)
            if fresh is None:
                assert value is None and per_pair is None
            else:
                assert value == pytest.approx(fresh, abs=0.0)
                assert abs(value - per_pair) <= 2 * math.ulp(per_pair)

    def test_cached_batch_matches_per_pair_predictions(self):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        _feed(model)
        cm = ConcurrentModel(model)
        cache = PredictionCache()
        ids = list(range(10)) + [999]
        # Twice: first pass fills the cache, second serves from it.
        self._batch_equals_per_pair(cm, cache, 1, ids)
        self._batch_equals_per_pair(cm, cache, 1, ids)
        assert cache.stats()["hits"] > 0

    def test_no_stale_serving_after_every_write_kind(self):
        model = AdaptiveMatrixFactorization(
            AMFConfig.for_response_time(kernel="vectorized"), rng=0
        )
        _feed(model)
        cm = ConcurrentModel(model)
        cache = PredictionCache()
        ids = list(range(12))
        self._batch_equals_per_pair(cm, cache, 0, ids)
        # Online SGD write.
        model.observe(QoSRecord(timestamp=301.0, user_id=0, service_id=3, value=9.0))
        self._batch_equals_per_pair(cm, cache, 0, ids)
        # Vectorized replay.
        model.replay_many(301.0, 150)
        self._batch_equals_per_pair(cm, cache, 0, ids)
        # Row reinitialisation.
        model.forget_user(0)
        self._batch_equals_per_pair(cm, cache, 0, ids)

    def test_unknown_user_returns_all_none_without_caching(self):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        _feed(model)
        cm = ConcurrentModel(model)
        cache = PredictionCache()
        values, hits = cm.predict_batch_known(10_000, [0, 1], cache)
        assert values == [None, None]
        assert hits == 0
        assert len(cache) == 0

    def test_duplicate_ids_answer_like_any_other(self):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        _feed(model)
        cm = ConcurrentModel(model)
        cache = PredictionCache()
        ids = [3, 7, 3, 999, 7]
        expected, __ = cm.predict_batch_known(2, ids)
        assert expected[0] == expected[2] and expected[3] is None
        for __ in range(2):  # a request naming an id twice is never cached
            assert cm.predict_batch_known(2, ids, cache) == (expected, 0)
        assert len(cache) == 0
        # ... but it is served from what other requests cached.
        cm.predict_batch_known(2, [3, 7], cache)
        assert cm.predict_batch_known(2, ids, cache) == (expected, 4)

    def test_partly_known_ids_on_a_tiered_model(self):
        """Known-mask, slot-mapped version gather and the fused kernel agree
        on which positions they are talking about when some ids are spilled,
        some never seen, and the rest sit in recycled slots."""
        from repro.lifecycle import LifecycleConfig, TieredAMF

        model = TieredAMF(
            AMFConfig.for_response_time(),
            rng=0,
            lifecycle=LifecycleConfig(hot_users=4, hot_services=6),
        )
        for k in range(120):
            model.observe_reviving(
                QoSRecord(timestamp=float(k), user_id=k % 3,
                          service_id=(k * 7) % 12, value=1.0 + k % 5)
            )
        cm, cache = ConcurrentModel(model), PredictionCache()
        ids = [11, 500, 0, 3, 7, 10**30, 5, 2]
        hot = [sid for sid in ids if model.knows_service(sid)]
        assert 0 < len(hot) < len(ids) and model._spilled_services
        first, hits = cm.predict_batch_known(1, ids, cache)
        assert hits == 0
        assert [v is not None for v in first] == [sid in hot for sid in ids]
        for sid, value in zip(ids, first):
            if value is not None:
                assert value == pytest.approx(model.predict(1, sid), rel=1e-12)
        assert cm.predict_batch_known(1, ids, cache) == (first, len(hot))
        assert cm.predict_batch_known(1, ids) == (first, 0)
        assert len(cache) == len(hot)

    @pytest.mark.parametrize("run_seed", range(5))
    def test_seeded_parity_with_the_uncached_path(self, run_seed):
        """Random rankings interleaved with observes and replay slices: the
        cached path gives, value for value, the answers of ``cache=None``
        (a stale one would be off by a whole SGD step)."""
        rng = np.random.default_rng(run_seed)
        model = AdaptiveMatrixFactorization(
            AMFConfig.for_response_time(kernel="vectorized"), rng=run_seed
        )
        _feed(model, n=400, n_users=12, n_services=60, seed=run_seed)
        cm = ConcurrentModel(model)
        cache = PredictionCache(capacity=200)  # of 720 pairs: evictions too
        clock = 400.0
        for __ in range(600):
            action = rng.random()
            if action < 0.15:
                clock += 1.0
                cm.observe(
                    QoSRecord(timestamp=clock, user_id=int(rng.integers(0, 12)),
                              service_id=int(rng.integers(0, 60)),
                              value=float(rng.random() * 10 + 0.1))
                )
            elif action < 0.25:
                cm.replay_many(clock, int(rng.integers(1, 40)))
            else:
                user_id = int(rng.integers(0, 13))  # 12 is unknown
                ids = rng.choice(64, size=20, replace=False).tolist()  # 60.. unknown
                cached, __ = cm.predict_batch_known(user_id, ids, cache)
                uncached, __ = cm.predict_batch_known(user_id, ids)
                # Same model state, but the fused kernel's summation order
                # depends on which candidates miss together (float64 noise
                # ~1e-13; one missed SGD step would be ~1e-3).
                assert [v is None for v in cached] == [v is None for v in uncached]
                assert [v for v in cached if v is not None] == pytest.approx(
                    [v for v in uncached if v is not None], rel=1e-9, abs=0.0
                )
            assert len(cache) <= 200
        stats = cache.stats()
        assert stats["hits"] > 0 and stats["evictions"] > 0


class TestServerCacheInvalidation:
    def _predictions(self, client, user_id, ids):
        return client.predict_candidates(user_id, ids)

    def test_stale_never_served_after_observation(self, tmp_path):
        with PredictionServer(
            rng=0, background_replay=False, data_dir=str(tmp_path)
        ) as server:
            client = PredictionClient(server.address)
            for k in range(100):
                client.report_observation(
                    k % 4, k % 6, value=2.0 + (k % 3), timestamp=float(k)
                )
            ids = list(range(6))
            first = self._predictions(client, 0, ids)
            again = self._predictions(client, 0, ids)
            assert first == again  # cache serves, values stable
            hits_before = server._predict_cache.stats()["hits"]
            assert hits_before > 0
            # Teach the model something new about user 0, then re-ask: the
            # answers must reflect the write immediately.
            client.report_observation(0, 2, value=15.0, timestamp=200.0)
            after = self._predictions(client, 0, ids)
            assert after != first
            uncached = {
                sid: server.model.predict_known(0, sid) for sid in ids
            }
            for sid in ids:
                assert after[sid] == pytest.approx(uncached[sid], abs=0.0)
            client.close()

    def test_stale_never_served_after_background_replay(self, tmp_path):
        with PredictionServer(
            rng=0, background_replay=True, data_dir=str(tmp_path)
        ) as server:
            client = PredictionClient(server.address)
            for k in range(200):
                client.report_observation(
                    k % 5, k % 7, value=1.0 + (k % 4), timestamp=float(k)
                )
            ids = list(range(7))
            replays_before = server.trainer.replays_applied
            self._predictions(client, 1, ids)
            # Wait for background replay to touch the factors.
            deadline = 5.0
            import time

            start = time.monotonic()
            while (
                server.trainer.replays_applied == replays_before
                and time.monotonic() - start < deadline
            ):
                time.sleep(0.01)
            assert server.trainer.replays_applied > replays_before
            served = self._predictions(client, 1, ids)
            uncached = {
                sid: server.model.predict_known(1, sid) for sid in ids
            }
            # The serve and the recompute race background replay, so allow
            # the model to have moved *between* the two reads — re-serving
            # must converge to the uncached answer once replay pauses.
            server.trainer.stop()
            served = self._predictions(client, 1, ids)
            uncached = {
                sid: server.model.predict_known(1, sid) for sid in ids
            }
            # rel=1e-9, not bit equality: the model state is identical, but
            # the fused batch kernel sums a dot product in a different order
            # than the scalar predict, which can move the last bits.
            for sid in ids:
                assert served[sid] == pytest.approx(uncached[sid], rel=1e-9)
            client.close()

    def test_cache_correct_across_checkpoint_restore(self, tmp_path):
        data_dir = str(tmp_path)
        with PredictionServer(
            rng=0, background_replay=False, data_dir=data_dir
        ) as server:
            client = PredictionClient(server.address)
            for k in range(120):
                client.report_observation(
                    k % 4, k % 5, value=2.0 + (k % 3), timestamp=float(k)
                )
            ids = list(range(5))
            before = self._predictions(client, 0, ids)
            before = self._predictions(client, 0, ids)  # cache is warm
            client.close()
        # Restore: fresh process state, fresh (empty) cache, version
        # counters restarted — recovery must serve from the restored
        # factors, not from anything cached pre-crash.
        with PredictionServer(
            rng=0, background_replay=False, data_dir=data_dir
        ) as restored:
            client = PredictionClient(restored.address)
            assert restored._predict_cache.stats()["size"] == 0
            after = self._predictions(client, 0, ids)
            uncached = {
                sid: restored.model.predict_known(0, sid) for sid in ids
            }
            for sid in ids:
                assert after[sid] == pytest.approx(uncached[sid], abs=0.0)
            # Recovery is exact, so restored answers match pre-restart ones.
            for sid in ids:
                assert after[sid] == pytest.approx(before[sid], abs=0.0)
            client.close()


class TestStandbyCatchUp:
    def test_standby_cache_invalidated_by_replication(self, tmp_path):
        """A standby's cache must go stale when shipped records are applied
        through the replication path (no client writes involved)."""
        from repro.server.replication import ReplicationConfig

        store = str(tmp_path / "epoch.json")
        primary = PredictionServer(
            rng=0,
            background_replay=False,
            data_dir=str(tmp_path / "primary"),
            replication=ReplicationConfig(store, role="primary", node_id="p1"),
        )
        primary.start()
        standby = PredictionServer(
            rng=0,
            background_replay=False,
            data_dir=str(tmp_path / "standby"),
            replication=ReplicationConfig(
                store,
                role="standby",
                node_id="s1",
                primary_address=primary.address,
            ),
        )
        standby.start()
        try:
            # Deterministic catch-up: stop the pull thread, poll explicitly.
            standby._replicator.stop()
            client = PredictionClient(primary.address)
            for k in range(60):
                client.report_observation(
                    k % 3, k % 4, value=2.0 + (k % 2), timestamp=float(k)
                )
            while standby._replicator.poll_once():
                pass
            sclient = PredictionClient(standby.address)
            ids = list(range(4))
            first = sclient.predict_candidates(0, ids)
            first = sclient.predict_candidates(0, ids)  # warm the cache
            assert standby._predict_cache.stats()["hits"] > 0
            # More primary writes, shipped to the standby.
            client.report_observation(0, 1, value=19.0, timestamp=100.0)
            client.report_observation(0, 2, value=19.0, timestamp=101.0)
            while standby._replicator.poll_once():
                pass
            after = sclient.predict_candidates(0, ids)
            uncached = {
                sid: standby.model.predict_known(0, sid) for sid in ids
            }
            for sid in ids:
                assert after[sid] == pytest.approx(uncached[sid], abs=0.0)
            assert after != first
            client.close()
            sclient.close()
        finally:
            standby.stop()
            primary.stop()


class TestEvictionMetricsUnderChurn:
    def test_demote_revive_churn_tracks_counter_and_size_gauge(self, monkeypatch):
        from repro.lifecycle import LifecycleConfig
        from repro.observability import get_registry
        from repro.server import app

        monkeypatch.setattr(app, "_PREDICT_CACHE_PAIRS", 48)

        registry = get_registry()
        evictions = registry.counter("qos_predict_cache_evictions_total")
        size_gauge = registry.gauge("qos_predict_cache_size")
        ids = list(range(8))
        with PredictionServer(
            rng=0,
            background_replay=False,
            lifecycle=LifecycleConfig(hot_users=8, hot_services=8),
        ) as server:
            client = PredictionClient(server.address, transport="json")
            cache = server._predict_cache

            def served_equals_uncached(user_id):
                served = client.predict_candidates(user_id, ids)
                uncached, __ = server.model.predict_batch_known(user_id, ids)
                assert [served[s] for s in ids] == uncached
                return served

            # Fill the hot tier exactly, then cache predictions for the
            # oldest users.
            for k in range(64):
                client.report_observation(
                    k % 8, k // 8, value=1.0 + (k % 5), timestamp=float(k)
                )
            first = {u: served_equals_uncached(u) for u in range(4)}
            assert len(cache) == 32
            assert size_gauge.value == float(len(cache))
            before = evictions.value

            # Churn: new users overflow the hot tier and demote the oldest;
            # every observation also moves a service row, so what the
            # demoted users left in the cache is dead weight for the LRU
            # bound (48) to push out as the newcomers' predictions arrive.
            for k in range(32):
                client.report_observation(
                    100 + k, k % 8, value=2.0, timestamp=float(100 + k)
                )
                served_equals_uncached(100 + k)
            assert server._lifecycle_status()["demoted_users"] > 0
            assert not server.model.with_model(lambda m: m.knows_user(0))
            churn_evictions = evictions.value - before
            assert churn_evictions >= 1
            assert cache.stats()["evictions"] >= churn_evictions
            assert len(cache) <= 48
            assert size_gauge.value == float(len(cache))

            # A read of a demoted user goes past the cache — his stored row
            # has no slot version to stamp — and leaves him where he is.
            untouched = cache.stats()
            for u in range(4):
                cold = served_equals_uncached(u)
                assert cold != first[u]  # the service rows have moved
                assert served_equals_uncached(u) == cold
            assert server.model.with_model(lambda m: sorted(m._spilled_users)[:4]) == [
                0, 1, 2, 3
            ]
            assert cache.stats() == untouched  # no lookup, no store
            assert size_gauge.value == float(untouched["size"])

            # An observe brings each back hot, into a slot other users held
            # in between: what is served must be the revived factors'
            # answer, not anything stamped before.
            for u in range(4):
                client.report_observation(u, 0, value=1.5, timestamp=200.0 + u)
                revived = served_equals_uncached(u)
                assert revived != first[u]
                assert served_equals_uncached(u) == revived  # now from cache
            assert server._lifecycle_status()["revived_users"] >= 4
            assert cache.stats()["hits"] >= untouched["hits"] + 4 * len(ids)
            assert size_gauge.value == float(len(cache))
            client.close()

    def test_an_entity_back_at_an_old_version_number_is_not_served_stale(self):
        """The collision per-slot ``+= 1`` counters allow: user 0 is cached
        at write-count 3, forgotten, and re-created in the slot user 1 left
        at write-count 1 — reinitialise + observe make that 3 again."""
        from repro.lifecycle import LifecycleConfig, TieredAMF

        model = TieredAMF(
            AMFConfig.for_response_time(),
            rng=0,
            lifecycle=LifecycleConfig(hot_users=4, hot_services=4),
        )
        cm, cache = ConcurrentModel(model), PredictionCache()

        def observe(user_id, service_id, k):
            model.observe(
                QoSRecord(timestamp=float(k), user_id=user_id,
                          service_id=service_id, value=1.0 + k)
            )

        observe(2, 1, 0)  # service 1 exists and is never written again
        for k in range(3):
            observe(0, 0, 1 + k)
        observe(1, 0, 4)
        cached, __ = cm.predict_batch_known(0, [1], cache)
        assert cm.predict_batch_known(0, [1], cache) == (cached, 1)
        model.forget_user(0)
        model.forget_user(1)
        observe(0, 0, 5)  # user 0 again: a fresh row in user 1's old slot
        fresh, __ = cm.predict_batch_known(0, [1], None)
        assert fresh != cached
        assert cm.predict_batch_known(0, [1], cache) == (fresh, 0)


@seed(5)
class StampContractMachine(RuleBasedStateMachine):
    """Version stamps alone keep the cache honest under tiering: after any
    interleaving of observe / demote (capacity pressure) / revive /
    forget / export-import / remove + re-create over a two-slot hot tier,
    a cached batch read equals the cache-free one, value for value."""

    USERS = st.integers(0, 2)
    SERVICES = st.integers(0, 2)
    KINDS = st.sampled_from(["user", "service"])
    #: Who reads after a step: one drawn user, or (None) all of them.  Only
    #: a reader's entries are looked up and so refreshed; everyone else's
    #: stay as stamped, whatever happens next.
    READERS = st.one_of(st.none(), USERS)
    ALL_SERVICES = list(range(3))

    def __init__(self):
        super().__init__()
        from repro.lifecycle import LifecycleConfig, TieredAMF

        self.model = TieredAMF(
            AMFConfig.for_response_time(),
            rng=0,
            lifecycle=LifecycleConfig(hot_users=2, hot_services=2),
        )
        self.cm = ConcurrentModel(self.model)
        self.cache = PredictionCache(capacity=8)  # of 9 pairs
        self.clock = 0.0

    def check(self, reader):
        for user in range(3) if reader is None else [reader]:
            cached, __ = self.cm.predict_batch_known(
                user, self.ALL_SERVICES, self.cache
            )
            uncached, __ = self.cm.predict_batch_known(user, self.ALL_SERVICES)
            assert cached == uncached

    @rule(user=USERS, service=SERVICES, value=st.floats(0.1, 10.0), reader=READERS)
    def observe(self, user, service, value, reader):
        self.clock += 1.0
        self.model.observe_reviving(
            QoSRecord(timestamp=self.clock, user_id=user, service_id=service,
                      value=value)
        )
        self.check(reader)

    @rule(kind=KINDS, ext=USERS, reader=READERS)
    def revive(self, kind, ext, reader):
        user, service = (ext, None) if kind == "user" else (None, ext)
        for pending in self.model.pending_revivals(user, service):
            self.model.apply_revive(*pending, self.model.revive_payload(*pending))
        self.check(reader)

    @rule(kind=KINDS, ext=USERS, remove=st.booleans(), reader=READERS)
    def forget(self, kind, ext, remove, reader):
        if remove:
            self.model.remove_entity(kind, ext)
        elif kind == "user":
            self.model.forget_user(ext)
        else:
            self.model.forget_service(ext)
        self.check(reader)

    @rule(kind=KINDS, ext=USERS, reader=READERS)
    def export_then_import(self, kind, ext, reader):
        try:
            payload = self.model.export_payload(kind, ext)
        except KeyError:
            return
        self.model.import_entities([(kind, ext, payload)])
        self.check(reader)


TestStampContract = StampContractMachine.TestCase
# Seeded: every run walks the same interleavings, and a harmful collision
# needs several small counters to coincide — this seed reaches one within
# its first examples when ``TieredAMF._occupancy_stamp`` is taken out and a
# slot's version is merely bumped as its occupant changes.
TestStampContract.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
