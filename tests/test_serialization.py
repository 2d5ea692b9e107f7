"""Tests for AMF model save/load round-trips."""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveMatrixFactorization,
    AMFConfig,
    StreamTrainer,
    load_model,
    save_model,
)
from repro.core.amf import _GrowableFactors, _SampleStore
from repro.core.fallback import FallbackPredictor
from repro.core.serialization import _read_json, archive_digest
from repro.datasets.schema import QoSRecord
from repro.robustness import DedupLedger


def trained_model(seed=0, n=300):
    model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=seed)
    rng = np.random.default_rng(seed)
    for k in range(n):
        model.observe(
            QoSRecord(
                timestamp=float(k),
                user_id=int(rng.integers(10)),
                service_id=int(rng.integers(20)),
                value=float(rng.uniform(0.1, 5.0)),
            )
        )
    return model


class TestRoundTrip:
    def test_predictions_identical(self, tmp_path):
        model = trained_model()
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        restored = load_model(path, rng=1)
        np.testing.assert_array_equal(restored.predict_matrix(), model.predict_matrix())

    def test_config_restored(self, tmp_path):
        model = AdaptiveMatrixFactorization(
            AMFConfig.for_throughput(rank=7, beta=0.4), rng=0
        )
        model.observe(QoSRecord(timestamp=0, user_id=0, service_id=0, value=10.0))
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        restored = load_model(path)
        assert restored.config == model.config

    def test_error_trackers_restored(self, tmp_path):
        model = trained_model()
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        restored = load_model(path)
        np.testing.assert_allclose(
            restored.weights.user_error_snapshot(), model.weights.user_error_snapshot()
        )
        np.testing.assert_allclose(
            restored.weights.service_error_snapshot(),
            model.weights.service_error_snapshot(),
        )

    def test_sample_store_restored(self, tmp_path):
        model = trained_model()
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        restored = load_model(path)
        assert restored.n_stored_samples == model.n_stored_samples
        for key in model._store.keys():
            assert restored._store.get(*key) == model._store.get(*key)

    def test_updates_counter_restored(self, tmp_path):
        model = trained_model()
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        assert load_model(path).updates_applied == model.updates_applied

    def test_restored_model_keeps_learning(self, tmp_path):
        """A restored model must continue online training seamlessly."""
        model = trained_model()
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        restored = load_model(path, rng=2)
        trainer = StreamTrainer(restored)
        report = trainer.replay_until_converged(now=float(10**6 - 1))
        assert report.replays > 0 or report.expired > 0
        restored.observe(QoSRecord(timestamp=0, user_id=50, service_id=60, value=1.0))
        assert restored.n_users == 51  # new entities still register

    def test_empty_model_roundtrip(self, tmp_path):
        model = AdaptiveMatrixFactorization(rng=0)
        path = str(tmp_path / "empty.npz")
        save_model(model, path)
        restored = load_model(path)
        assert restored.n_users == 0
        assert restored.n_stored_samples == 0

    def test_newer_format_rejected(self, tmp_path):
        import repro.core.serialization as serialization

        model = trained_model(n=10)
        path = str(tmp_path / "model.npz")
        original = serialization.FORMAT_VERSION
        try:
            serialization.FORMAT_VERSION = 99
            save_model(model, path)
        finally:
            serialization.FORMAT_VERSION = original
        with pytest.raises(ValueError, match="newer"):
            load_model(path)


def ledger_extra(keys, wal_seq=7) -> dict:
    ledger = DedupLedger(capacity=max(len(keys), 1))
    for key in keys:
        ledger.add(key)
    return {
        "wal_seq": wal_seq,
        "robustness": {"ledger": ledger.state_dict(), "latest_ingest_ts": 3.0},
        "replication": {"epoch": 2, "role": "primary"},
    }


def save_v5(model, path, extra) -> None:
    """``save_model`` as format v5 wrote it: deflated, UCS4 JSON members,
    and the dedup ledger's keys inside ``extra_json``."""
    users, services, timestamps, values, __ = model._store.columns()
    config = {
        field: getattr(model.config, field) for field in model.config.__dataclass_fields__
    }
    np.savez_compressed(
        path,
        format_version=np.int64(5),
        config_json=np.array(json.dumps(config)),
        rng_state_json=np.array(json.dumps(model._rng.bit_generator.state)),
        extra_json=np.array(json.dumps(extra)),
        user_factors=model.user_factors(),
        service_factors=model.service_factors(),
        user_errors=model.weights.user_error_snapshot(),
        service_errors=model.weights.service_error_snapshot(),
        store_users=np.asarray(users, dtype=np.int64),
        store_services=np.asarray(services, dtype=np.int64),
        store_timestamps=np.array(timestamps, dtype=float),
        store_values=np.array(values, dtype=float),
        updates_applied=np.int64(model.updates_applied),
    )


def model_state(model) -> dict:
    """Everything a restore rebuilds, store indices and RNG state included."""
    store = model._store
    return {
        "config": model.config,
        "user_factors": model.user_factors(),
        "service_factors": model.service_factors(),
        "user_errors": model.weights.user_error_snapshot(),
        "service_errors": model.weights.service_error_snapshot(),
        "columns": [column.copy() for column in store.columns()],
        "keys": store.keys(),
        "positions": dict(store._positions),
        "user_index": store._user_index,
        "service_index": store._service_index,
        "updates_applied": model.updates_applied,
        "rng": model._rng.bit_generator.state,
    }


def assert_same_state(ours: dict, theirs: dict) -> None:
    assert ours.keys() == theirs.keys()
    for part, value in ours.items():
        if part in ("user_factors", "service_factors", "user_errors", "service_errors"):
            assert np.array_equal(value, theirs[part]), part
        elif part == "columns":
            # NaN-free columns: bit-equal means equal.
            assert all(map(np.array_equal, value, theirs[part])), part
        else:
            assert value == theirs[part], part


class TestStoredFormat:
    """Format v6: stored, UTF-8 JSON members, the ledger's keys outside
    the JSON — and every older layout still loads."""

    KEYS = ["in-A-1", "ü-ñ-✓", "a\nb", "\x00", "k" * 256, '"quoted"', "\ud83d", "\ude00"]

    def test_archive_is_stored_with_utf8_json_members(self, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(trained_model(n=50), path, extra=ledger_extra(self.KEYS))
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED
            }
        with np.load(path) as members:
            for name in ("config_json", "rng_state_json", "extra_json"):
                assert members[name].dtype == np.uint8
            extra = _read_json(members["extra_json"])
            assert extra["robustness"]["ledger"] == {"capacity": len(self.KEYS)}
            assert members["ledger_key_lengths"].tolist() == list(map(len, self.KEYS))

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.text(
                st.characters(exclude_categories=()) | st.characters(categories=["Cs"]),
                max_size=256,
            ),
            unique=True,
            max_size=20,
        )
    )
    def test_ledger_keys_round_trip_whatever_they_hold(self, tmp_path_factory, keys):
        """Keys are arbitrary strings — separators, NULs, any plane, lone
        surrogates (a JSON "\\ud800" decodes to one) — so lengths, not a
        separator, split them again."""
        path = str(tmp_path_factory.mktemp("ledger") / "model.npz")
        extra = ledger_extra(keys)
        save_model(trained_model(n=5), path, extra=extra)
        __, restored = load_model(path, return_extra=True)
        assert restored == extra
        ledger = DedupLedger()
        ledger.restore(restored["robustness"]["ledger"])
        assert ledger.state_dict() == extra["robustness"]["ledger"]

    def test_a_v5_archive_loads_into_the_same_state(self, tmp_path):
        model = trained_model()
        extra = ledger_extra(self.KEYS)
        save_model(model, str(tmp_path / "v6.npz"), extra=extra)
        save_v5(model, str(tmp_path / "v5.npz"), extra)
        v6, extra_v6 = load_model(str(tmp_path / "v6.npz"), return_extra=True)
        v5, extra_v5 = load_model(str(tmp_path / "v5.npz"), return_extra=True)
        assert extra_v5 == extra_v6 == extra
        assert_same_state(model_state(v5), model_state(v6))
        # And the model that was saved, but for the normalized values, which
        # a restore recomputes in one array pass.
        ours, theirs = model_state(v6), model_state(model)
        ours["columns"].pop()
        theirs["columns"].pop()
        assert_same_state(ours, theirs)

    @pytest.mark.parametrize("save", [save_model, save_v5], ids=["v6", "v5"])
    def test_digests_ignore_extras_by_name_in_both_layouts(self, tmp_path, save):
        model = trained_model(n=50)

        def digest(name, extra, ignore=()):
            path = str(tmp_path / f"{name}.npz")
            save(model, path, extra)
            return archive_digest(path, ignore_extra=ignore)

        base = ledger_extra(self.KEYS)
        bumped = ledger_extra(self.KEYS, wal_seq=8)
        other_keys = ledger_extra(self.KEYS[:-1] + ["another"])
        assert digest("a", base) != digest("b", bumped)
        assert digest("a", base, ("wal_seq",)) == digest("b", bumped, ("wal_seq",))
        assert digest("a", base, ("wal_seq",)) != digest("c", other_keys, ("wal_seq",))
        assert digest("a", base, ("robustness",)) == digest("c", other_keys, ("robustness",))


class TestBulkRestore:
    """A restore rebuilds in bulk exactly what the per-row paths build."""

    @pytest.mark.parametrize("rank", [1, 4, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_draw_for_many_rows_equals_one_draw_per_row(self, seed, rank):
        bulk = _GrowableFactors(rank, 0.1, np.random.default_rng(seed))
        bulk.ensure(2)
        bulk.ensure(40)  # 38 new rows, one call
        rng = np.random.default_rng(seed)
        rows = np.stack([rng.standard_normal(rank) * 0.1 for __ in range(41)])
        assert np.array_equal(bulk.matrix().view(np.uint64), rows.view(np.uint64))
        assert bulk._rng.bit_generator.state == rng.bit_generator.state

    def test_store_load_equals_one_put_per_row(self):
        rng = np.random.default_rng(3)
        organic = _SampleStore()
        for k in range(400):
            user, service = int(rng.integers(15)), int(rng.integers(25))
            organic.put(user, service, float(k), float(rng.uniform(0.1, 5)), 0.5)
        for k in range(30):  # swap-removes leave a non-trivial physical order
            organic.discard(*organic.keys()[int(rng.integers(len(organic)))])
        columns = [column.copy() for column in organic.columns()]
        bulk, per_row = _SampleStore(), _SampleStore()
        bulk.load(*columns)
        for row in zip(*(column.tolist() for column in columns)):
            per_row.put(*row)
        for store in (bulk, per_row):
            assert store.keys() == organic.keys()
            assert store._positions == organic._positions
            assert store._user_index == organic._user_index
            assert store._service_index == organic._service_index
            assert all(map(np.array_equal, store.columns(), columns))

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.integers(0, 30), st.integers(0, 30), st.floats(1e-3, 1e4)
            ),
            max_size=200,
        )
    )
    def test_seeding_the_fallback_equals_folding_each_sample(self, samples):
        folded, seeded = FallbackPredictor(prior=1.0), FallbackPredictor(prior=1.0)
        for user, service, value in samples:
            folded.observe(user, service, value)
        users, services, values = (
            [sample[field] for sample in samples] for field in range(3)
        )
        assert seeded.seed_from_samples(users, services, values) == len(samples)
        for table in ("_users", "_services", "_global"):
            ours, theirs = getattr(seeded, table), getattr(folded, table)
            if table == "_global":
                ours, theirs = {None: ours}, {None: theirs}
            assert ours.keys() == theirs.keys()
            for ident, mean in ours.items():
                assert (mean.count, mean.total) == (theirs[ident].count, theirs[ident].total)
        for user in range(32):
            for service in (0, 31):
                assert seeded.predict(user, service) == folded.predict(user, service)
