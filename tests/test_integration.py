"""Cross-module integration tests: full pipelines through the public API."""

import numpy as np
import pytest

from repro import AdaptiveMatrixFactorization, AMFConfig, StreamTrainer
from repro.adaptation import (
    SLA,
    AbstractTask,
    ExecutionEngine,
    QoSPredictionService,
    ServiceRegistry,
    TensorQoSOracle,
    ThresholdPolicy,
    UserManager,
    Workflow,
)
from repro.datasets import generate_dataset, train_test_split_matrix
from repro.datasets.stream import stream_from_matrix, stream_from_slices
from repro.metrics import mre, score_all, top_k_hit_rate
from tests.simkit import ChurnEvent, ChurnSchedule, SimClock


class TestPredictionPipeline:
    def test_generate_split_train_score(self):
        """The quickstart path end to end."""
        data = generate_dataset(n_users=25, n_services=50, n_slices=1, seed=0)
        train, test = train_test_split_matrix(data.slice(0), 0.3, rng=0)
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        model.ensure_user(24)
        model.ensure_service(49)
        report = StreamTrainer(model).process(stream_from_matrix(train, rng=0))
        assert report.converged
        rows, cols = test.observed_indices()
        scores = score_all(model.predict_matrix()[rows, cols], test.values[rows, cols])
        assert scores["MRE"] < 0.8

    def test_multi_slice_continuous_stream(self):
        """Feeding all slices as one continuous stream keeps the model
        current with the final slice's values."""
        data = generate_dataset(n_users=20, n_services=40, n_slices=4, seed=1)
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=1)
        trainer = StreamTrainer(model)
        stream = stream_from_slices(data, rng=1)
        trainer.process(stream)
        # Retained samples must come from the final slice's window only
        # (everything older has expired).
        assert model.n_stored_samples <= int(data.mask[-2:].sum())
        final = data.slice(3)
        rows, cols = final.observed_indices()
        predictions = model.predict_matrix()[rows, cols]
        assert mre(predictions, final.values[rows, cols]) < 0.6

    def test_prediction_supports_candidate_ranking(self):
        """QoS predictions are good enough to rank candidates (the actual
        adaptation use-case), measured with top-k hit rate."""
        data = generate_dataset(n_users=30, n_services=60, n_slices=1, seed=2)
        matrix = data.slice(0)
        train, __ = train_test_split_matrix(matrix, 0.4, rng=2)
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=2)
        model.ensure_user(29)
        model.ensure_service(59)
        StreamTrainer(model).process(stream_from_matrix(train, rng=2))
        predictions = model.predict_matrix()

        rng = np.random.default_rng(2)
        hits = []
        for __ in range(50):
            user = int(rng.integers(30))
            pool = rng.choice(60, size=8, replace=False)
            hits.append(
                top_k_hit_rate(predictions[user, pool], matrix.values[user, pool], k=3)
            )
        assert np.mean(hits) > 0.5  # random guessing would give 3/8


class TestAdaptationPipeline:
    def test_full_loop_with_churn(self):
        """Engine + policy + predictor + registry + churn + clock together."""
        data = generate_dataset(n_users=10, n_services=20, n_slices=4, seed=3)
        oracle = TensorQoSOracle(data, noise_sigma=0.05, rng=3)
        registry = ServiceRegistry()
        for sid in range(15):
            registry.register(sid, "t")
        # 5 services join later via the churn schedule.
        schedule = ChurnSchedule(
            [
                ChurnEvent(
                    timestamp=600.0, entity_kind="service", entity_id=sid, action="join"
                )
                for sid in range(15, 20)
            ]
        )
        workflow = Workflow(name="w", tasks=[AbstractTask("A", "t")])
        workflow.bind("A", 0)
        predictor = QoSPredictionService(AMFConfig.for_response_time(), rng=3)
        sla = SLA(attribute="rt", threshold=2.0)
        engine = ExecutionEngine(
            user_id=0,
            workflow=workflow,
            registry=registry,
            predictor=predictor,
            policy=ThresholdPolicy(sla, improvement_margin=0.05),
            oracle=oracle,
            sla=sla,
            users=UserManager(),
        )
        clock = SimClock()
        for __ in range(60):
            clock.advance(30.0)
            for event in schedule.pop_due(clock.now):
                registry.register(event.entity_id, "t", at=event.timestamp)
            engine.execute_once(clock.now)
        assert engine.stats.executions == 60
        assert len(registry) == 20  # churned services arrived
        assert predictor.observations_handled == 60

    def test_predictor_shared_across_users(self):
        """Two engines (users) share one prediction service — the
        collaborative-filtering premise of the framework."""
        data = generate_dataset(n_users=6, n_services=10, n_slices=2, seed=4)
        oracle = TensorQoSOracle(data, noise_sigma=0.0, rng=4)
        registry = ServiceRegistry()
        for sid in range(10):
            registry.register(sid, "t")
        predictor = QoSPredictionService(AMFConfig.for_response_time(), rng=4)
        sla = SLA(attribute="rt", threshold=3.0)
        engines = []
        for user_id in (0, 1):
            workflow = Workflow(name=f"w{user_id}", tasks=[AbstractTask("A", "t")])
            workflow.bind("A", user_id)
            engines.append(
                ExecutionEngine(
                    user_id=user_id,
                    workflow=workflow,
                    registry=registry,
                    predictor=predictor,
                    policy=ThresholdPolicy(sla),
                    oracle=oracle,
                    sla=sla,
                )
            )
        for k in range(20):
            for engine in engines:
                engine.execute_once(now=k * 30.0)
        assert predictor.observations_handled == 40
        assert predictor.model.n_users >= 2


class TestRealDatasetFormatPipeline:
    def test_wsdream_file_to_amf(self, tmp_path):
        """Write a tiny dataset in the real WS-DREAM text format, load it,
        and run the full train/predict pipeline on it."""
        rng = np.random.default_rng(5)
        lines = []
        for t in range(2):
            for u in range(8):
                for s in range(12):
                    if rng.random() < 0.7:
                        lines.append(f"{u} {s} {t} {rng.uniform(0.1, 5.0):.4f}")
        (tmp_path / "rtdata.txt").write_text("\n".join(lines))

        from repro.datasets.wsdream import load_wsdream_directory

        data = load_wsdream_directory(str(tmp_path))
        train, test = train_test_split_matrix(data.slice(0), 0.4, rng=5)
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=5)
        model.ensure_user(data.n_users - 1)
        model.ensure_service(data.n_services - 1)
        StreamTrainer(model).process(stream_from_matrix(train, rng=5))
        rows, cols = test.observed_indices()
        predictions = model.predict_matrix()[rows, cols]
        assert np.all(np.isfinite(predictions))
        assert mre(predictions, test.values[rows, cols]) < 2.0
