"""Integration: the adaptation loop driven through the concurrent stack.

Combines the pieces a deployment would actually wire together: a
lock-protected model with a background replay daemon underneath a
prediction service, consumed by execution engines driven by a Poisson
workload — the closest in-process approximation of the paper's Fig. 3
running system.
"""

import time

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
from repro.core import AMFConfig, AdaptiveMatrixFactorization, BackgroundTrainer, ConcurrentModel
from repro.datasets import generate_dataset
from repro.datasets.schema import QoSRecord
from tests.simkit import drive_engines, merge_workloads, poisson_arrivals


class TestWorkloadDrivenAdaptation:
    def test_poisson_driven_multi_user_run(self):
        data = generate_dataset(n_users=6, n_services=15, n_slices=4, seed=13)
        oracle = TensorQoSOracle(data, noise_sigma=0.05, rng=13)
        registry = ServiceRegistry()
        for sid in range(15):
            registry.register(sid, "t")
        predictor = QoSPredictionService(AMFConfig.for_response_time(), rng=13)
        sla = SLA(attribute="rt", threshold=2.5)

        engines = {}
        for user_id in range(3):
            workflow = Workflow(name=f"w{user_id}", tasks=[AbstractTask("A", "t")])
            workflow.bind("A", user_id)
            engines[user_id] = ExecutionEngine(
                user_id=user_id,
                workflow=workflow,
                registry=registry,
                predictor=predictor,
                policy=ThresholdPolicy(sla),
                oracle=oracle,
                sla=sla,
            )

        workload = merge_workloads(
            *[
                poisson_arrivals(
                    rate_per_second=0.02,
                    duration=3000.0,
                    user_id=user_id,
                    rng=13 + user_id,
                )
                for user_id in range(3)
            ]
        )
        executed = drive_engines(engines, workload)
        assert executed == len(workload)
        total = sum(engine.stats.executions for engine in engines.values())
        assert total == executed
        assert predictor.observations_handled == executed  # one task each

    def test_daemon_backed_predictor_in_engine(self):
        """An engine whose predictor is served by the concurrent stack."""
        data = generate_dataset(n_users=5, n_services=10, n_slices=2, seed=14)
        shared = ConcurrentModel(
            AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=14)
        )

        class DaemonBackedService:
            """QoSPredictionService-compatible facade over ConcurrentModel."""

            def __init__(self, model):
                self.model = model
                self.observations_handled = 0

            def report_observation(self, user_id, service_id, value, timestamp):
                self.model.observe(
                    QoSRecord(
                        timestamp=timestamp,
                        user_id=user_id,
                        service_id=service_id,
                        value=value,
                    )
                )
                self.observations_handled += 1

            def predict(self, user_id, service_id):
                return self.model.predict(user_id, service_id)

            def predict_candidates(self, user_id, service_ids):
                return {s: self.predict(user_id, s) for s in service_ids}

            def best_candidate(self, user_id, service_ids, lower_is_better=True):
                predictions = self.predict_candidates(user_id, service_ids)
                key = min if lower_is_better else max
                best = key(predictions, key=predictions.get)
                return best, predictions[best]

        predictor = DaemonBackedService(shared)
        registry = ServiceRegistry()
        for sid in range(10):
            registry.register(sid, "t")
        workflow = Workflow(name="w", tasks=[AbstractTask("A", "t")])
        workflow.bind("A", 0)
        sla = SLA(attribute="rt", threshold=2.0)
        engine = ExecutionEngine(
            user_id=0,
            workflow=workflow,
            registry=registry,
            predictor=predictor,
            policy=ThresholdPolicy(sla),
            oracle=TensorQoSOracle(data, noise_sigma=0.0, rng=14),
            sla=sla,
        )
        with BackgroundTrainer(shared):
            stats = engine.run(start=0.0, interval=20.0, count=40)
            time.sleep(0.2)  # let the daemon replay under live traffic
        assert stats.executions == 40
        assert shared.updates_applied > 40  # daemon replays on top of arrivals
        assert np.all(np.isfinite(shared.predict_matrix()))
