"""repro — reproduction of "Towards Online, Accurate, and Scalable QoS
Prediction for Runtime Service Adaptation" (Zhu, He, Zheng, Lyu; ICDCS 2014).

The package implements the paper's Adaptive Matrix Factorization (AMF) model
(:mod:`repro.core`), the baselines it is compared against
(:mod:`repro.baselines`), a statistical twin of the WS-DREAM dataset plus the
real-format loader (:mod:`repro.datasets`), the evaluation metrics
(:mod:`repro.metrics`), a runnable version of the paper's QoS-driven service
adaptation framework (:mod:`repro.adaptation`), a dependency-free metrics
registry with Prometheus output (:mod:`repro.observability`), and one
experiment module per table/figure of the evaluation section
(:mod:`repro.experiments`).

Quick start::

    from repro import AdaptiveMatrixFactorization, AMFConfig
    from repro.datasets import generate_dataset, train_test_split_matrix
    from repro.datasets.stream import stream_from_matrix

    data = generate_dataset(n_users=50, n_services=100, n_slices=4)
    train, test = train_test_split_matrix(data.slice(0), train_density=0.2, rng=0)
    model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
    for record in stream_from_matrix(train, rng=0):
        model.observe(record)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__ = lazy_exports(
    __name__,
    dict.fromkeys(
        ("AdaptiveMatrixFactorization", "AMFConfig", "StreamTrainer", "TrainReport"),
        "repro.core",
    ),
)

__all__ = [
    "AdaptiveMatrixFactorization",
    "AMFConfig",
    "StreamTrainer",
    "TrainReport",
    "__version__",
]
