"""Shared scaffolding for the paper-reproduction experiments.

Centralizes the pieces every experiment repeats: the dataset scale presets,
the paper's hyper-parameters per QoS attribute, and the two evaluation
drivers (online AMF on a randomized stream; batch baselines on a sparse
matrix), all returning the Section V-B metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines import IPCC, PMF, UIPCC, UPCC, PMFConfig
from repro.baselines.base import MatrixPredictor
from repro.core import AdaptiveMatrixFactorization, AMFConfig, StreamTrainer
from repro.datasets import generate_dataset, train_test_split_matrix
from repro.datasets.schema import QoSMatrix, TimeSlicedQoS
from repro.datasets.stream import stream_from_matrix
from repro.metrics import score_all
from repro.utils.rng import spawn_rng


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Dataset size and repetition settings for an experiment run.

    ``paper()`` is the full WS-DREAM scale the paper uses; ``quick()`` (the
    default everywhere) keeps laptop/CI runs in seconds while preserving
    every qualitative shape; ``tiny()`` is for unit tests.
    """

    n_users: int = 142
    n_services: int = 300
    n_slices: int = 8
    reruns: int = 3
    seed: int = 42

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Full paper scale: 142 users x 4,500 services x 64 slices, 20 reruns."""
        return cls(n_users=142, n_services=4500, n_slices=64, reruns=20, seed=42)

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Reduced scale for interactive runs and benches (the default)."""
        return cls()

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """Minimal scale for unit tests."""
        return cls(n_users=25, n_services=50, n_slices=2, reruns=1, seed=7)

    def with_updates(self, **overrides: object) -> "ExperimentScale":
        return replace(self, **overrides)

    def dataset(self, attribute: str = "response_time") -> TimeSlicedQoS:
        """Generate the synthetic dataset for this scale."""
        return generate_dataset(
            n_users=self.n_users,
            n_services=self.n_services,
            n_slices=self.n_slices,
            seed=self.seed,
            attribute=attribute,
        )


@dataclass(frozen=True)
class FixedDatasetScale:
    """An :class:`ExperimentScale` backed by pre-loaded tensors.

    Lets every experiment module run unchanged against real data (e.g. the
    WS-DREAM files loaded via :func:`repro.datasets.load_wsdream_directory`)
    instead of the synthetic twin::

        rt = load_wsdream_directory("/data/wsdream", "response_time")
        tp = load_wsdream_directory("/data/wsdream", "throughput")
        scale = FixedDatasetScale.from_tensors(rt, tp, reruns=20)
        run_table1(scale)

    The dataclass mirrors the fields experiments read (`n_users`,
    `n_services`, `n_slices`, `reruns`, `seed`) and serves the stored
    tensors from :meth:`dataset`.
    """

    sources: "dict[str, TimeSlicedQoS]"
    reruns: int = 3
    seed: int = 42

    @classmethod
    def from_tensors(
        cls,
        response_time: "TimeSlicedQoS | None" = None,
        throughput: "TimeSlicedQoS | None" = None,
        reruns: int = 3,
        seed: int = 42,
    ) -> "FixedDatasetScale":
        sources: dict[str, TimeSlicedQoS] = {}
        if response_time is not None:
            sources["response_time"] = response_time
        if throughput is not None:
            sources["throughput"] = throughput
        if not sources:
            raise ValueError("provide at least one attribute tensor")
        shapes = {tensor.tensor.shape for tensor in sources.values()}
        if len(shapes) > 1:
            raise ValueError(f"attribute tensors disagree on shape: {shapes}")
        return cls(sources=sources, reruns=reruns, seed=seed)

    def _any(self) -> TimeSlicedQoS:
        return next(iter(self.sources.values()))

    @property
    def n_users(self) -> int:
        return self._any().n_users

    @property
    def n_services(self) -> int:
        return self._any().n_services

    @property
    def n_slices(self) -> int:
        return self._any().n_slices

    def with_updates(self, **overrides: object) -> "FixedDatasetScale":
        return replace(self, **overrides)

    def dataset(self, attribute: str = "response_time") -> TimeSlicedQoS:
        canonical = "response_time" if attribute in ("response_time", "rt") else (
            "throughput" if attribute in ("throughput", "tp") else attribute
        )
        if canonical not in self.sources:
            raise KeyError(
                f"no {canonical!r} tensor loaded; available: {sorted(self.sources)}"
            )
        return self.sources[canonical]


def make_amf_config(attribute: str, **overrides: object) -> AMFConfig:
    """The paper's tuned AMF hyper-parameters for a QoS attribute."""
    if attribute in ("response_time", "rt"):
        return AMFConfig.for_response_time(**overrides)
    if attribute in ("throughput", "tp"):
        return AMFConfig.for_throughput(**overrides)
    raise ValueError(f"unknown attribute {attribute!r}")


def make_pmf_config(attribute: str, **overrides: object) -> PMFConfig:
    """PMF configured and tuned per QoS attribute.

    The regularization is attribute-specific (the paper optimizes each
    baseline's parameters): response time tolerates a stronger penalty,
    while throughput — whose normalized values sit at ~0.002 of the range —
    needs a near-zero one, because shrinking factors toward 0 drags
    predictions toward ``g(0) = 0.5`` of a 7,000 kbps range.
    """
    if attribute in ("response_time", "rt"):
        base = {"value_min": 0.0, "value_max": 20.0, "regularization": 0.01}
    elif attribute in ("throughput", "tp"):
        base = {"value_min": 0.0, "value_max": 7000.0, "regularization": 1e-5}
    else:
        raise ValueError(f"unknown attribute {attribute!r}")
    base.update(overrides)
    return PMFConfig(**base)


@dataclass
class ApproachResult:
    """One approach's metrics on one evaluation condition."""

    approach: str
    metrics: dict[str, float]
    fit_seconds: float = 0.0

    def __getitem__(self, metric: str) -> float:
        return self.metrics[metric]


def test_entries(test: QoSMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, actual values) of the test matrix's observed entries."""
    rows, cols = test.observed_indices()
    return rows, cols, test.values[rows, cols]


def evaluate_amf(
    train: QoSMatrix,
    test: QoSMatrix,
    config: AMFConfig,
    rng: "int | np.random.Generator | None" = None,
    return_model: bool = False,
    kernel: "str | None" = None,
):
    """Train AMF on a randomized stream of ``train``, score on ``test``.

    Follows the paper's protocol: retained entries are randomized into a
    stream, consumed online, then replayed to convergence within the slice.
    ``kernel`` overrides the replay kernel ("scalar"/"vectorized") for the
    kernel-parity ablations; ``None`` uses ``config.kernel``.
    """
    rng = spawn_rng(rng)
    model = AdaptiveMatrixFactorization(config, rng=rng)
    # Pre-register the full id range so unseen test users/services still get
    # (random-factor) predictions instead of KeyErrors.
    model.ensure_user(train.n_users - 1)
    model.ensure_service(train.n_services - 1)
    trainer = StreamTrainer(model, kernel=kernel)
    stream = stream_from_matrix(train, rng=rng)
    import time as _time

    started = _time.perf_counter()
    # Replay happens at the end of the slice: the current slice's samples are
    # all younger than the expiry window, anything older is discarded.
    trainer.process(stream)
    fit_seconds = _time.perf_counter() - started

    rows, cols, actual = test_entries(test)
    prediction_matrix = model.predict_matrix()
    predicted = prediction_matrix[rows, cols]
    result = ApproachResult(
        approach="AMF", metrics=score_all(predicted, actual), fit_seconds=fit_seconds
    )
    if return_model:
        return result, model
    return result


def evaluate_batch_predictor(
    name: str,
    predictor: MatrixPredictor,
    train: QoSMatrix,
    test: QoSMatrix,
) -> ApproachResult:
    """Fit an offline baseline on ``train`` and score it on ``test``."""
    import time as _time

    started = _time.perf_counter()
    predictor.fit(train)
    fit_seconds = _time.perf_counter() - started
    rows, cols, actual = test_entries(test)
    predicted = predictor.predict_entries(rows, cols)
    return ApproachResult(
        approach=name, metrics=score_all(predicted, actual), fit_seconds=fit_seconds
    )


def make_baselines(
    attribute: str,
    rng: "int | np.random.Generator | None" = None,
    include_extensions: bool = False,
):
    """Fresh instances of the paper's four comparison approaches.

    ``include_extensions=True`` adds BiasedMF — the bias-augmented batch
    comparator this reproduction contributes beyond the paper's line-up.
    """
    rng = spawn_rng(rng)
    baselines = {
        "UPCC": UPCC(top_k=10),
        "IPCC": IPCC(top_k=10),
        "UIPCC": UIPCC(lam=0.5, top_k=10),
        "PMF": PMF(make_pmf_config(attribute), rng=rng),
    }
    if include_extensions:
        from repro.baselines import BiasedMF, BiasedMFConfig

        if attribute in ("response_time", "rt"):
            config = BiasedMFConfig(value_min=0.0, value_max=20.0)
        else:
            config = BiasedMFConfig(
                value_min=0.0, value_max=7000.0, bias_regularization=1e-5,
                regularization=1e-5,
            )
        baselines["BiasedMF"] = BiasedMF(config, rng=rng)
    return baselines


#: The approaches a Table I cell compares: the paper's four and AMF.
APPROACHES = ("UPCC", "IPCC", "UIPCC", "PMF", "AMF")


def compare_on_slice(
    matrix: QoSMatrix,
    attribute: str,
    density: float,
    rng: "int | np.random.Generator | None" = None,
) -> dict[str, ApproachResult]:
    """One Table I cell: split at ``density``, run every approach of
    :data:`APPROACHES`."""
    rng = spawn_rng(rng)
    train, test = train_test_split_matrix(matrix, density, rng=rng)
    wanted = APPROACHES
    results: dict[str, ApproachResult] = {}
    baselines = make_baselines(
        attribute, rng=rng, include_extensions="BiasedMF" in wanted
    )
    for name, predictor in baselines.items():
        if name in wanted:
            results[name] = evaluate_batch_predictor(name, predictor, train, test)
    if "AMF" in wanted:
        results["AMF"] = evaluate_amf(train, test, make_amf_config(attribute), rng=rng)
    return results


def average_results(
    runs: "list[dict[str, ApproachResult]]",
) -> dict[str, ApproachResult]:
    """Average metrics over reruns, per approach."""
    if not runs:
        raise ValueError("no runs to average")
    approaches = runs[0].keys()
    averaged: dict[str, ApproachResult] = {}
    for name in approaches:
        metric_names = runs[0][name].metrics.keys()
        averaged[name] = ApproachResult(
            approach=name,
            metrics={
                metric: float(np.mean([run[name].metrics[metric] for run in runs]))
                for metric in metric_names
            },
            fit_seconds=float(np.mean([run[name].fit_seconds for run in runs])),
        )
    return averaged
