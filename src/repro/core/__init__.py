"""The paper's contribution: Adaptive Matrix Factorization (AMF).

Exports the model, its configuration, the data-transformation pipeline
(Box-Cox + normalization + sigmoid link), the adaptive-weight machinery, and
the Algorithm 1 stream trainer.
"""

from repro.core.config import AMFConfig
from repro.core.transform import (
    BoxCoxTransform,
    QoSNormalizer,
    sigmoid,
    sigmoid_derivative,
)
from repro.core.weights import AdaptiveWeights
from repro.core.kernel import iter_conflict_free_blocks, partition_conflict_free
from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.online import PredictionCache, StreamTrainer, TrainReport
from repro.core.serialization import load_model, save_model
from repro.core.daemon import BackgroundTrainer, ConcurrentModel, TrainerSupervisor
from repro.core.fallback import FallbackPredictor, PredictionResult

__all__ = [
    "AMFConfig",
    "BoxCoxTransform",
    "QoSNormalizer",
    "sigmoid",
    "sigmoid_derivative",
    "AdaptiveWeights",
    "partition_conflict_free",
    "iter_conflict_free_blocks",
    "AdaptiveMatrixFactorization",
    "PredictionCache",
    "StreamTrainer",
    "TrainReport",
    "save_model",
    "load_model",
    "ConcurrentModel",
    "BackgroundTrainer",
    "TrainerSupervisor",
    "FallbackPredictor",
    "PredictionResult",
]
