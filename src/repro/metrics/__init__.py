"""Evaluation metrics: MAE/MRE/NPRE (Section V-B), error distributions,
low-rank spectra, and adaptation-oriented selection metrics."""

from repro.metrics.errors import (
    error_histogram,
    improvement_percent,
    mae,
    mre,
    npre,
    relative_errors,
    score_all,
)
from repro.metrics.lowrank import normalized_singular_values
from repro.metrics.selection import (
    selection_regret,
    sla_confusion,
    top_k_hit_rate,
)

__all__ = [
    "mae",
    "mre",
    "npre",
    "relative_errors",
    "error_histogram",
    "improvement_percent",
    "score_all",
    "normalized_singular_values",
    "top_k_hit_rate",
    "selection_regret",
    "sla_confusion",
]
