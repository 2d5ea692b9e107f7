"""Prediction-accuracy metrics (Section V-B of the paper).

The paper argues that absolute metrics (MAE) are misleading for QoS values
spanning several orders of magnitude and therefore emphasizes relative
metrics: **MRE** (median relative error) and **NPRE** (90th-percentile
relative error).  All three are implemented here, plus helpers for the
error-distribution figure (Fig. 10) and the improvement rows of Table I.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_shape_match


def _as_pair(predicted: np.ndarray, actual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predicted = np.asarray(predicted, dtype=float).ravel()
    actual = np.asarray(actual, dtype=float).ravel()
    check_shape_match("predicted", predicted, "actual", actual)
    if predicted.size == 0:
        raise ValueError("cannot score an empty prediction set")
    return predicted, actual


def mae(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean Absolute Error (Eq. 18)."""
    predicted, actual = _as_pair(predicted, actual)
    return float(np.mean(np.abs(predicted - actual)))


#: Actual values are clamped away from zero by this floor so a measured 0
#: does not produce an infinite ratio (the paper's data has Rmin = 0).
RELATIVE_FLOOR = 1e-9


def relative_errors(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Pairwise relative errors ``|pred - actual| / actual`` (``actual``
    floored at :data:`RELATIVE_FLOOR`)."""
    predicted, actual = _as_pair(predicted, actual)
    return np.abs(predicted - actual) / np.maximum(np.abs(actual), RELATIVE_FLOOR)


def mre(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Median Relative Error (Eq. 19)."""
    return float(np.median(relative_errors(predicted, actual)))


def npre(predicted: np.ndarray, actual: np.ndarray, percentile: float = 90.0) -> float:
    """Ninety-Percentile Relative Error (Section V-B).

    ``percentile`` is exposed for sensitivity studies; the paper uses 90.
    """
    if not (0 < percentile < 100):
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    return float(np.percentile(relative_errors(predicted, actual), percentile))


def score_all(predicted: np.ndarray, actual: np.ndarray) -> dict[str, float]:
    """All three paper metrics at once, as a dict keyed MAE/MRE/NPRE."""
    return {
        "MAE": mae(predicted, actual),
        "MRE": mre(predicted, actual),
        "NPRE": npre(predicted, actual),
    }


def error_histogram(
    predicted: np.ndarray,
    actual: np.ndarray,
    bins: int = 60,
    value_range: tuple[float, float] = (-3.0, 3.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of signed prediction errors ``pred - actual`` (Fig. 10).

    Returns ``(bin_centers, fraction_per_bin)``; fractions are relative to
    *all* samples, so mass outside ``value_range`` is simply not shown —
    matching how the paper truncates its x-axis.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    predicted, actual = _as_pair(predicted, actual)
    errors = predicted - actual
    counts, edges = np.histogram(errors, bins=bins, range=value_range)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts / errors.size


def improvement_percent(best_other: float, ours: float) -> float:
    """Improvement row of Table I: how much ``ours`` beats ``best_other``.

    Positive means improvement.  Computed as the paper does: the percentage
    by which the proposed approach reduces the most competitive baseline.
    """
    if best_other <= 0:
        raise ValueError(f"best_other must be positive, got {best_other}")
    return float(100.0 * (best_other - ours) / best_other)
