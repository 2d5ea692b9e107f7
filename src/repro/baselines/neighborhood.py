"""Neighborhood collaborative filtering baselines: UPCC, IPCC, UIPCC.

These follow Zheng et al., "QoS-aware Web service recommendation by
collaborative filtering" (the paper's reference [17]):

* **UPCC** predicts from users with similar invocation histories,
* **IPCC** predicts from services with similar observed QoS profiles,
* **UIPCC** linearly blends the two with a confidence parameter ``lam``.

Similarities are Pearson correlation coefficients (PCC) computed over the
*co-observed* entries of each pair, fully vectorized with masked matrix
products so the full paper-scale matrices remain tractable.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MatrixPredictor
from repro.datasets.schema import QoSMatrix
from repro.utils.validation import check_probability

#: Denominators at or below this are treated as zero (no similarity).
_EPS = 1e-12


def pcc_similarity_matrix(
    values: np.ndarray,
    mask: np.ndarray,
    min_overlap: int = 2,
) -> np.ndarray:
    """Pairwise PCC between the *rows* of a masked matrix.

    For each row pair ``(a, b)`` the correlation is computed over the columns
    both rows observe, using the co-observed means (the exact definition of
    reference [17], not the whole-row-mean approximation).  Pairs with fewer
    than ``min_overlap`` co-observed columns, or with degenerate variance,
    get similarity 0.  The diagonal is 0 so an entity is never its own
    neighbor.

    Vectorization: with ``X`` holding values (zeros where unobserved) and
    ``M`` the mask,

    ``N = M M^T`` (overlap counts), ``S = X X^T`` (co-observed product sums),
    ``A = X M^T`` / ``B = M X^T`` (co-observed row sums), ``Q = X^2 M^T``
    (co-observed square sums), giving covariance ``S - A B / N`` and
    variances ``Q - A^2 / N`` / ``Q^T - B^2 / N``.
    """
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be >= 1, got {min_overlap}")
    mask = np.asarray(mask, dtype=bool)
    X = np.where(mask, np.asarray(values, dtype=float), 0.0)
    M = mask.astype(float)

    N = M @ M.T
    S = X @ X.T
    A = X @ M.T
    B = A.T  # M @ X.T
    Q = (X * X) @ M.T

    with np.errstate(divide="ignore", invalid="ignore"):
        safe_n = np.maximum(N, 1.0)
        cov = S - A * B / safe_n
        var_a = Q - A * A / safe_n
        var_b = Q.T - B * B / safe_n
        denominator = np.sqrt(np.maximum(var_a, 0.0) * np.maximum(var_b, 0.0))
        similarity = np.where(denominator > _EPS, cov / np.maximum(denominator, _EPS), 0.0)

    similarity[N < min_overlap] = 0.0
    np.fill_diagonal(similarity, 0.0)
    return np.clip(similarity, -1.0, 1.0)


def _top_k_positive(similarity: np.ndarray, top_k: int) -> np.ndarray:
    """Zero out everything except each row's top-k positive similarities."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    pruned = np.where(similarity > 0.0, similarity, 0.0)
    if top_k >= pruned.shape[1]:
        return pruned
    # Keep the k largest entries per row.
    threshold_idx = np.argpartition(-pruned, top_k - 1, axis=1)[:, :top_k]
    keep = np.zeros_like(pruned, dtype=bool)
    np.put_along_axis(keep, threshold_idx, True, axis=1)
    return np.where(keep, pruned, 0.0)


def _neighborhood_predict(
    values: np.ndarray,
    mask: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-centered weighted-neighbor prediction over the rows.

    Returns ``(predictions, supported)`` where ``supported`` marks entries
    that had at least one contributing neighbor.  Unsupported entries fall
    back to the row mean (or the global mean for empty rows).
    """
    M = mask.astype(float)
    X = np.where(mask, values, 0.0)
    observed = values[mask]
    global_mean = float(observed.mean()) if observed.size else 0.0
    row_counts = mask.sum(axis=1)
    row_means = np.where(
        row_counts > 0,
        X.sum(axis=1) / np.maximum(row_counts, 1),
        global_mean,
    )

    deviations = (X - row_means[:, None]) * M
    numerator = weights @ deviations
    denominator = np.abs(weights) @ M
    supported = denominator > _EPS
    adjustment = np.where(supported, numerator / np.maximum(denominator, _EPS), 0.0)
    predictions = row_means[:, None] + adjustment
    return predictions, supported


class UPCC(MatrixPredictor):
    """User-based PCC collaborative filtering (reference [17]).

    Args:
        top_k:       neighborhood size (similar users per prediction).
        min_overlap: minimum co-invoked services for a similarity to count.
    """

    def __init__(self, top_k: int = 10, min_overlap: int = 2) -> None:
        self.top_k = top_k
        self.min_overlap = min_overlap
        self._predictions: np.ndarray | None = None
        self._supported: np.ndarray | None = None

    def fit(self, matrix: QoSMatrix) -> "UPCC":
        if matrix.observed_values().size == 0:
            raise ValueError("cannot fit UPCC on an empty matrix")
        similarity = pcc_similarity_matrix(
            matrix.values, matrix.mask, min_overlap=self.min_overlap
        )
        weights = _top_k_positive(similarity, self.top_k)
        self._predictions, self._supported = _neighborhood_predict(
            matrix.values, matrix.mask, weights
        )
        self._fitted = True
        return self

    def predict_matrix(self) -> np.ndarray:
        self._require_fitted()
        return self._predictions.copy()

    def supported_mask(self) -> np.ndarray:
        """True where at least one similar user contributed."""
        self._require_fitted()
        return self._supported.copy()


class IPCC(MatrixPredictor):
    """Item(service)-based PCC collaborative filtering (reference [17])."""

    def __init__(self, top_k: int = 10, min_overlap: int = 2) -> None:
        self.top_k = top_k
        self.min_overlap = min_overlap
        self._predictions: np.ndarray | None = None
        self._supported: np.ndarray | None = None

    def fit(self, matrix: QoSMatrix) -> "IPCC":
        if matrix.observed_values().size == 0:
            raise ValueError("cannot fit IPCC on an empty matrix")
        similarity = pcc_similarity_matrix(
            matrix.values.T, matrix.mask.T, min_overlap=self.min_overlap
        )
        weights = _top_k_positive(similarity, self.top_k)
        predictions_t, supported_t = _neighborhood_predict(
            matrix.values.T, matrix.mask.T, weights
        )
        self._predictions = predictions_t.T
        self._supported = supported_t.T
        self._fitted = True
        return self

    def predict_matrix(self) -> np.ndarray:
        self._require_fitted()
        return self._predictions.copy()

    def supported_mask(self) -> np.ndarray:
        """True where at least one similar service contributed."""
        self._require_fitted()
        return self._supported.copy()


class UIPCC(MatrixPredictor):
    """Hybrid of UPCC and IPCC (reference [17]).

    Blends the two predictions with weight ``lam`` on the user-based side.
    Entries supported by only one of the two models use that model alone;
    entries supported by neither keep the blended mean-based fallbacks.
    """

    def __init__(self, lam: float = 0.5, top_k: int = 10, min_overlap: int = 2) -> None:
        check_probability("lam", lam)
        self.lam = lam
        self.user_model = UPCC(top_k=top_k, min_overlap=min_overlap)
        self.item_model = IPCC(top_k=top_k, min_overlap=min_overlap)
        self._predictions: np.ndarray | None = None

    def fit(self, matrix: QoSMatrix) -> "UIPCC":
        self.user_model.fit(matrix)
        self.item_model.fit(matrix)
        user_pred = self.user_model.predict_matrix()
        item_pred = self.item_model.predict_matrix()
        user_ok = self.user_model.supported_mask()
        item_ok = self.item_model.supported_mask()

        blended = self.lam * user_pred + (1.0 - self.lam) * item_pred
        predictions = np.where(user_ok & item_ok, blended, 0.0)
        predictions = np.where(user_ok & ~item_ok, user_pred, predictions)
        predictions = np.where(~user_ok & item_ok, item_pred, predictions)
        predictions = np.where(~user_ok & ~item_ok, blended, predictions)
        self._predictions = predictions
        self._fitted = True
        return self

    def predict_matrix(self) -> np.ndarray:
        self._require_fitted()
        return self._predictions.copy()
