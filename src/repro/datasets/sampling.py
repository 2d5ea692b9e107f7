"""Density masking and train/test splitting (Section V-C protocol).

The paper simulates sparsity by randomly removing entries from each slice's
matrix until only ``density`` of them remain; the retained entries become
training data (randomized into a stream for AMF) and the removed entries are
the test set.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.schema import QoSMatrix
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_fraction


def mask_matrix_to_density(
    matrix: QoSMatrix,
    density: float,
    rng: "int | np.random.Generator | None" = None,
) -> QoSMatrix:
    """Return a copy of ``matrix`` keeping a uniform ``density`` of entries.

    Density is measured against the *full* matrix size (the paper's
    "matrix density = 10%" means each user keeps about 10% of all services),
    but only originally observed entries can be kept.
    """
    check_fraction("density", density)
    rng = spawn_rng(rng)
    rows, cols = matrix.observed_indices()
    n_keep = int(round(density * matrix.values.size))
    n_keep = min(n_keep, rows.size)
    chosen = rng.choice(rows.size, size=n_keep, replace=False)
    mask = np.zeros(matrix.shape, dtype=bool)
    mask[rows[chosen], cols[chosen]] = True
    return QoSMatrix(values=matrix.values.copy(), mask=mask)


def train_test_split_matrix(
    matrix: QoSMatrix,
    train_density: float,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[QoSMatrix, QoSMatrix]:
    """Split observed entries into a train mask of ``train_density`` and a
    test mask holding every other observed entry.

    This is the paper's evaluation protocol: train on the kept fraction,
    score predictions on the removed one.
    """
    train = mask_matrix_to_density(matrix, train_density, rng)
    test_mask = matrix.mask & ~train.mask
    test = QoSMatrix(values=matrix.values.copy(), mask=test_mask)
    return train, test


def split_entities(
    n_entities: int,
    existing_fraction: float,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Randomly split entity ids into (existing, new) groups.

    Used by the scalability experiment (Fig. 14): 80% of users/services are
    "existing" during warm-up and the remaining 20% join mid-run.
    """
    check_fraction("existing_fraction", existing_fraction)
    rng = spawn_rng(rng)
    order = rng.permutation(n_entities)
    n_existing = int(round(existing_fraction * n_entities))
    existing = np.sort(order[:n_existing])
    new = np.sort(order[n_existing:])
    return existing, new
