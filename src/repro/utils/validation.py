"""Argument-validation helpers shared across the library.

These raise ``ValueError`` with messages that name the offending argument,
so configuration mistakes surface at construction time rather than as NaNs
deep inside a training loop.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 < value <= 1`` (e.g. matrix densities); return it."""
    if not np.isfinite(value) or not (0 < value <= 1):
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it."""
    if not np.isfinite(value) or not (0 <= value <= 1):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_shape_match(name_a: str, a: np.ndarray, name_b: str, b: np.ndarray) -> None:
    """Require two arrays to share a shape."""
    if a.shape != b.shape:
        raise ValueError(
            f"{name_a} and {name_b} must have the same shape, "
            f"got {a.shape} vs {b.shape}"
        )


