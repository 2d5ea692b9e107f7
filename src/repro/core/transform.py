"""Data transformation pipeline (Section IV-C-1 of the paper).

QoS values are heavily skewed (Fig. 7), which violates the Gaussian noise
assumption behind matrix factorization.  The paper applies a Box-Cox power
transform (Eq. 3) followed by linear normalization into ``[0, 1]`` (Eq. 4);
the factor inner product is then squashed through a sigmoid so predictions
live in the same normalized space.

This module is the one home of that arithmetic, in two shapes.  A Python
``float`` (one pair: a single prediction, an arriving sample) goes through
pure :mod:`math` and comes back a Python ``float`` — no 0-d array is built;
numpy scalars and 0-d arrays take the same branch.  An array (a ranking's
candidates, a checkpoint's stored column) takes one fused pass of ufuncs:
the textbook formulas' operations in the same order on the same operands, so
its results are bit-stable — rankings, the prediction cache and rebuilt
checkpoints see the doubles they always did.  The two shapes agree to the
last digits (``math.exp`` / ``**`` against numpy's loops).

What depends only on the configuration — the transformed bounds, ``1 /
alpha``, whether the inverse's base can reach 0 — is computed once, when the
(frozen) normalizer is built.  NaN in is NaN out in both shapes, tested as
``x != x`` and never left to the argument order of ``min`` / ``max``, so a
prediction from poisoned factors stays non-finite for the serving layer to
catch; ``+inf`` from a vanishing base still clamps to ``value_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_positive


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function ``g(x) = 1 / (1 + exp(-x))``."""
    if type(x) is not float:
        x = np.asarray(x, dtype=float)
        if x.ndim:
            # exp(-|x|) never overflows and serves both branches.
            exp_neg = np.exp(-np.abs(x))
            return np.where(x >= 0.0, 1.0, exp_neg) / (1.0 + exp_neg)
        x = float(x)
    if x != x:
        return x
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    exp_x = math.exp(x)
    return exp_x / (1.0 + exp_x)


def logit(p: np.ndarray | float) -> np.ndarray | float:
    """Inverse sigmoid, with clipping away from {0, 1} for stability."""
    p = np.clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12)
    out = np.log(p / (1.0 - p))
    return out if out.ndim else float(out)


#: Below this magnitude of alpha, ``(x^alpha - 1)/alpha`` loses all precision
#: to cancellation, so the transform switches to its alpha -> 0 limit, log(x).
_LOG_LIMIT = 1e-8


@dataclass(frozen=True, slots=True)
class BoxCoxTransform:
    """The Box-Cox power transform of Eq. 3.

    ``boxcox(x) = (x^alpha - 1) / alpha`` for ``alpha != 0`` and ``log(x)``
    for ``alpha = 0``.  The transform is strictly increasing for every alpha,
    hence rank-preserving.  Inputs are clamped to ``floor`` because the
    transform diverges at 0 when ``alpha <= 0`` (the paper's tuned alphas are
    negative); see DESIGN.md for the substitution note.
    """

    alpha: float = -0.007
    floor: float = 1e-3

    def __post_init__(self) -> None:
        check_positive("floor", self.floor)

    def forward(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.maximum(np.asarray(x, dtype=float), self.floor)
        if abs(self.alpha) < _LOG_LIMIT:
            out = np.log(x)
        else:
            out = (np.power(x, self.alpha) - 1.0) / self.alpha
        return out if out.ndim else float(out)


@dataclass(frozen=True, slots=True)
class QoSNormalizer:
    """Box-Cox + linear normalization into ``[0, 1]`` (Eqs. 3-4) and back.

    ``normalize`` maps raw QoS values to the unit interval the sigmoid-linked
    factor model fits; ``denormalize`` maps model outputs back to raw QoS
    units for reporting and adaptation decisions.  Both take a ``float`` to a
    ``float`` and an array to an array (see the module docstring).
    """

    alpha: float = -0.007
    value_min: float = 0.0
    value_max: float = 20.0
    floor: float = 1e-3
    # Computed once from the four above (the instance is frozen).
    boxcox: BoxCoxTransform = field(init=False, repr=False, compare=False)
    _low: float = field(init=False, repr=False, compare=False)
    _span: float = field(init=False, repr=False, compare=False)
    _log: bool = field(init=False, repr=False, compare=False)
    _inv_alpha: float = field(init=False, repr=False, compare=False)
    _base_can_vanish: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.value_max <= self.value_min:
            raise ValueError(
                f"value_max must exceed value_min, got "
                f"[{self.value_min}, {self.value_max}]"
            )
        check_positive("floor", self.floor)
        transform = BoxCoxTransform(alpha=self.alpha, floor=self.floor)
        low = float(transform.forward(max(self.value_min, self.floor)))
        high = float(transform.forward(self.value_max))
        if high <= low:
            raise ValueError(
                "degenerate transformed range; check alpha and value bounds"
            )
        log = abs(self.alpha) < _LOG_LIMIT
        # The inverse raises ``alpha * y + 1`` to ``1 / alpha`` for ``y`` in
        # ``[low, high]``.  Float multiply and add are monotone, so the base
        # stays between its end values: whether it can reach 0 is known here.
        ends = (self.alpha * low + 1.0, self.alpha * ((high - low) + low) + 1.0)
        put = object.__setattr__
        put(self, "boxcox", transform)
        put(self, "_low", low)
        put(self, "_span", high - low)
        put(self, "_log", log)
        put(self, "_inv_alpha", 0.0 if log else 1.0 / self.alpha)
        put(self, "_base_can_vanish", not log and not min(ends) > 0.0)

    def normalize(self, values: np.ndarray | float) -> np.ndarray | float:
        """Map raw QoS values into ``[0, 1]``.  Values outside
        ``[value_min, value_max]`` are clipped to the unit interval."""
        if type(values) is not float:
            values = np.asarray(values, dtype=float)
            if values.ndim:
                out = (self.boxcox.forward(values) - self._low) / self._span
                return np.clip(out, 0.0, 1.0)
            values = float(values)
        if values != values:
            return values
        # The write path: this arithmetic decides the stored norms.
        value = values if values > self.floor else self.floor
        if self._log:
            transformed = math.log(value)
        else:
            transformed = (value**self.alpha - 1.0) / self.alpha
        r = (transformed - self._low) / self._span
        return 0.0 if r < 0.0 else 1.0 if r > 1.0 else r

    def denormalize(self, normalized: np.ndarray | float) -> np.ndarray | float:
        """Map normalized values in ``[0, 1]`` back to raw QoS units."""
        if type(normalized) is not float:
            normalized = np.asarray(normalized, dtype=float)
            if normalized.ndim:
                return self._denormalize_array(normalized)
            normalized = float(normalized)
        if normalized != normalized:
            return normalized
        clipped = 0.0 if normalized < 0.0 else 1.0 if normalized > 1.0 else normalized
        transformed = clipped * self._span + self._low
        try:
            if self._log:
                out = math.exp(transformed)
            else:
                base = self.alpha * transformed + 1.0
                if base > 0.0:
                    out = base**self._inv_alpha
                else:
                    out = math.inf if self.alpha < 0.0 else 0.0
        except OverflowError:
            out = math.inf
        if out < self.floor:
            out = self.floor
        if out > self.value_max:
            out = self.value_max
        return out

    def _denormalize_array(self, normalized: np.ndarray) -> np.ndarray:
        # One fresh array, then in place; min/max pairs skip np.clip's wrapper.
        out = np.maximum(normalized, 0.0)
        np.minimum(out, 1.0, out=out)
        out *= self._span
        out += self._low
        if self._log:
            np.exp(out, out=out)
        else:
            out *= self.alpha
            out += 1.0
            if self._base_can_vanish:
                np.maximum(out, 0.0, out=out)
                with np.errstate(divide="ignore"):
                    np.power(out, self._inv_alpha, out=out)
            else:
                np.power(out, self._inv_alpha, out=out)
        np.maximum(out, self.floor, out=out)
        np.minimum(out, self.value_max, out=out)
        return out
