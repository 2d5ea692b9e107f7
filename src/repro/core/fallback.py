"""Graceful degradation: a fallback chain behind the AMF model.

The prediction service is consulted exactly when services are failing, so
"the model can't answer" is not an acceptable answer.  When a query names
an entity the model has never seen, or the model itself is unhealthy
(non-finite factors after a poisoning event), predictions degrade through
progressively coarser but always-available estimators:

    AMF model -> user+service running means -> one-sided mean -> global
    mean -> configured prior

Every answer is tagged with its ``source`` so callers (and the paper's
adaptation policies) can weight degraded answers accordingly, and model
answers carry the calibration confidence of
:func:`repro.metrics.calibration.expected_relative_error` — the same
``(e_u + e_s) / 2`` signal AMF's adaptive weights are built on.  Fallback
answers carry no calibration estimate (``expected_error`` is ``None``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class PredictionResult:
    """A served prediction plus where it came from.

    Attributes:
        value:          the predicted QoS value.
        source:         which estimator produced it: ``"model"``,
                        ``"user_service_mean"``, ``"user_mean"``,
                        ``"service_mean"``, ``"global_mean"``, or ``"prior"``.
        expected_error: anticipated relative error from the model's EMA
                        trackers; ``None`` for non-model sources.
    """

    value: float
    source: str
    expected_error: "float | None" = None

    @property
    def degraded(self) -> bool:
        return self.source != "model"


class _RunningMean:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count


class FallbackPredictor:
    """Per-user / per-service / global running means of observed QoS.

    Thread-safe and O(1) per observation.  This is deliberately the classic
    UMEAN/IMEAN baseline (the weakest predictors in the paper's Table II) —
    the point is availability, not accuracy: it can answer for any entity
    that has ever been observed, and falls through to a configured prior
    even on a completely cold start.  The means are advisory serving state,
    never part of the bit-exact checkpoint: a restart re-seeds them from
    the retained sample store (:meth:`seed_from_samples`).
    """

    def __init__(self, prior: float) -> None:
        self.prior = float(prior)
        self._lock = threading.Lock()
        self._users: "dict[int, _RunningMean]" = {}
        self._services: "dict[int, _RunningMean]" = {}
        self._global = _RunningMean()

    def observe(self, user_id: int, service_id: int, value: float) -> None:
        """Fold one observed sample into all three mean levels."""
        with self._lock:
            for table, entity_id in (
                (self._users, user_id),
                (self._services, service_id),
            ):
                mean = table.get(entity_id)
                if mean is None:
                    mean = table[entity_id] = _RunningMean()
                mean.add(value)
            self._global.add(value)

    def predict(self, user_id: int, service_id: int) -> PredictionResult:
        """Best available mean estimate for ``(user_id, service_id)``."""
        with self._lock:
            user = self._users.get(user_id)
            service = self._services.get(service_id)
            if user is not None and service is not None:
                return PredictionResult(
                    (user.mean + service.mean) / 2.0, "user_service_mean"
                )
            if user is not None:
                return PredictionResult(user.mean, "user_mean")
            if service is not None:
                return PredictionResult(service.mean, "service_mean")
            if self._global.count:
                return PredictionResult(self._global.mean, "global_mean")
            return PredictionResult(self.prior, "prior")

    @property
    def observations(self) -> int:
        with self._lock:
            return self._global.count

    def seed_from_samples(self, user_ids, service_ids, values) -> int:
        """Warm the means from retained samples (post-recovery bootstrap).

        A restarted server has no observation history beyond what the model
        retained; seeding from the sample store gives the fallback chain an
        immediate, approximate footing.  Each sum is one in-order pass
        (``np.bincount`` per entity, ``np.cumsum`` for the global mean), so
        a fresh predictor ends bit for bit where folding the samples through
        :meth:`observe` one by one would.  Returns how many were folded in.
        """
        values = np.asarray(values, dtype=float)
        with self._lock:
            for table, ids in ((self._users, user_ids), (self._services, service_ids)):
                ids = np.asarray(ids, dtype=np.intp)
                counts, totals = np.bincount(ids), np.bincount(ids, weights=values)
                for entity_id in np.flatnonzero(counts).tolist():
                    mean = table.setdefault(entity_id, _RunningMean())
                    mean.count += int(counts[entity_id])
                    mean.total += float(totals[entity_id])
            self._global.count += values.size
            self._global.total += float(np.cumsum(values)[-1]) if values.size else 0.0
        return int(values.size)
