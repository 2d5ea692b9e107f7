"""Adaptive weights (Section IV-C-3 of the paper).

Each user and each service carries an exponential-moving-average estimate of
its own relative prediction error (``e_u``, ``e_s``).  On every online update
for a sample ``(u, s)``, credence weights

    ``w_u = e_u / (e_u + e_s)``    and    ``w_s = e_s / (e_u + e_s)``

(Eq. 12) split the step between the two factor vectors: the entity with the
larger historical error moves more, so a freshly joined user does not drag a
well-converged service's factors away (and vice versa).  The error trackers
themselves are updated with credence-scaled EMA smoothing (Eqs. 13-14).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive, check_probability


class _GrowableErrors:
    """A float array indexed by entity id that grows on demand.

    New ids are initialized to ``init_error`` (Algorithm 1 line 7 sets the
    EMA error of a new user/service to 1, i.e. maximal uncertainty).
    """

    def __init__(self, init_error: float = 1.0) -> None:
        check_positive("init_error", init_error)
        self._init_error = init_error
        self._values = np.full(16, init_error, dtype=float)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def ensure(self, entity_id: int) -> None:
        """Make ``entity_id`` addressable, initializing it if new."""
        if entity_id < 0:
            raise IndexError(f"entity id must be non-negative, got {entity_id}")
        if entity_id >= self._values.size:
            new_capacity = max(self._values.size * 2, entity_id + 1)
            grown = np.full(new_capacity, self._init_error, dtype=float)
            grown[: self._values.size] = self._values
            self._values = grown
        if entity_id >= self._size:
            # ids between old size and entity_id keep their init value
            self._size = entity_id + 1

    def get(self, entity_id: int) -> float:
        """Read an entity's error *without* growing the tracker.

        Unknown ids report ``init_error`` (what they would be initialized
        to) but are NOT registered: confidence queries for arbitrary ids —
        the calibration/serving read path — must not inflate the tracked
        population or the serialized checkpoint.  ``observe``/``set``/
        ``ensure`` remain the only growth points.
        """
        if entity_id < 0:
            raise IndexError(f"entity id must be non-negative, got {entity_id}")
        if entity_id >= self._size:
            return self._init_error
        return float(self._values[entity_id])

    def set(self, entity_id: int, value: float) -> None:
        self.ensure(entity_id)
        self._values[entity_id] = value

    def reset(self, entity_id: int) -> None:
        """Reset an entity to the initial (maximal) error, e.g. on rejoin."""
        self.set(entity_id, self._init_error)

    def snapshot(self) -> np.ndarray:
        """Copy of the tracked errors for all known ids."""
        return self._values[: self._size].copy()


class AdaptiveWeights:
    """Per-user/per-service error tracking and credence weights.

    This object is owned by :class:`~repro.core.amf.AdaptiveMatrixFactorization`
    but is independently testable: it knows nothing about latent factors, only
    about error bookkeeping.
    """

    def __init__(self, beta: float = 0.3, init_error: float = 1.0) -> None:
        check_probability("beta", beta)
        check_positive("init_error", init_error)
        self.beta = beta
        self.init_error = init_error
        self._user_errors = _GrowableErrors(init_error)
        self._service_errors = _GrowableErrors(init_error)

    @property
    def n_users(self) -> int:
        return len(self._user_errors)

    @property
    def n_services(self) -> int:
        return len(self._service_errors)

    def register_user(self, user_id: int) -> None:
        """Initialize tracking for a (possibly new) user (Algorithm 1 line 7)."""
        self._user_errors.ensure(user_id)

    def register_service(self, service_id: int) -> None:
        """Initialize tracking for a (possibly new) service."""
        self._service_errors.ensure(service_id)

    def user_error(self, user_id: int) -> float:
        """Current EMA relative error of ``user_id``.

        A pure read: unknown users report ``init_error`` without being
        registered (confidence queries must not grow state).
        """
        return self._user_errors.get(user_id)

    def service_error(self, service_id: int) -> float:
        """Current EMA relative error of ``service_id`` (pure read, like
        :meth:`user_error`)."""
        return self._service_errors.get(service_id)

    def credence(self, user_id: int, service_id: int) -> tuple[float, float]:
        """Return ``(w_u, w_s)`` for a sample between the two entities (Eq. 12).

        The weights are non-negative and sum to 1.  When both errors are 0
        (both entities perfectly converged) the split is even.
        """
        e_u = self._user_errors.get(user_id)
        e_s = self._service_errors.get(service_id)
        total = e_u + e_s
        if total <= 0:
            return 0.5, 0.5
        return e_u / total, e_s / total

    def observe(self, user_id: int, service_id: int, sample_error: float) -> tuple[float, float]:
        """Fold one sample's relative error ``e_ij`` into both trackers.

        Applies the credence-scaled EMA of Eqs. 13-14 and returns the
        ``(w_u, w_s)`` pair that was in force for this sample, i.e. the pair
        the SGD step should use (Algorithm 1 computes weights before the
        error update).
        """
        if sample_error < 0:
            raise ValueError(f"sample_error must be non-negative, got {sample_error}")
        users = self._user_errors
        services = self._service_errors
        users.ensure(user_id)
        services.ensure(service_id)
        # Hot path (one call per SGD step): read/update the trackers directly
        # rather than through get/set, which would re-run ensure().
        e_u = users._values[user_id]
        e_s = services._values[service_id]
        total = e_u + e_s
        if total <= 0:
            w_u = w_s = 0.5
        else:
            w_u = e_u / total
            w_s = e_s / total
        beta = self.beta
        users._values[user_id] = beta * w_u * sample_error + (1.0 - beta * w_u) * e_u
        services._values[service_id] = beta * w_s * sample_error + (1.0 - beta * w_s) * e_s
        return w_u, w_s

    def observe_many(
        self,
        user_ids: np.ndarray,
        service_ids: np.ndarray,
        sample_errors: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`observe` over a conflict-free batch.

        Folds each sample's error into both trackers in one fused pass
        (gather, Eq. 12 weights, Eqs. 13-14 EMA, scatter).  Requires each
        user id and each service id to appear at most once in the batch —
        the scatter write-back would silently drop updates otherwise — which
        is exactly what the replay kernel's conflict-free blocks guarantee.
        Returns the ``(w_u, w_s)`` weight arrays in force for the batch.
        """
        user_ids = np.asarray(user_ids, dtype=np.intp)
        service_ids = np.asarray(service_ids, dtype=np.intp)
        sample_errors = np.asarray(sample_errors, dtype=float)
        if not (user_ids.size == service_ids.size == sample_errors.size):
            raise ValueError(
                f"mismatched batch sizes: {user_ids.size} users, "
                f"{service_ids.size} services, {sample_errors.size} errors"
            )
        if user_ids.size == 0:
            return np.empty(0), np.empty(0)
        if np.any(sample_errors < 0):
            raise ValueError("sample errors must be non-negative")
        self._user_errors.ensure(int(user_ids.max()))
        self._service_errors.ensure(int(service_ids.max()))
        user_values = self._user_errors._values
        service_values = self._service_errors._values
        e_u = user_values[user_ids]
        e_s = service_values[service_ids]
        total = e_u + e_s
        positive = total > 0
        denominator = np.where(positive, total, 1.0)
        w_u = np.where(positive, e_u / denominator, 0.5)
        w_s = np.where(positive, e_s / denominator, 0.5)
        beta = self.beta
        user_values[user_ids] = beta * w_u * sample_errors + (1.0 - beta * w_u) * e_u
        service_values[service_ids] = (
            beta * w_s * sample_errors + (1.0 - beta * w_s) * e_s
        )
        return w_u, w_s

    def reset_user(self, user_id: int) -> None:
        """Restore a user's error to the initial value (entity rejoin)."""
        self._user_errors.reset(user_id)

    def reset_service(self, service_id: int) -> None:
        """Restore a service's error to the initial value (entity rejoin)."""
        self._service_errors.reset(service_id)

    def user_error_snapshot(self) -> np.ndarray:
        return self._user_errors.snapshot()

    def service_error_snapshot(self) -> np.ndarray:
        return self._service_errors.snapshot()
