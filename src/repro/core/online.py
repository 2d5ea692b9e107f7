"""Algorithm 1 driver: consume an observed QoS stream and replay to
convergence.

The AMF model itself (:mod:`repro.core.amf`) exposes the two primitive
operations of Algorithm 1 — ``observe`` for a newly arrived sample and
``replay_step`` for re-sampling retained data.  :class:`StreamTrainer` wires
them into the outer loop: drain arrivals as they come, then keep replaying
existing samples until the training error stops improving ("if converged:
wait until observing new QoS data").
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.amf import AdaptiveMatrixFactorization
from repro.datasets.schema import QoSRecord
from repro.observability import get_registry
from repro.utils.validation import check_positive

# Trainer observability: how fast replay converges and where wall time goes
# (recorded per training pass, so the per-step hot path stays untouched).
_METRICS = get_registry()
_EPOCHS_HIST = _METRICS.histogram(
    "qos_trainer_epochs",
    "Replay epochs needed per training pass (epochs-to-converge)",
)
_PASSES = _METRICS.counter(
    "qos_trainer_passes_total",
    "Training passes by outcome",
    labelnames=("outcome",),
)
_PHASE_SECONDS = _METRICS.histogram(
    "qos_trainer_phase_seconds",
    "Wall-clock seconds per trainer phase",
    labelnames=("phase",),
)
_PHASE_CONSUME = _PHASE_SECONDS.labels(phase="consume")
_PHASE_REPLAY = _PHASE_SECONDS.labels(phase="replay")
_LAST_EPOCH_ERROR = _METRICS.gauge(
    "qos_trainer_last_epoch_error",
    "Mean replay relative error of the most recent replay epoch",
)
_CACHE_HITS = _METRICS.counter(
    "qos_predict_cache_hits_total",
    "Prediction-cache lookups answered without touching the factors",
)
_CACHE_MISSES = _METRICS.counter(
    "qos_predict_cache_misses_total",
    "Prediction-cache lookups that had to recompute",
    labelnames=("reason",),
)
_CACHE_MISS_COLD = _CACHE_MISSES.labels(reason="cold")
_CACHE_MISS_STALE = _CACHE_MISSES.labels(reason="stale")
_CACHE_EVICTIONS = _METRICS.counter(
    "qos_predict_cache_evictions_total",
    "Prediction-cache entries evicted by the LRU capacity bound",
)
_CACHE_SIZE = _METRICS.gauge(
    "qos_predict_cache_size",
    "Live entries in the prediction cache",
)
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)


class PredictionCache:
    """Version-stamped cache of predictions, one set of sorted arrays per user.

    Every SGD write site — scalar online updates, vectorized block
    scatter-writes, and row reinitialisation
    (``forget_user``/``forget_service``) — bumps a per-row version counter
    on the factor matrices.  The cache keeps, per user, the user-row
    version its values were computed under and three parallel arrays
    sorted by service id: the ids, the service-row version each value was
    computed under, the values.  A lookup whose stamps no longer match is
    a *stale* miss, so a stale value is never served, without any
    write-path invalidation hooks.  That includes hot/cold tiering, where
    an entity leaves its factor slot and comes back to another:
    :class:`~repro.lifecycle.TieredAMF` starts every slot occupancy at a
    version no other occupancy can reach.

    ``capacity`` counts (user, service) pairs — 24 bytes each, plus about
    half a kilobyte per user — and eviction is LRU over *users*: a ranking
    reads and writes one user's arrays in one vectorized step, so a user's
    pairs live and die together.

    The cache holds derived, process-local state: it is never serialized,
    so a model restored from a checkpoint (whose version counters restart
    at zero) simply starts with an empty cache.  Thread-safe; a caller
    pairing :meth:`lookup` with a recompute-and-:meth:`store` must hold
    the model lock across the pair so the stamps match the values.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # user_id -> [user_version, service ids, their versions, values],
        # least recently used user first; a user's arrays are never empty.
        self._users: OrderedDict[int, list] = OrderedDict()
        self._pairs = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _CACHE_SIZE.set_function(lambda: float(self._pairs))

    def __len__(self) -> int:
        return self._pairs

    @staticmethod
    def _locate(cached_ids: np.ndarray, service_ids: np.ndarray):
        """``(at, present)``: where each requested id sits (or would sit)
        in the sorted, non-empty ``cached_ids``, and whether it is there."""
        at = np.searchsorted(cached_ids, service_ids)
        np.minimum(at, cached_ids.size - 1, out=at)
        return at, cached_ids[at] == service_ids

    def _drop(self, user_id: int) -> None:
        self._pairs -= self._users.pop(user_id)[1].size

    def lookup(
        self,
        user_id: int,
        service_ids: np.ndarray,
        user_version: int,
        service_versions: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(values, hit)`` for one user's candidates, aligned with the
        int64 array ``service_ids``: ``values[i]`` is the cached prediction
        where ``hit[i]`` and meaningless elsewhere — a *cold* miss (never
        cached) or a *stale* one (a stamp moved) — for the caller to fill
        in.  A moved user row kills every pair of that user at once, so
        the whole entry is dropped."""
        requested = service_ids.size
        values = None
        hit = np.zeros(requested, dtype=bool)
        hits = stale = 0
        with self._lock:
            entry = self._users.get(user_id)
            if entry is not None:
                cached_user_version, cached_ids, cached_versions, cached = entry
                at, present = self._locate(cached_ids, service_ids)
                stale = int(np.count_nonzero(present))
                if cached_user_version != user_version:
                    self._drop(user_id)
                else:
                    self._users.move_to_end(user_id)
                    hit = present & (cached_versions[at] == service_versions)
                    values = cached[at]
                    hits = int(np.count_nonzero(hit))
                    stale -= hits
            self.hits += hits
            self.misses += requested - hits
        cold = requested - hits - stale
        if hits:
            _CACHE_HITS.inc(hits)
        if stale:
            _CACHE_MISS_STALE.inc(stale)
        if cold:
            _CACHE_MISS_COLD.inc(cold)
        return (np.empty(requested) if values is None else values), hit

    def store(
        self,
        user_id: int,
        service_ids: np.ndarray,
        user_version: int,
        service_versions: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Cache freshly computed predictions of one user: aligned arrays,
        stamped with the versions the values were computed under.

        A pair already cached (a stale miss) is refreshed where it sits;
        new pairs are merged into the sorted arrays.  Then whole
        least-recently-used users are evicted until at most ``capacity``
        pairs remain.  Only finite values are cacheable — a non-finite
        prediction signals unhealthy factors, and serving it from cache
        would outlive the model being repaired — and a request that names
        a new id twice is simply not cached.
        """
        if service_ids.size == 0 or not np.isfinite(values).all():
            return
        evicted = 0
        with self._lock:
            entry = self._users.get(user_id)
            if entry is not None and entry[0] != user_version:
                self._drop(user_id)
                entry = None
            fresh = (service_ids, service_versions, values)
            if entry is None:
                kept = (_NO_IDS, _NO_IDS, _NO_VALUES)
            else:
                self._users.move_to_end(user_id)
                kept = entry[1:]
                at, present = self._locate(kept[0], service_ids)
                if present.any():
                    kept[1][at[present]] = service_versions[present]
                    kept[2][at[present]] = values[present]
                    fresh = [column[~present] for column in fresh]
            added = fresh[0].size
            if not added:
                return
            ids = np.concatenate((kept[0], fresh[0]))
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            if (ids[1:] == ids[:-1]).any():
                return
            self._users[user_id] = [
                user_version,
                ids,
                np.concatenate((kept[1], fresh[1]))[order],
                np.concatenate((kept[2], fresh[2]))[order],
            ]
            self._pairs += added
            while self._pairs > self.capacity:
                __, (__, evicted_ids, __, __) = self._users.popitem(last=False)
                self._pairs -= evicted_ids.size
                evicted += evicted_ids.size
            self.evictions += evicted
        if evicted:
            _CACHE_EVICTIONS.inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._users.clear()
            self._pairs = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": self._pairs,
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def _record_replay_pass(report: "TrainReport") -> None:
    """Fold one replay pass's outcome into the trainer metrics."""
    _PHASE_REPLAY.observe(report.wall_seconds)
    _EPOCHS_HIST.observe(report.epochs)
    _PASSES.labels(outcome="converged" if report.converged else "capped").inc()
    if report.error_trace:
        _LAST_EPOCH_ERROR.set(report.error_trace[-1])


@dataclass
class TrainReport:
    """Outcome of one training pass.

    Attributes:
        arrivals:        number of newly observed samples consumed.
        replays:         number of replay SGD steps applied.
        expired:         number of stored samples dropped for staleness.
        epochs:          replay epochs executed (one epoch visits roughly the
                         whole retained store once).
        converged:       whether the convergence criterion was met before
                         ``max_epochs`` ran out.
        final_error:     mean training relative error after the pass.
        error_trace:     mean replay error per epoch (for convergence plots).
        wall_seconds:    wall-clock time spent in this pass.
        quarantined:     arrivals diverted into the sanitizer gate's
                         quarantine (0 without a gate).
    """

    arrivals: int = 0
    replays: int = 0
    expired: int = 0
    epochs: int = 0
    converged: bool = False
    final_error: float = float("nan")
    error_trace: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    quarantined: int = 0


class StreamTrainer:
    """Runs Algorithm 1's outer loop over an AMF model.

    Args:
        model:        the AMF model to train.
        tolerance:    relative improvement threshold; an epoch whose mean
                      replay error improves on the previous epoch by less
                      than this fraction counts toward convergence.
        patience:     number of consecutive low-improvement epochs required
                      to declare convergence.
        min_epochs:   epochs to run before the plateau check may fire.  A
                      cold start sits in the bilinear saddle (both factor
                      matrices near zero) for its first few epochs, where
                      per-epoch improvements are tiny; without this floor
                      the plateau detector occasionally mistakes the saddle
                      for convergence and returns an underfit model.
        max_epochs:   hard cap on replay epochs per :meth:`process` call.
        kernel:       replay kernel override ("scalar" or "vectorized")
                      passed to every :meth:`replay_many` call; ``None``
                      (default) uses the model's ``config.kernel``.
        gate:         optional :class:`repro.robustness.SanitizerGate`;
                      when set, :meth:`consume` routes every arrival
                      through it, so outliers are clipped or quarantined
                      before they reach the model.
    """

    def __init__(
        self,
        model: AdaptiveMatrixFactorization,
        tolerance: float = 5e-2,
        patience: int = 2,
        min_epochs: int = 5,
        max_epochs: int = 100,
        kernel: str | None = None,
        gate=None,
    ) -> None:
        check_positive("tolerance", tolerance)
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if min_epochs < 1:
            raise ValueError(f"min_epochs must be >= 1, got {min_epochs}")
        if max_epochs < min_epochs:
            raise ValueError(
                f"max_epochs ({max_epochs}) must be >= min_epochs ({min_epochs})"
            )
        if kernel is not None and kernel not in ("scalar", "vectorized"):
            raise ValueError(
                f"kernel must be 'scalar' or 'vectorized', got {kernel!r}"
            )
        self.model = model
        self.tolerance = tolerance
        self.patience = patience
        self.min_epochs = min_epochs
        self.max_epochs = max_epochs
        self.kernel = kernel
        self.gate = gate

    def consume(self, records: Iterable[QoSRecord]) -> TrainReport:
        """Feed newly observed samples without any replay.

        With a gate attached, each arrival may be admitted as-is, admitted
        clipped, quarantined (counted in ``report.quarantined``, not
        applied), or trigger the release of previously quarantined samples.
        """
        report = TrainReport()
        started = time.perf_counter()
        if self.gate is None:
            for record in records:
                self.model.observe(record)
                report.arrivals += 1
        else:
            from repro.robustness.gate import apply_observation

            for record in records:
                action, __ = apply_observation(self.model, self.gate, record)
                if action == "quarantine":
                    report.quarantined += 1
                report.arrivals += 1
        report.final_error = self.model.training_error()
        report.wall_seconds = time.perf_counter() - started
        _PHASE_CONSUME.observe(report.wall_seconds)
        return report

    def replay_until_converged(self, now: float) -> TrainReport:
        """Replay retained samples until the error plateaus (or caps out).

        ``now`` is the current stream time, used for expiring stale samples.
        """
        report = TrainReport()
        started = time.perf_counter()
        # Sweep out everything already stale so the epochs below iterate
        # only over live samples (random replay would discard these lazily,
        # wasting a draw per stale sample per epoch).
        report.expired += self.model.purge_expired(now)
        best_error = float("inf")
        stable_epochs = 0
        for __ in range(self.max_epochs):
            store_size = self.model.n_stored_samples
            if store_size == 0:
                break
            applied, expired, epoch_error = self.model.replay_many(
                now, store_size, kernel=self.kernel
            )
            report.replays += applied
            report.expired += expired
            if applied == 0:
                # A batch that applied nothing (every draw expired, or the
                # store emptied) is not a replay epoch; counting it skewed
                # the epochs-to-converge numbers (Fig. 13 protocol).
                break
            report.epochs += 1
            report.error_trace.append(epoch_error)
            # Converged = no epoch has beaten the best error by more than
            # ``tolerance`` (relative) for ``patience`` consecutive epochs,
            # once past the min_epochs saddle guard.  Comparing against the
            # best (not the previous) epoch keeps the sampling noise of
            # randomized replay from stalling the check.
            if epoch_error < best_error * (1.0 - self.tolerance):
                best_error = epoch_error
                stable_epochs = 0
            else:
                best_error = min(best_error, epoch_error)
                stable_epochs += 1
                if report.epochs >= self.min_epochs and stable_epochs >= self.patience:
                    report.converged = True
                    break
        report.final_error = self.model.training_error()
        report.wall_seconds = time.perf_counter() - started
        _record_replay_pass(report)
        return report

    def replay_until_error(
        self,
        now: float,
        target_error: float,
        max_epochs: int | None = None,
    ) -> TrainReport:
        """Replay until the training error reaches ``target_error``.

        The time-to-accuracy protocol used by the efficiency experiment
        (Fig. 13): "converged" means the model is back at the error level
        established during the initial full training — a warm model is
        usually there after zero or one epoch, a cold one needs the full
        climb.  Stops at ``max_epochs`` (defaults to the trainer's cap) if
        the target is unreachable, with ``converged=False``.
        """
        check_positive("target_error", target_error)
        cap = self.max_epochs if max_epochs is None else max_epochs
        report = TrainReport()
        started = time.perf_counter()
        report.expired += self.model.purge_expired(now)
        current = self.model.training_error()
        while current > target_error and report.epochs < cap:
            store_size = self.model.n_stored_samples
            if store_size == 0:
                break
            applied, expired, epoch_error = self.model.replay_many(
                now, store_size, kernel=self.kernel
            )
            report.replays += applied
            report.expired += expired
            if applied == 0:
                # Same rule as replay_until_converged: only epochs that
                # applied at least one replay step count.
                break
            report.epochs += 1
            report.error_trace.append(epoch_error)
            current = self.model.training_error()
        report.converged = current <= target_error
        report.final_error = current
        report.wall_seconds = time.perf_counter() - started
        _record_replay_pass(report)
        return report

    def process(self, records: Iterable[QoSRecord], now: float | None = None) -> TrainReport:
        """Consume arrivals, then replay to convergence.

        ``now`` defaults to the latest arrival timestamp (or 0 when no
        arrivals were provided), matching a live system where replay runs
        between arrivals at the current time.
        """
        records = list(records)
        consume_report = self.consume(records)
        if now is None:
            now = max((record.timestamp for record in records), default=0.0)
        replay_report = self.replay_until_converged(now)
        return TrainReport(
            arrivals=consume_report.arrivals,
            replays=replay_report.replays,
            expired=replay_report.expired,
            epochs=replay_report.epochs,
            converged=replay_report.converged,
            final_error=replay_report.final_error,
            error_trace=replay_report.error_trace,
            wall_seconds=consume_report.wall_seconds + replay_report.wall_seconds,
            quarantined=consume_report.quarantined,
        )
