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


class PredictionCache:
    """Version-stamped LRU cache for (user, service) predictions.

    Every SGD write site — scalar online updates, vectorized block
    scatter-writes, and row reinitialisation
    (``forget_user``/``forget_service``) — bumps a per-row version counter
    on the factor matrices.  A cache entry stores the prediction together
    with the (user_version, service_version) pair it was computed under;
    a lookup whose stamps no longer match is a *stale* miss, so a stale
    value is never served, without any write-path invalidation hooks.
    That includes hot/cold tiering, where an entity leaves its factor slot
    and comes back to another: :class:`~repro.lifecycle.TieredAMF` starts
    every slot occupancy at a version no other occupancy can reach.

    The cache holds derived, process-local state: it is never serialized,
    so a model restored from a checkpoint (whose version counters restart
    at zero) simply starts with an empty cache.  Thread-safe; callers that
    pair :meth:`get` with a recompute-and-:meth:`put` sequence should hold
    the model lock across the pair so the stamps match the value.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Keyed by one int, ``user_id << 64 | service_id``: a tuple of two
        # costs ~80 more bytes on every entry.
        self._entries: OrderedDict[int, tuple[float, int, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _CACHE_SIZE.set_function(lambda: float(len(self._entries)))

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        user_id: int,
        service_id: int,
        user_version: int,
        service_version: int,
    ) -> float | None:
        """The cached prediction, or ``None`` on a cold or stale miss."""
        key = (user_id << 64) | service_id
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                _CACHE_MISS_COLD.inc()
                return None
            value, cached_user_version, cached_service_version = entry
            if (
                cached_user_version != user_version
                or cached_service_version != service_version
            ):
                # The factors moved under this entry; drop it so the slot
                # doesn't pin a dead value in the LRU order.
                del self._entries[key]
                self.misses += 1
                _CACHE_MISS_STALE.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            _CACHE_HITS.inc()
            return value

    def put(
        self,
        user_id: int,
        service_id: int,
        value: float,
        user_version: int,
        service_version: int,
    ) -> None:
        key = (user_id << 64) | service_id
        with self._lock:
            self._entries[key] = (value, user_version, service_version)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                _CACHE_EVICTIONS.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
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
