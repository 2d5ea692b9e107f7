"""Background online training: Algorithm 1's outer loop as a real thread.

The paper's Algorithm 1 is an infinite loop — absorb arrivals when they
come, replay existing data otherwise.  The batch drivers in
:mod:`repro.core.online` approximate it for experiments; this module runs
it for real: a :class:`ConcurrentModel` makes one AMF instance safe to
share between threads, and a :class:`BackgroundTrainer` keeps replaying in
a daemon thread while application threads report observations and ask for
predictions.

The lock is coarse (one mutex around every model operation).  AMF updates
are microseconds each, so a coarse lock sustains tens of thousands of
operations per second — far beyond WS-DREAM-scale arrival rates — while
keeping the invariants trivially correct.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.amf import AdaptiveMatrixFactorization
from repro.datasets.schema import QoSRecord
from repro.observability import get_registry
from repro.utils.validation import check_positive

# Background-training observability: is replay keeping up, and is the loop
# crash-looping?  Counters are recorded per batch / per crash; the replay
# lag gauge is computed at scrape time from the most recent trainer.
_METRICS = get_registry()
_BACKGROUND_BATCHES = _METRICS.counter(
    "qos_background_batches_total",
    "Replay batches applied by the background trainer",
)
_BACKGROUND_CRASHES = _METRICS.counter(
    "qos_background_crashes_total",
    "Uncaught exceptions that killed the background replay loop",
)
_BACKGROUND_RESTARTS = _METRICS.counter(
    "qos_background_restarts_total",
    "Times the supervisor restarted a crashed background trainer",
)
_BACKGROUND_REPLAY_LAG = _METRICS.gauge(
    "qos_background_replay_lag_seconds",
    "Seconds since the background trainer last applied a replay batch "
    "(NaN before the first batch)",
)


class ConcurrentModel:
    """Thread-safe facade over an :class:`AdaptiveMatrixFactorization`.

    Every public method takes the model lock.  The underlying model must
    not be touched directly while a facade wraps it.
    """

    def __init__(self, model: AdaptiveMatrixFactorization) -> None:
        self._model = model
        self._lock = threading.Lock()
        self._latest_timestamp = 0.0

    def observe(self, record: QoSRecord) -> float:
        with self._lock:
            if record.timestamp > self._latest_timestamp:
                self._latest_timestamp = record.timestamp
            return self._model.observe(record)

    @property
    def latest_timestamp(self) -> float:
        """The newest observation timestamp seen (the stream's 'now')."""
        with self._lock:
            return self._latest_timestamp

    def replay_many(
        self, now: float, count: int, kernel: str | None = None
    ) -> tuple[int, int, float]:
        with self._lock:
            return self._model.replay_many(now, count, kernel=kernel)

    def purge_expired(self, now: float) -> int:
        with self._lock:
            return self._model.purge_expired(now)

    def predict(self, user_id: int, service_id: int) -> float:
        with self._lock:
            self._model.ensure_user(user_id)
            self._model.ensure_service(service_id)
            return self._model.predict(user_id, service_id)

    def predict_known(self, user_id: int, service_id: int) -> "float | None":
        """Predict without registering entities; ``None`` when either id is
        unknown.  The degraded-mode serving path uses this so hostile or
        cold queries cannot grow the factor matrices."""
        with self._lock:
            if not (
                self._model.knows_user(user_id)
                and self._model.knows_service(service_id)
            ):
                return None
            return self._model.predict(user_id, service_id)

    def predict_batch_known(
        self, user_id: int, service_ids, cache=None
    ) -> tuple[list, int]:
        """Batched :meth:`predict_known` for one user: a single lock
        acquisition and one fused mat-vec for every cache miss.

        Returns ``(values, cache_hits)`` where ``values[i]`` is the
        prediction for ``service_ids[i]`` or ``None`` when the user or that
        service is unknown.  With a
        :class:`~repro.core.online.PredictionCache`, hits are served from
        stamped entries and only misses touch the factors; the stamps are
        read under the same lock the SGD writers take, so a concurrent
        update can never leave a fresh-looking stale entry behind.
        """
        with self._lock:
            model = self._model
            if not model.knows_user(user_id):
                return [None] * len(service_ids), 0
            values: list = [None] * len(service_ids)
            hits = 0
            if cache is None:
                miss_positions = [
                    k
                    for k, sid in enumerate(service_ids)
                    if model.knows_service(sid)
                ]
            else:
                user_version = model.user_version(user_id)
                miss_positions = []
                for k, service_id in enumerate(service_ids):
                    if not model.knows_service(service_id):
                        continue
                    cached = cache.get(
                        user_id,
                        service_id,
                        user_version,
                        model.service_version(service_id),
                    )
                    if cached is None:
                        miss_positions.append(k)
                    else:
                        values[k] = cached
                        hits += 1
            if miss_positions:
                miss_ids = np.asarray(
                    [service_ids[k] for k in miss_positions], dtype=np.intp
                )
                predictions = model.predict_for_user(user_id, miss_ids)
                for k, service_id, value in zip(
                    miss_positions, miss_ids, predictions
                ):
                    value = float(value)
                    values[k] = value
                    # Only finite values are cacheable: a non-finite
                    # prediction signals unhealthy factors, and serving it
                    # from cache would outlive the model being repaired.
                    if cache is not None and np.isfinite(value):
                        cache.put(
                            user_id,
                            int(service_id),
                            value,
                            user_version,
                            model.service_version(int(service_id)),
                        )
            return values, hits

    def expected_error(self, user_id: int, service_id: int) -> float:
        """Anticipated relative error of predicting ``(user_id, service_id)``
        from the EMA error trackers (the calibration confidence signal)."""
        with self._lock:
            return self._model.expected_error(user_id, service_id)

    def is_finite(self) -> bool:
        """Health probe: every initialized factor entry is finite."""
        with self._lock:
            return bool(
                np.all(np.isfinite(self._model._user_factors.view()))
                and np.all(np.isfinite(self._model._service_factors.view()))
            )

    @property
    def n_users(self) -> int:
        with self._lock:
            return self._model.n_users

    @property
    def n_services(self) -> int:
        with self._lock:
            return self._model.n_services

    def user_factors(self) -> np.ndarray:
        with self._lock:
            return self._model.user_factors()

    def service_factors(self) -> np.ndarray:
        with self._lock:
            return self._model.service_factors()

    def with_model(self, fn):
        """Run ``fn(raw_model)`` under the lock; for compound transactions
        (e.g. writing a checkpoint) that need a consistent model state."""
        with self._lock:
            return fn(self._model)

    def note_timestamp(self, timestamp: float) -> None:
        """Advance the stream clock without an observation (e.g. after
        recovery replays a WAL tail whose records carry old timestamps)."""
        with self._lock:
            if timestamp > self._latest_timestamp:
                self._latest_timestamp = timestamp

    def predict_matrix(self) -> np.ndarray:
        with self._lock:
            return self._model.predict_matrix()

    def training_error(self) -> float:
        with self._lock:
            return self._model.training_error()

    @property
    def n_stored_samples(self) -> int:
        with self._lock:
            return self._model.n_stored_samples

    @property
    def updates_applied(self) -> int:
        with self._lock:
            return self._model.updates_applied

    def locked(self) -> "threading.Lock":
        """The underlying lock, for callers composing larger transactions."""
        return self._lock


class BackgroundTrainer:
    """A daemon thread that replays retained samples continuously.

    Args:
        model:        the shared (thread-safe) model.
        clock:        callable returning the current *stream* time used for
                      expiry decisions.  Defaults to the model's latest
                      observed timestamp — the only base guaranteed to be
                      consistent with the timestamps applications put on
                      their observations.  Pass ``time.monotonic`` (or a
                      simulation clock) only when observations are stamped
                      from the same source.
        batch_size:   replay steps per lock acquisition — large enough to
                      amortize locking (and to give the vectorized kernel
                      full blocks to fuse), small enough to keep arrival
                      latency low.
        idle_sleep:   seconds to sleep when the store is empty.
        kernel:       replay kernel override ("scalar" or "vectorized");
                      ``None`` (default) uses the model's ``config.kernel``.
    """

    def __init__(
        self,
        model: ConcurrentModel,
        clock=None,
        batch_size: int = 256,
        idle_sleep: float = 0.01,
        kernel: str | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        check_positive("idle_sleep", idle_sleep)
        if kernel is not None and kernel not in ("scalar", "vectorized"):
            raise ValueError(
                f"kernel must be 'scalar' or 'vectorized', got {kernel!r}"
            )
        self.model = model
        self.clock = clock if clock is not None else (lambda: model.latest_timestamp)
        self.batch_size = batch_size
        self.idle_sleep = idle_sleep
        self.kernel = kernel
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._replays_applied = 0
        self._expired = 0
        self._crash_count = 0
        self._failure: "BaseException | None" = None
        self._last_batch_monotonic: "float | None" = None
        # Most recently constructed trainer owns the scrape-time lag probe.
        _BACKGROUND_REPLAY_LAG.set_function(self.replay_lag_seconds)

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the replay thread (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="amf-background-trainer", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread to exit and join it.

        Safe to call repeatedly and from any state.  If the join times out,
        the thread reference is *abandoned* (the daemon thread will still
        exit as soon as it observes the stop event) and ``TimeoutError`` is
        raised — but the trainer is left in a consistent stopped state:
        ``running`` is False and a further ``stop()`` is a no-op.
        """
        self._stop.set()
        thread = self._thread
        if thread is None:
            return
        thread.join(timeout=timeout)
        self._thread = None
        if thread.is_alive():
            raise TimeoutError(
                "background trainer did not stop in time; thread abandoned "
                "(it exits once it observes the stop signal)"
            )

    def __enter__(self) -> "BackgroundTrainer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- worker --------------------------------------------------------------
    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                if self.model.n_stored_samples == 0:
                    self._stop.wait(self.idle_sleep)
                    continue
                applied, expired, __ = self.model.replay_many(
                    float(self.clock()), self.batch_size, kernel=self.kernel
                )
                self._replays_applied += applied
                self._expired += expired
                self._last_batch_monotonic = time.monotonic()
                _BACKGROUND_BATCHES.inc()
                if applied == 0:
                    self._stop.wait(self.idle_sleep)
        except BaseException as exc:  # noqa: BLE001 — recorded for the supervisor
            self._failure = exc
            self._crash_count += 1
            _BACKGROUND_CRASHES.inc()

    def replay_lag_seconds(self) -> float:
        """Seconds since the last replay batch (NaN before the first).

        The operator-facing "is background training keeping up" signal,
        exposed as the ``qos_background_replay_lag_seconds`` gauge.
        """
        last = self._last_batch_monotonic
        if last is None:
            return float("nan")
        return time.monotonic() - last

    @property
    def replays_applied(self) -> int:
        """Total replay updates performed by the background thread."""
        return self._replays_applied

    @property
    def expired(self) -> int:
        """Total samples the background thread expired."""
        return self._expired

    @property
    def crash_count(self) -> int:
        """How many times the replay loop died on an uncaught exception."""
        return self._crash_count

    @property
    def failure(self) -> "BaseException | None":
        """The most recent uncaught exception from the replay loop, if any."""
        return self._failure


class TrainerSupervisor:
    """Keeps a :class:`BackgroundTrainer` alive across crashes.

    Without supervision, an uncaught exception in the replay loop silently
    stops background training — the served model just quietly stales.  The
    supervisor watches the trainer thread; when it dies with a recorded
    failure, the supervisor waits a capped exponential backoff and restarts
    it, surfacing crash/restart counts for ``/status`` and ``/health``.

    Args:
        trainer:        the trainer to supervise (not yet started).
        check_interval: seconds between liveness checks.
        backoff_base:   first restart delay; doubles per consecutive crash.
        backoff_max:    delay cap.
        backoff_reset:  a trainer that stays alive this long after a restart
                        resets the backoff to ``backoff_base``.
    """

    def __init__(
        self,
        trainer: BackgroundTrainer,
        check_interval: float = 0.05,
        backoff_base: float = 0.1,
        backoff_max: float = 5.0,
        backoff_reset: float = 10.0,
    ) -> None:
        check_positive("check_interval", check_interval)
        check_positive("backoff_base", backoff_base)
        check_positive("backoff_max", backoff_max)
        check_positive("backoff_reset", backoff_reset)
        self.trainer = trainer
        self.check_interval = check_interval
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.backoff_reset = backoff_reset
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._restarts = 0
        # Crash-count baseline taken *before* the trainer ever runs: if the
        # monitor thread snapshotted it after start(), a crash in the gap
        # would look already-handled and the trainer would never restart.
        self._seen_crashes = trainer.crash_count

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the trainer and the monitor thread (idempotent)."""
        self.trainer.start()
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._monitor, name="amf-trainer-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the monitor first (so it cannot resurrect), then the trainer."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None
        self.trainer.stop(timeout=timeout)

    def __enter__(self) -> "TrainerSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- monitor -------------------------------------------------------------
    def _monitor(self) -> None:
        backoff = self.backoff_base
        last_restart = float("-inf")
        while not self._stop.wait(self.check_interval):
            if self.trainer.crash_count == self._seen_crashes or self.trainer.running:
                continue
            now = time.monotonic()
            if now - last_restart > self.backoff_reset:
                backoff = self.backoff_base
            if self._stop.wait(backoff):
                return
            self._seen_crashes = self.trainer.crash_count
            # Count first: a reader that sees the trainer running again
            # must already see the restart that made it so.
            self._restarts += 1
            _BACKGROUND_RESTARTS.inc()
            self.trainer.start()
            last_restart = time.monotonic()
            backoff = min(backoff * 2.0, self.backoff_max)

    # -- introspection -------------------------------------------------------
    @property
    def restarts(self) -> int:
        """How many times the supervisor restarted the trainer."""
        return self._restarts

    @property
    def crashes(self) -> int:
        return self.trainer.crash_count

    @property
    def last_failure(self) -> "str | None":
        """Human-readable description of the most recent trainer crash."""
        failure = self.trainer.failure
        if failure is None:
            return None
        return f"{type(failure).__name__}: {failure}"

    def health(self) -> dict:
        """Snapshot for ``/status`` and ``/health`` payloads."""
        return {
            "running": self.trainer.running,
            "supervised": self.running,
            "crashes": self.crashes,
            "restarts": self._restarts,
            "last_failure": self.last_failure,
        }
