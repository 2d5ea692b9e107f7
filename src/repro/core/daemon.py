"""Background online training: Algorithm 1's outer loop as a real thread.

The paper's Algorithm 1 is an infinite loop — absorb arrivals when they
come, replay existing data *otherwise*.  The batch drivers in
:mod:`repro.core.online` approximate it for experiments; this module runs
it for real: a :class:`ConcurrentModel` makes one AMF instance safe to
share between threads, and a :class:`BackgroundTrainer` replays in a
daemon thread while application threads report observations and ask for
predictions.

The lock is coarse (one mutex around every model operation) and unfair,
and all threads share one interpreter lock, so a trainer that re-takes
the model back to back starves the requests it races: a woken handler
loses the lock again and again.  "Otherwise" is therefore literal here —
**the idle rule**: the facade knows who is asking (every caller but the
trainer is *foreground*, see :meth:`ConcurrentModel.serving`), and the
trainer takes the model for one bounded slice (:data:`SLICE_STEPS`) only
after the stream has been idle for :data:`QUIET_SECONDS`, and at most
once per such interval; otherwise it waits.  Replay fills idle time and a
busy stream starves it by design — the trainer reports that (``yields``,
replay lag) rather than hiding it.
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
_BACKGROUND_YIELDS = _METRICS.counter(
    "qos_background_yields_total",
    "Replay slices the background trainer put off because a request was "
    "in flight or had left less than the quiet interval ago",
)

#: Replay steps per lock acquisition (``BackgroundTrainer.batch_size``'s
#: default): what a request that arrives mid-slice waits for, ~0.2 ms.
SLICE_STEPS = 64
#: How long the stream must have been idle before the trainer takes a
#: slice.  Longer than the gap between a closed-loop client's reply and its
#: next request, shorter than the gaps of any stream that has idle time.
#: It is also the trainer's pause after a slice, so the two constants set
#: the replay rate of an idle stream, 64 steps per ~1.25 ms.  Both come
#: from one sweep on the ``replay_on`` workload (docs/algorithm.md section
#: 6): less replay per interval starves the model (16 steps / 1 ms and
#: 64 / 3 ms score a worse MRE than the loop this replaced), more per
#: interval costs request latency for little accuracy, and 0.5 ms lets the
#: trainer in between a closed loop's requests.
QUIET_SECONDS = 0.001

#: The clock of the idle rule and of the replay-lag gauge; tests replace it.
_monotonic = time.monotonic


class _Foreground:
    """Who is asking: a counting mark held by every caller but the trainer.

    Entered around each foreground model call (so it covers the wait for
    the model lock as well as the hold) and, through
    :meth:`ConcurrentModel.serving`, around whole requests.  Re-entrant
    and shared between threads: only the last exit ends the arrival.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._in_flight = 0
        self._last_exit = float("-inf")

    def __enter__(self) -> None:
        with self._guard:
            self._in_flight += 1

    def __exit__(self, *exc_info) -> None:
        with self._guard:
            self._in_flight -= 1
            self._last_exit = _monotonic()

    def idle_for(self) -> float:
        with self._guard:
            if self._in_flight:
                return 0.0
            return max(0.0, _monotonic() - self._last_exit)


class ConcurrentModel:
    """Thread-safe facade over an :class:`AdaptiveMatrixFactorization`.

    Every public method takes the model lock, and every one but
    :meth:`replay_many` — the trainer's entry — is *foreground*: it holds
    the arrival mark while it waits for and holds the lock, which is what
    :meth:`idle_for` reports and the :class:`BackgroundTrainer` yields to.
    The underlying model must not be touched directly while a facade wraps
    it.
    """

    def __init__(self, model: AdaptiveMatrixFactorization) -> None:
        self._model = model
        self._lock = threading.Lock()
        self._foreground = _Foreground()
        self._latest_timestamp = 0.0

    # -- who is asking -------------------------------------------------------
    def serving(self) -> _Foreground:
        """Context manager marking a whole request as foreground.

        A request boundary holds it from receipt to reply so the trainer
        does not start a slice in the gaps *between* the request's model
        calls — a durable observe fsyncs (releasing the interpreter lock)
        before its first one.  Nests, and spans threads: the stream counts
        as idle again only when the last holder has left.
        """
        return self._foreground

    def idle_for(self) -> float:
        """Seconds since the last foreground caller left; 0.0 while any is
        in flight (waiting for the lock, holding it, or inside
        :meth:`serving`)."""
        return self._foreground.idle_for()

    # -- the model, one lock acquisition per call ------------------------------
    def observe(self, record: QoSRecord) -> float:
        with self._foreground, self._lock:
            if record.timestamp > self._latest_timestamp:
                self._latest_timestamp = record.timestamp
            return self._model.observe(record)

    @property
    def latest_timestamp(self) -> float:
        """The newest observation timestamp seen (the stream's 'now').

        One attribute read, so it takes neither the lock nor the mark: the
        trainer's default clock reads it before every slice and must not
        look like an arrival."""
        return self._latest_timestamp

    def replay_many(
        self, now: float, count: int, kernel: str | None = None
    ) -> tuple[int, int, float]:
        """The trainer's entry: the one call that is not foreground."""
        with self._lock:
            return self._model.replay_many(now, count, kernel=kernel)

    def purge_expired(self, now: float) -> int:
        with self._foreground, self._lock:
            return self._model.purge_expired(now)

    def predict(self, user_id: int, service_id: int) -> float:
        with self._foreground, self._lock:
            self._model.ensure_user(user_id)
            self._model.ensure_service(service_id)
            return self._model.predict(user_id, service_id)

    def predict_known(self, user_id: int, service_id: int) -> "float | None":
        """Predict without registering entities; ``None`` when the model
        holds no state for either id.  The degraded-mode serving path uses
        this so hostile or never-seen queries cannot grow the factor
        matrices.  Like every read here it changes nothing: a tiered model
        answers for an entity it spilled from the stored row."""
        with self._foreground, self._lock:
            if not (
                self._model.holds_user(user_id)
                and self._model.holds_service(service_id)
            ):
                return None
            return self._model.predict(user_id, service_id)

    def predict_batch_known(
        self, user_id: int, service_ids, cache=None
    ) -> tuple[list, int]:
        """Batched :meth:`predict_known` for one user: a single lock
        acquisition and one fused mat-vec for every cache miss.

        Returns ``(values, cache_hits)`` where ``values[i]`` is the
        prediction for ``service_ids[i]`` or ``None`` when the model holds
        nothing for the user or has no row in memory for that service.
        With a :class:`~repro.core.online.PredictionCache`, hits are served
        from stamped entries and only misses touch the factors; the stamps
        are read under the same lock the SGD writers take, so a concurrent
        update can never leave a fresh-looking stale entry behind.  A user
        whose row has no version to stamp (``user_version`` is ``None``: a
        tiered model reading a spilled row) is answered past the cache.
        """
        with self._foreground, self._lock:
            model = self._model
            values: list = [None] * len(service_ids)
            if not model.holds_user(user_id):
                return values, 0
            known = [
                k for k, sid in enumerate(service_ids) if model.knows_service(sid)
            ]
            if not known:
                return values, 0
            ids = np.fromiter(
                (service_ids[k] for k in known), dtype=np.int64, count=len(known)
            )
            hits = 0
            user_version = None if cache is None else model.user_version(user_id)
            if user_version is None:
                answers = model.predict_for_user(user_id, ids)
            else:
                versions = model.service_versions(ids)
                answers, hit = cache.lookup(user_id, ids, user_version, versions)
                hits = int(np.count_nonzero(hit))
                if hits < ids.size:
                    # All-miss is the common case beyond the cache's reach;
                    # a slice takes views where a mask would copy.
                    miss = ~hit if hits else slice(None)
                    computed = model.predict_for_user(user_id, ids[miss])
                    answers[miss] = computed
                    cache.store(
                        user_id, ids[miss], user_version, versions[miss], computed
                    )
            if len(known) == len(values):
                return answers.tolist(), hits
            for k, value in zip(known, answers.tolist()):
                values[k] = value
            return values, hits

    def expected_error(self, user_id: int, service_id: int) -> float:
        """Anticipated relative error of predicting ``(user_id, service_id)``
        from the EMA error trackers (the calibration confidence signal)."""
        with self._foreground, self._lock:
            return self._model.expected_error(user_id, service_id)

    def is_finite(self) -> bool:
        """Health probe: every initialized factor entry is finite."""
        with self._foreground, self._lock:
            return bool(
                np.all(np.isfinite(self._model._user_factors.view()))
                and np.all(np.isfinite(self._model._service_factors.view()))
            )

    @property
    def n_users(self) -> int:
        with self._foreground, self._lock:
            return self._model.n_users

    @property
    def n_services(self) -> int:
        with self._foreground, self._lock:
            return self._model.n_services

    def user_factors(self) -> np.ndarray:
        with self._foreground, self._lock:
            return self._model.user_factors()

    def service_factors(self) -> np.ndarray:
        with self._foreground, self._lock:
            return self._model.service_factors()

    def with_model(self, fn):
        """Run ``fn(raw_model)`` under the lock; for compound transactions
        (e.g. writing a checkpoint) that need a consistent model state."""
        with self._foreground, self._lock:
            return fn(self._model)

    def note_timestamp(self, timestamp: float) -> None:
        """Advance the stream clock without an observation (e.g. after
        recovery replays a WAL tail whose records carry old timestamps)."""
        with self._foreground, self._lock:
            if timestamp > self._latest_timestamp:
                self._latest_timestamp = timestamp

    def predict_matrix(self) -> np.ndarray:
        with self._foreground, self._lock:
            return self._model.predict_matrix()

    def training_error(self) -> float:
        with self._foreground, self._lock:
            return self._model.training_error()

    @property
    def n_stored_samples(self) -> int:
        with self._foreground, self._lock:
            return self._model.n_stored_samples

    @property
    def updates_applied(self) -> int:
        with self._foreground, self._lock:
            return self._model.updates_applied


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
        batch_size:   replay steps per slice, i.e. per lock acquisition —
                      large enough to amortize locking (and to give the
                      vectorized kernel full blocks to fuse), small enough
                      that a request arriving mid-slice barely waits.
        idle_sleep:   seconds to sleep when the store is empty.
        kernel:       replay kernel override ("scalar" or "vectorized");
                      ``None`` (default) uses the model's ``config.kernel``.
    """

    def __init__(
        self,
        model: ConcurrentModel,
        clock=None,
        batch_size: int = SLICE_STEPS,
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
        self._yields = 0
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
                self._step()
        except BaseException as exc:  # noqa: BLE001 — recorded for the supervisor
            self._failure = exc
            self._crash_count += 1
            _BACKGROUND_CRASHES.inc()

    def _step(self) -> None:
        """One turn of Algorithm 1's loop: replay a slice if the stream has
        been idle for the quiet interval, otherwise wait out the rest of it
        (on the stop event, so ``stop()`` is never kept waiting).

        After a slice the trainer sleeps a quiet interval too, so it takes
        the model at most once per interval and never holds the interpreter
        lock back to back: a handler woken by a request while slices ran
        end to end waited for CPython's forced switch (5 ms) — measured as
        the open-loop p95 of ``replay_on``, 5.3 ms without this pause and
        1.2 ms with it.  That pause is not a yield and is not counted.
        """
        idle = self.model.idle_for()
        if idle < QUIET_SECONDS:
            self._yields += 1
            _BACKGROUND_YIELDS.inc()
            self._stop.wait(QUIET_SECONDS - idle)
            return
        applied, expired, __ = self.model.replay_many(
            float(self.clock()), self.batch_size, kernel=self.kernel
        )
        self._replays_applied += applied
        self._expired += expired
        self._last_batch_monotonic = _monotonic()
        _BACKGROUND_BATCHES.inc()
        self._stop.wait(QUIET_SECONDS if applied else self.idle_sleep)

    def replay_lag_seconds(self) -> float:
        """Seconds since the last replay batch (NaN before the first).

        The operator-facing "is background training keeping up" signal,
        exposed as the ``qos_background_replay_lag_seconds`` gauge.  Under
        sustained load it grows by design (the trainer yields to requests);
        read it next to :attr:`yields`.
        """
        last = self._last_batch_monotonic
        if last is None:
            return float("nan")
        return _monotonic() - last

    @property
    def yields(self) -> int:
        """How many times the trainer put a slice off for the stream."""
        return self._yields

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
