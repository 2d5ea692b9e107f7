"""Overload admission control for the prediction server's ingest path.

The predict-then-observe loop shares one ingest lock (WAL-append order
must match model-apply order), so an unchecked observation flood from one
misbehaving client stalls everyone.  Admission control sheds that load at
the front door instead:

* a **token bucket** (``rate`` tokens/second, ``burst`` capacity) bounds
  the sustained observation rate — excess requests get **429** with a
  ``Retry-After`` telling the client when tokens will be available;
* a **bounded pending counter** models the ingest queue — when more than
  ``max_pending`` observation requests are already waiting on the ingest
  lock, new ones get **503** rather than piling onto the convoy;
* a **deadline budget** caps how long an admitted request may wait for
  the ingest lock before giving up with 503 — a slow checkpoint can delay
  ingestion, but it can never strand a client past its deadline.

Only the *observation* path is admission-controlled.  Predictions are
read-mostly, cheap, and exactly what a load-shedding server must keep
serving — the degraded-mode chain in ``docs/operations.md`` stays fully
available during a flood.

Shedding raises :class:`RateLimited` / :class:`Overloaded` (both
:class:`ShedRequest`), each carrying ``retry_after`` seconds for the
response header.  Deterministic state (the token bucket) is intentionally
*not* persisted: admission is a live-traffic concern, not model state,
and a restarted server starts with a full bucket.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.observability import get_registry
from repro.server.http import ServiceError

_METRICS = get_registry()
_SHED = _METRICS.counter(
    "qos_requests_shed_total",
    "Ingest requests refused by admission control",
    labelnames=("reason",),
)
# Pre-bind the children so all reasons render from the first scrape.
_SHED_RATE = _SHED.labels(reason="rate_limit")
_SHED_OVERLOAD = _SHED.labels(reason="overload")
_SHED_DEADLINE = _SHED.labels(reason="deadline")
_QUEUE_DEPTH = _METRICS.gauge(
    "qos_ingest_queue_depth",
    "Observation requests currently admitted and waiting to ingest",
)


class ShedRequest(ServiceError):
    """Base for admission-control refusals; carries a retry hint (in the
    body and, rounded up to whole seconds, the ``Retry-After`` header)."""

    status = 503

    def __init__(self, message: str, retry_after: float) -> None:
        self.retry_after = max(float(retry_after), 0.0)
        super().__init__(message, retry_after=self.retry_after)


class RateLimited(ShedRequest):
    """Token bucket empty: the client is sending faster than ``rate``."""

    status = 429


class Overloaded(ShedRequest):
    """Ingest queue full or deadline exhausted waiting for the lock."""

    status = 503


class TokenBucket:
    """Classic token bucket on the monotonic clock.

    ``try_acquire(n)`` either takes ``n`` tokens and returns ``0.0``, or
    leaves the bucket untouched and returns the seconds until ``n`` tokens
    will have accumulated.  Thread-safe.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, n: float = 1.0) -> float:
        """Take ``n`` tokens now, or return the wait (seconds) until possible."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= n:
                self._tokens -= n
                return 0.0
            return (n - self._tokens) / self.rate

    @property
    def available(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Knobs for :class:`AdmissionController`.

    Attributes:
        rate:        sustained observations/second the server accepts.
        burst:       bucket capacity — short bursts up to this size pass at
                     full speed.
        max_pending: observation requests allowed to wait on the ingest
                     lock at once before new ones are shed with 503.
        deadline:    seconds an admitted request may wait for the ingest
                     lock before 503 (its per-request processing budget).
        retry_after_floor: minimum ``Retry-After`` hint, so very small
                     waits don't invite instant hammering.
    """

    rate: float = 500.0
    burst: float = 100.0
    max_pending: int = 64
    deadline: float = 2.0
    retry_after_floor: float = 0.05

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.retry_after_floor < 0:
            raise ValueError(
                f"retry_after_floor must be >= 0, got {self.retry_after_floor}"
            )


class AdmissionController:
    """Front-door gate for observation requests.

    Usage (the server wraps this in a ``with admission.admit(cost):``
    around the whole WAL-append-and-apply section)::

        with controller.admit(cost=len(batch)):
            ... acquire ingest lock within controller.deadline ...

    ``admit`` raises :class:`RateLimited` or :class:`Overloaded` instead of
    entering the block when the request should be shed.
    """

    def __init__(self, config: "AdmissionConfig | None" = None, clock=time.monotonic) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.bucket = TokenBucket(self.config.rate, self.config.burst, clock=clock)
        self._pending = 0
        self._lock = threading.Lock()
        self.counts = {"rate_limited": 0, "overloaded": 0, "deadline": 0}

    @property
    def deadline(self) -> float:
        return self.config.deadline

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def _hint(self, wait: float) -> float:
        return max(wait, self.config.retry_after_floor)

    def admit(self, cost: float = 1.0) -> "_Admission":
        """Admit an ingest request of ``cost`` observations, or shed it."""
        wait = self.bucket.try_acquire(cost)
        if wait > 0.0:
            with self._lock:
                self.counts["rate_limited"] += 1
            _SHED_RATE.inc()
            raise RateLimited(
                f"observation rate limit exceeded ({self.config.rate}/s)",
                retry_after=self._hint(wait),
            )
        with self._lock:
            if self._pending >= self.config.max_pending:
                self.counts["overloaded"] += 1
                _SHED_OVERLOAD.inc()
                raise Overloaded(
                    f"ingest queue full ({self.config.max_pending} pending)",
                    retry_after=self._hint(self.config.deadline),
                )
            self._pending += 1
            _QUEUE_DEPTH.set(self._pending)
        return _Admission(self)

    def note_deadline_exceeded(self) -> Overloaded:
        """Record a deadline shed; returns the exception for the caller to raise."""
        with self._lock:
            self.counts["deadline"] += 1
        _SHED_DEADLINE.inc()
        return Overloaded(
            f"ingest deadline exceeded ({self.config.deadline}s waiting for "
            "the ingest lock)",
            retry_after=self._hint(self.config.deadline),
        )

    def _release(self) -> None:
        with self._lock:
            self._pending -= 1
            _QUEUE_DEPTH.set(self._pending)


class _Admission:
    """Context manager releasing one admitted request's queue slot."""

    __slots__ = ("_controller",)

    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info) -> None:
        self._controller._release()
