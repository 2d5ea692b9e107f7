"""Idempotent ingest: bounded dedup ledger + timestamp hygiene policies.

At-least-once delivery is the only delivery guarantee a client over HTTP
can actually implement: a timeout after the server fsync'd the WAL leaves
the caller unable to tell whether the observation landed.  Retrying is
then only safe if the server can recognize the retry.  The
:class:`DedupLedger` gives it that memory — a bounded, insertion-ordered
set of caller-supplied idempotency keys; a key seen before is
acknowledged without touching the WAL or the model (an SGD step must not
run twice for one measurement).

The ledger is part of the durable state: keys ride in the WAL records
that carried them, so a crash-recovered server rebuilds exactly the
ledger it had, and the bounded size is enforced identically live and
during replay — which keeps recovery deterministic.

:class:`TimestampPolicy` is the companion hygiene filter: observations
stamped too far in the future (clock skew) or too stale relative to the
newest ingested sample (a replaying collector flushing an old queue) are
rejected at the boundary before they can distort the model's
time-decayed replay weights.  Both checks are off by default.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from repro.observability import get_registry

_METRICS = get_registry()
_DEDUPED = _METRICS.counter(
    "qos_ingest_deduped_total",
    "Observations acknowledged as duplicates via their idempotency key",
)
_STALE = _METRICS.counter(
    "qos_ingest_stale_total",
    "Observations rejected by the timestamp policy",
    labelnames=("reason",),
)
# Pre-bind label children so the family renders from the first scrape.
_STALE_OLD = _STALE.labels(reason="stale")
_STALE_FUTURE = _STALE.labels(reason="future")


class DedupLedger:
    """Bounded insertion-ordered set of idempotency keys.

    ``capacity`` bounds memory: beyond it the oldest key is evicted, after
    which a *very* late retry of that observation would be re-applied —
    size the ledger to cover the client's maximum retry horizon
    (`docs/operations.md`).  Not thread-safe; the server drives it under
    its ingest lock.
    """

    __slots__ = ("capacity", "_keys")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._keys: OrderedDict[str, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._keys)

    def seen(self, key: str) -> bool:
        """Whether ``key`` was already ingested (does not record it)."""
        return key in self._keys

    def add(self, key: str) -> None:
        """Record ``key`` as ingested, evicting the oldest beyond capacity.

        Called *after* the WAL append succeeds so ledger state never runs
        ahead of the log (the replay path rebuilds it from WAL records in
        the same order).
        """
        self._keys[key] = None
        self._keys.move_to_end(key)
        while len(self._keys) > self.capacity:
            self._keys.popitem(last=False)

    def note_duplicate(self) -> None:
        """Count one dedup hit in the metrics registry."""
        _DEDUPED.inc()

    def state_dict(self) -> dict:
        return {"capacity": self.capacity, "keys": list(self._keys)}

    def restore(self, state: dict) -> None:
        self.capacity = int(state.get("capacity", self.capacity))
        self._keys = OrderedDict.fromkeys(map(str, state.get("keys", [])))


class StaleObservation(ValueError):
    """An observation rejected by the :class:`TimestampPolicy`.

    ``reason`` is ``"stale"`` or ``"future"``; the server maps this to a
    structured 400.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True, slots=True)
class TimestampPolicy:
    """Bounds on how far an observation's timestamp may drift.

    Attributes:
        max_future_skew: seconds an observation may be stamped ahead of the
                         newest timestamp seen so far (tolerates collector
                         clock skew); ``inf`` disables the check.
        max_staleness:   seconds an observation may lag the newest timestamp
                         seen so far; ``inf`` disables the check.
    """

    max_future_skew: float = float("inf")
    max_staleness: float = float("inf")

    def __post_init__(self) -> None:
        if math.isnan(self.max_future_skew) or self.max_future_skew < 0:
            raise ValueError(
                f"max_future_skew must be >= 0, got {self.max_future_skew}"
            )
        if math.isnan(self.max_staleness) or self.max_staleness < 0:
            raise ValueError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )

    def check(self, timestamp: float, latest: float | None) -> None:
        """Raise :class:`StaleObservation` if ``timestamp`` violates policy.

        ``latest`` is the newest timestamp previously ingested (``None``
        for a cold stream — the first observation always passes).
        """
        if latest is None:
            return
        if timestamp - latest > self.max_future_skew:
            _STALE_FUTURE.inc()
            raise StaleObservation(
                "future",
                f"timestamp {timestamp} is {timestamp - latest:.3f}s ahead of "
                f"the stream head {latest} (max_future_skew="
                f"{self.max_future_skew})",
            )
        if latest - timestamp > self.max_staleness:
            _STALE_OLD.inc()
            raise StaleObservation(
                "stale",
                f"timestamp {timestamp} is {latest - timestamp:.3f}s behind "
                f"the stream head {latest} (max_staleness={self.max_staleness})",
            )
