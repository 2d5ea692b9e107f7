"""Streaming sanitizer + outlier gate for untrusted QoS streams.

AMF's accuracy rests on a stream collected from distributed, unreliable
users (Section IV-C): a mis-calibrated probe, a broken collector, or a
hostile client can feed the model tail values that a single weighted SGD
step happily absorbs — and Outlier-Resilient QoS Prediction (Ye et al.,
arXiv:2006.01287) shows exactly how much tail-corrupted data degrades MF
factors.  The gate sits between ingest and the model and decides, per
sample, one of:

* **admit** — the value is consistent with what this user and this service
  have been producing; apply it unchanged.
* **clip** — the value is suspicious but not wild; admit it with its
  normalized value clamped into the entity's plausible band, bounding the
  influence any single sample can exert on an update (the β-divergence
  idea of Peng & Wu, arXiv:2208.06778, implemented as hard clamping).
* **quarantine** — the value is far outside both entities' bands; hold it
  in a bounded buffer instead of applying it.  If the next few samples for
  the same (user, service) pair *corroborate* it (a genuine level shift
  looks like repeated consistent extremes, an outlier does not), the whole
  pending group is released into the model; otherwise it ages out when the
  buffer evicts.

Statistics are robust by construction: per-user and per-service EMA
estimates of the center and spread of the Box-Cox-normalized values
(:meth:`~repro.core.amf.AdaptiveMatrixFactorization.normalize_value`),
updated only with admitted (and already-clamped) samples, so no single
observation can move an entity's band by more than ``ema * clip_k *
spread``.

The gate is **deterministic**: decisions are a pure function of the
sample sequence and the gate state, it draws no randomness, and its full
state round-trips exactly through :meth:`SanitizerGate.state_dict` /
:meth:`SanitizerGate.restore` (floats survive JSON bit-for-bit).  That is
what lets the prediction server re-run the gate over a WAL tail after a
crash and reproduce the pre-crash admit/clip/quarantine decisions — and
therefore the pre-crash model — bit-exactly (``tests/test_recovery.py``).

Not thread-safe: the server drives it under its ingest lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.datasets.schema import QoSRecord
from repro.observability import get_registry

# Gate observability: the decision counters are the operator's first view of
# stream hygiene (a quarantine spike = someone is feeding you garbage), and
# the score histogram shows where the admit/clip/quarantine thresholds sit
# relative to live traffic.
_METRICS = get_registry()
_ADMITTED = _METRICS.counter(
    "qos_gate_admitted_total", "Samples the outlier gate admitted unchanged"
)
_CLIPPED = _METRICS.counter(
    "qos_gate_clipped_total",
    "Samples admitted with their value clamped into the plausible band",
)
_QUARANTINED = _METRICS.counter(
    "qos_gate_quarantined_total", "Samples diverted into the quarantine buffer"
)
_RELEASED = _METRICS.counter(
    "qos_gate_released_total",
    "Quarantined samples released into the model after corroboration",
)
_EVICTED = _METRICS.counter(
    "qos_gate_evicted_total",
    "Quarantined samples dropped when the bounded buffer evicted their pair",
)
_SCORE = _METRICS.histogram(
    "qos_gate_score",
    "Robust residual score (spread multiples) of gated samples",
)
_QUARANTINE_SIZE = _METRICS.gauge(
    "qos_gate_quarantine_size", "Samples currently held in quarantine"
)


@dataclass(frozen=True, slots=True)
class GateConfig:
    """Tuning knobs for the :class:`SanitizerGate`.

    ``warmup`` and ``ema`` are fields; the other six are class constants
    (one value in use each).

    Attributes:
        warmup:          samples an entity must contribute before its band
                         participates in gating; colder entities admit
                         everything (and build statistics).
        ema:             EMA step for the center/spread trackers.  Smaller
                         is more stable, larger adapts faster to genuine
                         drift.
        clip_k:          spread multiples beyond which a sample is clamped
                         rather than admitted verbatim.
        quarantine_k:    spread multiples beyond which a sample is
                         quarantined instead of clamped.
        min_spread:      floor on the spread estimate (normalized units) so
                         an entity with near-constant history doesn't
                         quarantine every harmless wobble.
        quarantine_max:  total samples the quarantine buffer may hold; the
                         oldest pair is evicted (dropped for good) beyond
                         this.
        corroborate:     consecutive consistent extreme samples of the same
                         (user, service) pair required to release the pair's
                         quarantined group into the model.
        corroborate_tol: closeness (normalized units) within which a new
                         extreme sample counts as corroborating the pending
                         group.
    """

    warmup: int = 8
    ema: float = 0.05
    clip_k: ClassVar[float] = 4.0
    quarantine_k: ClassVar[float] = 8.0
    min_spread: ClassVar[float] = 0.02
    quarantine_max: ClassVar[int] = 256
    corroborate: ClassVar[int] = 3
    corroborate_tol: ClassVar[float] = 0.08

    def __post_init__(self) -> None:
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if not (0.0 < self.ema <= 1.0):
            raise ValueError(f"ema must be in (0, 1], got {self.ema}")


@dataclass(slots=True)
class GateDecision:
    """Outcome of gating one sample.

    ``action`` is ``"admit"``, ``"clip"``, ``"quarantine"``, or
    ``"release"``; ``value`` is the (possibly clamped) raw value to apply
    for the current sample when it is admitted; ``released`` lists
    previously quarantined records to apply *before* the current one when a
    corroborated group is released; ``score`` is the robust residual score
    that drove the decision (NaN while either entity is still warming up).
    """

    action: str
    value: float
    released: list[QoSRecord] = field(default_factory=list)
    score: float = float("nan")


class _EntityStats:
    """EMA center/spread tracker for one user or one service."""

    __slots__ = ("n", "center", "spread")

    def __init__(self, n: int = 0, center: float = 0.0, spread: float = 0.0) -> None:
        self.n = n
        self.center = center
        self.spread = spread

    def triple(self) -> list:
        """``[n, center, spread]`` — the JSON form (spill payloads, checkpoints)."""
        return [self.n, self.center, self.spread]

    @classmethod
    def from_triple(cls, n, center, spread) -> "_EntityStats":
        return cls(int(n), float(center), float(spread))


class SanitizerGate:
    """Admit / clip / quarantine decisions over a QoS sample stream.

    Args:
        config:      gate thresholds (:class:`GateConfig`).
        normalize:   callable mapping a raw QoS value to the model's
                     normalized ``[0, 1]`` space (Box-Cox + linear, floored)
                     — pass ``model.normalize_value``.
        denormalize: the inverse mapping for producing clamped raw values —
                     pass ``model.denormalize_value``.
    """

    def __init__(self, config: "GateConfig | None", normalize, denormalize) -> None:
        self.config = config if config is not None else GateConfig()
        self._normalize = normalize
        self._denormalize = denormalize
        self._users: dict[int, _EntityStats] = {}
        self._services: dict[int, _EntityStats] = {}
        # pair -> pending [timestamp, raw value, normalized value] triples,
        # in arrival order; dict insertion order doubles as the FIFO for
        # whole-pair eviction when the buffer overflows.
        self._pending: dict[tuple[int, int], list[list[float]]] = {}
        self._held = 0
        self.counts: dict[str, int] = {
            "admitted": 0,
            "clipped": 0,
            "quarantined": 0,
            "released": 0,
            "evicted": 0,
        }

    # -- statistics ----------------------------------------------------------
    def _band(self, stats: _EntityStats) -> tuple[float, float]:
        spread = max(stats.spread, self.config.min_spread)
        k = self.config.clip_k
        return stats.center - k * spread, stats.center + k * spread

    def _score(self, stats: _EntityStats, x: float) -> float:
        return abs(x - stats.center) / max(stats.spread, self.config.min_spread)

    def _update(self, stats: _EntityStats, x: float, bound: bool = True) -> None:
        """Fold one accepted normalized value into an entity's trackers.

        ``bound=True`` clamps the update input into the current band first,
        so a single sample can shift the center by at most
        ``ema * clip_k * spread`` — the influence bound that keeps the
        trackers robust even when the clip threshold mis-fires.
        """
        if stats.n == 0:
            stats.center = x
            stats.spread = self.config.min_spread
        else:
            if bound and stats.n >= self.config.warmup:
                lo, hi = self._band(stats)
                x = min(max(x, lo), hi)
            ema = self.config.ema
            stats.spread = (1.0 - ema) * stats.spread + ema * abs(x - stats.center)
            if stats.spread < self.config.min_spread:
                stats.spread = self.config.min_spread
            stats.center = (1.0 - ema) * stats.center + ema * x
        stats.n += 1

    def _stats_for(self, record: QoSRecord) -> tuple[_EntityStats, _EntityStats]:
        user = self._users.get(record.user_id)
        if user is None:
            user = self._users[record.user_id] = _EntityStats()
        service = self._services.get(record.service_id)
        if service is None:
            service = self._services[record.service_id] = _EntityStats()
        return user, service

    # -- quarantine ----------------------------------------------------------
    @property
    def quarantine_size(self) -> int:
        """Samples currently held in the quarantine buffer."""
        return self._held

    def _evict(self, pair: tuple[int, int]) -> None:
        """Drop one pair's pending group, counted as eviction."""
        dropped = len(self._pending.pop(pair))
        self._held -= dropped
        self.counts["evicted"] += dropped
        _EVICTED.inc(dropped)

    def _evict_over_budget(self) -> None:
        while self._held > self.config.quarantine_max and self._pending:
            self._evict(next(iter(self._pending)))

    def _quarantine(
        self, record: QoSRecord, x: float, score: float
    ) -> GateDecision:
        pair = (record.user_id, record.service_id)
        pending = self._pending.get(pair)
        entry = [record.timestamp, record.value, x]
        if pending:
            mean_x = sum(item[2] for item in pending) / len(pending)
            if abs(x - mean_x) <= self.config.corroborate_tol:
                pending.append(entry)
                self._held += 1
                if len(pending) >= self.config.corroborate:
                    # Corroborated level shift: release the whole group.
                    del self._pending[pair]
                    self._held -= len(pending)
                    released = [
                        QoSRecord(
                            timestamp=item[0],
                            user_id=record.user_id,
                            service_id=record.service_id,
                            value=item[1],
                        )
                        for item in pending[:-1]
                    ]
                    user, service = self._stats_for(record)
                    for item in pending:
                        # Unbounded updates: the trackers must chase the new
                        # level, not clamp it back into the stale band.
                        self._update(user, item[2], bound=False)
                        self._update(service, item[2], bound=False)
                    self.counts["released"] += len(pending)
                    _RELEASED.inc(len(pending))
                    _QUARANTINE_SIZE.set(self._held)
                    return GateDecision(
                        "release", record.value, released=released, score=score
                    )
            else:
                # Inconsistent with the pending group: the group was noise.
                # Start over from the current sample.
                self._evict(pair)
                self._pending[pair] = [entry]
                self._held += 1
        else:
            self._pending[pair] = [entry]
            self._held += 1
        self.counts["quarantined"] += 1
        _QUARANTINED.inc()
        self._evict_over_budget()
        _QUARANTINE_SIZE.set(self._held)
        return GateDecision("quarantine", record.value, score=score)

    # -- the gate ------------------------------------------------------------
    def process(self, record: QoSRecord) -> GateDecision:
        """Decide one sample.  Deterministic; mutates the gate state."""
        x = float(self._normalize(record.value))
        user, service = self._stats_for(record)
        if user.n < self.config.warmup or service.n < self.config.warmup:
            self._update(user, x)
            self._update(service, x)
            self.counts["admitted"] += 1
            _ADMITTED.inc()
            return GateDecision("admit", record.value)
        score = max(self._score(user, x), self._score(service, x))
        _SCORE.observe(score)
        if score > self.config.quarantine_k:
            return self._quarantine(record, x, score)
        if score > self.config.clip_k:
            user_lo, user_hi = self._band(user)
            service_lo, service_hi = self._band(service)
            lo = max(user_lo, service_lo)
            hi = min(user_hi, service_hi)
            if lo > hi:  # disjoint bands: split the difference
                clamped = 0.5 * (lo + hi)
            else:
                clamped = min(max(x, lo), hi)
            clamped = min(max(clamped, 0.0), 1.0)
            self._update(user, clamped)
            self._update(service, clamped)
            self.counts["clipped"] += 1
            _CLIPPED.inc()
            return GateDecision(
                "clip", float(self._denormalize(clamped)), score=score
            )
        self._update(user, x)
        self._update(service, x)
        self.counts["admitted"] += 1
        _ADMITTED.inc()
        return GateDecision("admit", record.value, score=score)

    # -- per-entity export/import (hot/cold tiering) -------------------------
    def _trackers(self, kind: str) -> "tuple[dict[int, _EntityStats], int]":
        """One kind's tracker table and its position in a pending pair."""
        if kind == "user":
            return self._users, 0
        if kind == "service":
            return self._services, 1
        raise ValueError(f"unknown entity kind {kind!r}")

    def export_entity(self, kind: str, entity_id: int) -> "list | None":
        """Remove and return an entity's tracker as ``[n, center, spread]``.

        ``None`` when the gate has never seen the entity.  Used by the
        tiering layer to carry gate state through the spill store so a
        revived entity resumes gating exactly where it left off.

        Every pending quarantine pair involving the entity is evicted too:
        a demoted entity's pending extremes can never corroborate (its next
        sample revives it with freshly imported stats), so holding them
        would leak quarantine budget; dropping is deterministic and counted
        as eviction, same as FIFO overflow.
        """
        trackers, index = self._trackers(kind)
        stats = trackers.pop(entity_id, None)
        stale = [pair for pair in self._pending if pair[index] == entity_id]
        for pair in stale:
            self._evict(pair)
        if stale:
            _QUARANTINE_SIZE.set(self._held)
        return stats.triple() if stats is not None else None

    def peek_entity(self, kind: str, entity_id: int) -> "list | None":
        """Read an entity's tracker as ``[n, center, spread]`` without removal.

        Unlike :meth:`export_entity` this leaves the tracker (and any
        pending quarantine pairs) untouched — used by entity migration to
        snapshot gate state while the source shard keeps serving the entity.
        """
        stats = self._trackers(kind)[0].get(entity_id)
        return stats.triple() if stats is not None else None

    def import_entity(self, kind: str, entity_id: int, entry: "list | None") -> None:
        """Restore an entity's tracker from an :meth:`export_entity` triple
        (``None``, an entity the exporting gate never saw, restores nothing)."""
        if entry is not None:
            self._trackers(kind)[0][entity_id] = _EntityStats.from_triple(*entry)

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full gate state.

        Floats survive ``json.dumps``/``loads`` exactly (shortest-repr
        round-trip), so a restored gate reproduces future decisions
        bit-for-bit.
        """
        return {
            "users": [[uid, *s.triple()] for uid, s in self._users.items()],
            "services": [[sid, *s.triple()] for sid, s in self._services.items()],
            "pending": [
                [pair[0], pair[1], [list(item) for item in entries]]
                for pair, entries in self._pending.items()
            ],
            "counts": dict(self.counts),
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`state_dict` snapshot (replaces current state)."""
        def trackers(rows) -> "dict[int, _EntityStats]":
            return {
                int(eid): _EntityStats.from_triple(*triple) for eid, *triple in rows
            }

        self._users = trackers(state.get("users", []))
        self._services = trackers(state.get("services", []))
        self._pending = {
            (int(u), int(s)): [
                [float(t), float(v), float(x)] for t, v, x in entries
            ]
            for u, s, entries in state.get("pending", [])
        }
        self._held = sum(len(entries) for entries in self._pending.values())
        counts = state.get("counts", {})
        for key in self.counts:
            self.counts[key] = int(counts.get(key, 0))
        _QUARANTINE_SIZE.set(self._held)


def apply_observation(model, gate: "SanitizerGate | None", record: QoSRecord):
    """Route one validated observation through the gate into a model.

    The single code path shared by live ingestion and WAL-tail recovery —
    identical inputs must produce identical model state on both, which is
    the crash-recovery contract.  ``model`` may be a raw
    :class:`~repro.core.amf.AdaptiveMatrixFactorization` or a
    :class:`~repro.core.daemon.ConcurrentModel`; only ``observe`` is used.

    Returns ``(action, applied)`` where ``applied`` is the list of
    ``(record, sample_error)`` pairs actually given to the model, in apply
    order (released quarantined records first, then the current sample
    unless it was quarantined).
    """
    if gate is None:
        return "admit", [(record, model.observe(record))]
    decision = gate.process(record)
    applied = [(released, model.observe(released)) for released in decision.released]
    if decision.action == "quarantine":
        return decision.action, applied
    if decision.value != record.value:
        record = QoSRecord(
            timestamp=record.timestamp,
            user_id=record.user_id,
            service_id=record.service_id,
            value=decision.value,
            slice_id=record.slice_id,
        )
    applied.append((record, model.observe(record)))
    return decision.action, applied
