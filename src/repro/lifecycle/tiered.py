"""Bounded-memory entity lifecycle: hot/cold tiering over the AMF model.

Every per-entity structure in the base model — factor rows, EMA error
trackers, sample-store indices — grows monotonically with distinct ids, so
a long-lived churn stream is an OOM waiting to happen.  :class:`TieredAMF`
bounds all of it: external entity ids (unbounded, sparse) are mapped onto
internal **slots** (dense, bounded, recycled through a free list), and all
inherited machinery — SGD kernels, replay, the sample store, serialization
— operates purely in slot space.  When the live population exceeds the
configured hot capacity, the coldest entities are **demoted**: their exact
state (factor row, EMA error, retained samples, sanitizer-gate statistics)
is serialized into the :class:`~repro.lifecycle.spill.SpillStore` and their
slot is recycled.  A later observation **revives** them with their state
restored bit-for-bit (modulo samples whose peer is itself cold, which are
dropped — a documented re-warming tradeoff).

**Reads never write.**  A prediction that names a spilled entity reads its
factor row and EMA error through the spill store (:meth:`TieredAMF._read_through`)
and answers exactly what it would have answered had the entity been hot:
the stored payload carries the exact float64 row and error, and a spilled
row is immutable until a logged revive takes it out of the store.  Nothing
moves, no tick advances, nothing is logged — so any node that holds the row
(a standby, a fenced or read-only primary) answers from it, and only the
write path changes who is hot.  *Hot* therefore means recently **written**,
which is all ``touch`` ever recorded: reading a hot entity never touched it
either.

Determinism contract (what keeps WAL recovery and standby replication
bit-exact, ``docs/algorithm.md`` § "Hot/cold tiering"):

* **Demotions are pure functions of model state** — they run inside
  :meth:`observe` / :meth:`apply_pressure` and are *not* WAL-logged;
  replaying the same observation/event sequence reproduces the same
  demotions, the same spill payloads, and the same free-list order.
* **Revives are WAL events carrying their payload.**  The spill row at
  recovery time reflects the *latest* state, not the state at the replayed
  sequence position, so replay must restore from the logged payload — the
  server appends a ``revive_*`` event (and the standby receives it) before
  the observation that triggered it.
* **Slot allocation randomness is sequence-determined.**  A fresh slot
  draws one init vector (exactly like the flat model's ``ensure``); a
  recycled slot draws one on reinitialization for a *new* entity and none
  on revival.  Which case occurs is itself a deterministic function of the
  sequence, so the RNG stream replays exactly.

Nothing here flushes the spill file: demotions and revives write through
the store's open transaction and the server's checkpoint commits it
(:mod:`repro.lifecycle.spill` has the contract), because recovery reads only
the rows of entities spilled at the checkpoint and untouched since.

The :class:`MemoryWatchdog` closes the loop: it polls resident entity
bytes against a limit and, under sustained pressure, asks the server to
tighten capacities (a WAL-logged ``pressure`` event, so recovery and the
standby converge to the same tier assignment).  No read is ever refused
for it: a read cannot grow the hot tier.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.config import AMFConfig
from repro.core.transform import sigmoid
from repro.datasets.schema import QoSRecord
from repro.lifecycle.spill import SpillStore
from repro.observability import get_registry

_METRICS = get_registry()
# Same family observe() increments in the flat model (get-or-create returns
# the identical Counter object).
_OBSERVATIONS = _METRICS.counter(
    "qos_amf_observations_total",
    "QoS samples ingested via observe() (arrival SGD steps)",
)
_LC_RESIDENT = _METRICS.gauge(
    "qos_lifecycle_resident_bytes",
    "Tracked resident bytes of per-entity model state (hot tier)",
)
_LC_HOT = _METRICS.gauge(
    "qos_lifecycle_hot_entities",
    "Entities currently resident in the hot tier, by kind",
    labelnames=("kind",),
)
_LC_SPILLED = _METRICS.gauge(
    "qos_lifecycle_spilled_entities",
    "Entities currently demoted to the spill store, by kind",
    labelnames=("kind",),
)
_LC_DEMOTIONS = _METRICS.counter(
    "qos_lifecycle_demotions_total",
    "Entities demoted from the hot tier to the spill store, by kind",
    labelnames=("kind",),
)
_LC_REVIVALS = _METRICS.counter(
    "qos_lifecycle_revivals_total",
    "Entities revived from the spill store into the hot tier, by kind",
    labelnames=("kind",),
)
_LC_COLD_READS = _METRICS.counter(
    "qos_lifecycle_cold_reads_total",
    "Spilled entities a prediction read through the spill store (a point "
    "lookup and a payload decode each; nothing is revived), by kind",
    labelnames=("kind",),
)
_LC_PRESSURE_LEVEL = _METRICS.gauge(
    "qos_lifecycle_pressure_level",
    "Memory-pressure level (0 ok, 1 tighten, 2 critical)",
)
_LC_PRESSURE_EVENTS = _METRICS.counter(
    "qos_lifecycle_pressure_events_total",
    "Capacity-tightening pressure events applied",
)
# Pre-bind label children so every family renders from process start
# (CORE_METRIC_FAMILIES is validated against a live scrape).
_LC_HANDLES = {
    kind: (
        _LC_HOT.labels(kind=kind),
        _LC_SPILLED.labels(kind=kind),
        _LC_DEMOTIONS.labels(kind=kind),
        _LC_REVIVALS.labels(kind=kind),
        _LC_COLD_READS.labels(kind=kind),
    )
    for kind in ("user", "service")
}

#: Memory-pressure levels in escalation order.
PRESSURE_LEVELS = ("ok", "tighten", "critical")

#: Lifecycle counters carried in checkpoints (``lifecycle_state()``); new
#: keys are defaulted on restore so old checkpoints stay loadable.
_DEFAULT_COUNTERS = {
    "demoted_users": 0,
    "demoted_services": 0,
    "revived_users": 0,
    "revived_services": 0,
    "pressure_events": 0,
    "imported_users": 0,
    "imported_services": 0,
    "migrated_out_users": 0,
    "migrated_out_services": 0,
}


class ColdEntityError(KeyError):
    """An operation addressed a spilled entity without reviving it first."""


@dataclass(frozen=True, slots=True)
class LifecycleConfig:
    """Tuning knobs for hot/cold tiering and the memory watchdog.

    Attributes:
        hot_users:          hot-tier capacity for users (slots).
        hot_services:       hot-tier capacity for services (slots).
        low_watermark:      demotion target as a fraction of capacity: when
                            the live population exceeds capacity, the
                            coldest entities are demoted down to
                            ``capacity * low_watermark`` in one batch
                            (hysteresis — one sort-and-demote pass per
                            overflow, not per arrival).
        memory_limit_bytes: resident-bytes ceiling the watchdog enforces;
                            ``None`` disables the watchdog.
        watchdog_interval:  seconds between watchdog polls.
        tighten_at:         usage fraction above which capacities shrink.
        critical_at:        usage fraction above which the pressure level
                            reads ``critical`` (logged and reported; the
                            tightening is the same as under ``tighten``).
        shrink_factor:      multiplicative capacity reduction per sustained
                            tighten poll.
        min_hot:            capacity floor tightening can never cross.
        sustain_polls:      consecutive over-threshold polls required
                            before acting (pressure must be *sustained*).
    """

    hot_users: int = 4096
    hot_services: int = 4096
    low_watermark: float = 0.9
    memory_limit_bytes: "int | None" = None
    watchdog_interval: float = 0.5
    tighten_at: float = 0.8
    critical_at: float = 0.95
    shrink_factor: float = 0.7
    min_hot: int = 64
    sustain_polls: int = 2

    def __post_init__(self) -> None:
        if self.hot_users < 2 or self.hot_services < 2:
            raise ValueError(
                f"hot capacities must be >= 2, got {self.hot_users}/{self.hot_services}"
            )
        if not (0.0 < self.low_watermark <= 1.0):
            raise ValueError(
                f"low_watermark must be in (0, 1], got {self.low_watermark}"
            )
        if self.memory_limit_bytes is not None and self.memory_limit_bytes < 1:
            raise ValueError(
                f"memory_limit_bytes must be positive, got {self.memory_limit_bytes}"
            )
        if self.watchdog_interval <= 0:
            raise ValueError(
                f"watchdog_interval must be positive, got {self.watchdog_interval}"
            )
        if not (0.0 < self.tighten_at < self.critical_at):
            raise ValueError(
                f"need 0 < tighten_at < critical_at, got "
                f"{self.tighten_at}/{self.critical_at}"
            )
        if not (0.0 < self.shrink_factor < 1.0):
            raise ValueError(
                f"shrink_factor must be in (0, 1), got {self.shrink_factor}"
            )
        if self.min_hot < 2:
            raise ValueError(f"min_hot must be >= 2, got {self.min_hot}")
        if self.sustain_polls < 1:
            raise ValueError(
                f"sustain_polls must be >= 1, got {self.sustain_polls}"
            )


class _TierSide:
    """One entity kind's half of the tier.

    Eqs. 10-17 treat users and services identically, and so does tiering:
    everything :class:`TieredAMF` keeps *per kind* lives here — the ext<->
    slot maps, touch ticks, free list, spilled set and hot capacity, the
    slot-space factor and EMA-error arrays, the sample store's index and
    drop for this kind, and the metric handles — so each lifecycle
    operation is written once over a side.  ``peer`` is the other side
    (whose slots a retained sample's far end lives in).
    """

    def __init__(
        self, kind: str, factors, errors, store, capacity: int, state: "dict | None"
    ) -> None:
        self.kind = kind  # "user" | "service": the spill-row and event kind
        self.plural = kind + "s"  # counter and checkpoint-key suffix
        self.factors = factors
        self.errors = errors
        self.peer: "_TierSide" = self
        self._store = store
        self._is_user = kind == "user"
        self.drop_samples = store.drop_user if self._is_user else store.drop_service
        hot_gauge, spilled_gauge, self.demotions, self.revivals, self.cold_reads = (
            _LC_HANDLES[kind]
        )
        if state is None:
            # Over a flat model: the identity mapping of the rows that exist.
            rows, free, spilled = [(ext, ext, 0) for ext in range(len(factors))], (), ()
        else:
            rows, free = state[self.plural], state[f"{kind[0]}_free"]
            spilled = state[f"spilled_{self.plural}"]
            capacity = state[f"hot_{self.plural}"]
        # The containers below are never rebound: TieredAMF aliases them.
        self.capacity = int(capacity)
        self.slot_of = {int(ext): int(slot) for ext, slot, __ in rows}
        self.free = [int(slot) for slot in free]
        self.spilled = {int(ext) for ext in spilled}
        n = len(self.slot_of) + len(self.free)
        self.ext_of = [-1] * n
        self.touch = [0] * n
        for ext, slot, touch in rows:
            self.ext_of[int(slot)] = int(ext)
            self.touch[int(slot)] = int(touch)
        hot_gauge.set_function(lambda: float(len(self.slot_of)))
        spilled_gauge.set_function(lambda: float(len(self.spilled)))

    def peer_slots(self, slot: int):
        """Peer-side slots sharing a retained sample with ``slot``.  Looked
        up per call: the store rebuilds its index dicts when it purges."""
        index = self._store._user_index if self._is_user else self._store._service_index
        return index.get(slot, ())

    def pair(self, own: int, peer: int) -> tuple[int, int]:
        """An (own, peer) pair of slots or ids as ``(user, service)`` — the
        sample store's key order."""
        return (own, peer) if self._is_user else (peer, own)

    def holds(self, ext: int) -> bool:
        """Hot or spilled: this model has the entity's state."""
        return ext in self.slot_of or ext in self.spilled

    def error_of(self, ext: int) -> float:
        """EMA error by external id, from memory alone: an id that is not
        hot (unknown or spilled) reports the initial, maximal error."""
        slot = self.slot_of.get(ext)
        return self.errors._init_error if slot is None else self.errors.get(slot)

    def version_of(self, ext: int) -> "int | None":
        """Write-version of the entity's factor row; ``None`` when it is in
        no slot and so has none."""
        slot = self.slot_of.get(ext)
        return None if slot is None else self.factors.version(slot)

    def rows(self) -> list:
        """``[ext, slot, touch]`` per hot entity, by ascending ext id."""
        return [
            [ext, slot, self.touch[slot]] for ext, slot in sorted(self.slot_of.items())
        ]


class TieredAMF(AdaptiveMatrixFactorization):
    """AMF with external-id -> slot indirection and hot/cold tiering.

    The public prediction/observation API speaks *external* ids; every
    inherited internal (factors, weights, sample store, replay kernels,
    serialization arrays) speaks *slots*.  ``gate`` (set by the server to
    its :class:`~repro.robustness.SanitizerGate`, else ``None``) is the one
    piece of state keyed by external ids that lives outside the model: an
    entity's gate statistics ride its spill payload out on demotion and
    back in on revival.  The gate is only ever mutated under the server's
    ingest lock (observe, revive, migration and replay all hold it), so its
    order — and therefore ``gate.state_dict()`` — stays deterministic.
    """

    def __init__(
        self,
        config: "AMFConfig | None" = None,
        rng=None,
        *,
        lifecycle: "LifecycleConfig | None" = None,
        spill: "SpillStore | None" = None,
    ) -> None:
        super().__init__(config, rng=rng)
        self._adopt_tiering(
            lifecycle, spill if spill is not None else SpillStore(":memory:"), None
        )

    @classmethod
    def from_model(
        cls,
        model: AdaptiveMatrixFactorization,
        lifecycle: "LifecycleConfig | None",
        spill: SpillStore,
        state: "dict | None" = None,
    ) -> "TieredAMF":
        """Adopt a loaded flat model's internals (factors/weights/store/RNG).

        ``state`` is the checkpoint's ``extra["lifecycle"]`` dict: with it,
        the checkpointed ext<->slot mapping, free lists, touch ticks, and
        spilled sets are restored; without it (first tiered start over a
        flat checkpoint) existing rows adopt the identity mapping and any
        overflow beyond capacity is demoted immediately.
        """
        tiered = cls.__new__(cls)
        tiered.__dict__.update(model.__dict__)
        tiered._adopt_tiering(lifecycle, spill, state)
        return tiered

    # ------------------------------------------------------------------
    # Lifecycle state
    # ------------------------------------------------------------------
    def _adopt_tiering(
        self,
        lifecycle: "LifecycleConfig | None",
        spill: SpillStore,
        state: "dict | None",
    ) -> None:
        self.lifecycle = lc = lifecycle if lifecycle is not None else LifecycleConfig()
        self._spill = spill
        self.gate = None
        self._occupancies = 0  # see _occupancy_stamp
        self._cold_reads = 0  # process-local like the metric: reads log nothing
        users = _TierSide(
            "user", self._user_factors, self.weights._user_errors, self._store,
            lc.hot_users, state,
        )
        services = _TierSide(
            "service", self._service_factors, self.weights._service_errors,
            self._store, lc.hot_services, state,
        )
        users.peer, services.peer = services, users
        self._users, self._services = users, services
        self._sides = {"user": users, "service": services}
        # Aliases the per-request paths below (and tests) read directly.
        self._u_slot_of, self._s_slot_of = users.slot_of, services.slot_of
        self._spilled_users, self._spilled_services = users.spilled, services.spilled
        if state is None:
            self._tick = 0
            self._pressure_level = "ok"
            self.counters = dict(_DEFAULT_COUNTERS)
        else:
            self._tick = int(state["tick"])
            self._pressure_level = str(state.get("pressure_level", "ok"))
            self.counters = {
                key: int(value) for key, value in state["counters"].items()
            }
            # Checkpoints written before a counter existed lack its key;
            # default it so increments never KeyError after an upgrade.
            for key, value in _DEFAULT_COUNTERS.items():
                self.counters.setdefault(key, value)
        _LC_RESIDENT.set_function(self.resident_bytes)
        _LC_PRESSURE_LEVEL.set(PRESSURE_LEVELS.index(self._pressure_level))
        if state is None and any(
            len(side.slot_of) > side.capacity for side in (users, services)
        ):
            # Flat-checkpoint upgrade: adopt rows then demote overflow.  The
            # tick must advance first — demotion spares entities touched at
            # the current tick, and at tick 0 every adopted row qualifies.
            self._tick += 1
            self._enforce_capacity()

    @property
    def _hot_users(self) -> int:
        """Current hot capacity for users (pressure events shrink it)."""
        return self._users.capacity

    @property
    def _hot_services(self) -> int:
        return self._services.capacity

    def lifecycle_state(self) -> dict:
        """JSON-exact snapshot for ``extra["lifecycle"]`` in checkpoints.

        Deterministically ordered (sorted external ids, free lists in stack
        order) so byte-identical model evolution yields byte-identical
        checkpoint archives — the recovery digest oracle covers tier
        assignment too.
        """
        users, services = self._users, self._services
        return {
            "hot_users": users.capacity,
            "hot_services": services.capacity,
            "tick": self._tick,
            "users": users.rows(),
            "services": services.rows(),
            "u_free": list(users.free),
            "s_free": list(services.free),
            "spilled_users": sorted(users.spilled),
            "spilled_services": sorted(services.spilled),
            "pressure_level": self._pressure_level,
            "counters": dict(self.counters),
        }

    def lifecycle_status(self) -> dict:
        """Operator-facing snapshot for the server's ``/status`` payload."""
        users, services = self._users, self._services
        return {
            "hot_users": len(users.slot_of),
            "hot_services": len(services.slot_of),
            "spilled_users": len(users.spilled),
            "spilled_services": len(services.spilled),
            "capacity_users": users.capacity,
            "capacity_services": services.capacity,
            "resident_bytes": self.resident_bytes(),
            "pressure_level": self._pressure_level,
            "spill_path": self._spill.path,
            "cold_reads": self._cold_reads,
            **self.counters,
        }

    def resident_bytes(self) -> int:
        """Tracked bytes of resident per-entity state (the watchdog input).

        Sums the allocated numpy backing arrays exactly and estimates the
        Python-side container overhead (id maps, store indices) at a flat
        per-entry cost — deterministic, cheap, and monotone in the hot
        population, which is what a demotion controller needs; it is not an
        RSS measurement.
        """
        sides = (self._users, self._services)
        arrays = sum(
            side.factors._rows.nbytes
            + side.factors._versions.nbytes
            + side.errors._values.nbytes
            for side in sides
        ) + self._store._users.nbytes * 5  # five parallel columns, same dtype size
        entries = (
            96 * sum(len(side.slot_of) for side in sides)
            + 64 * sum(len(side.spilled) for side in sides)
            + 200 * len(self._store)
        )
        return int(arrays + entries)

    # ------------------------------------------------------------------
    # Identity / translation
    # ------------------------------------------------------------------
    def _side(self, kind: str) -> _TierSide:
        side = self._sides.get(kind)
        if side is None:
            raise ValueError(f"unknown entity kind {kind!r}")
        return side

    def knows_user(self, user_id: int) -> bool:
        return user_id in self._u_slot_of

    def knows_service(self, service_id: int) -> bool:
        return service_id in self._s_slot_of

    def is_spilled_user(self, user_id: int) -> bool:
        return user_id in self._spilled_users

    def is_spilled_service(self, service_id: int) -> bool:
        return service_id in self._spilled_services

    def holds_user(self, user_id: int) -> bool:
        return self._users.holds(user_id)

    def holds_service(self, service_id: int) -> bool:
        return self._services.holds(service_id)

    def holds_entity(self, kind: str, ext_id: int) -> bool:
        """Whether this model holds the entity's state, hot or spilled."""
        return self._side(kind).holds(int(ext_id))

    def _occupancy_stamp(self) -> int:
        """A version no other occupancy of any slot can reach: a model-wide
        occupancy counter in the high 32 bits, the occupant's write bumps
        below.  Prediction-cache entries are keyed by external id and
        stamped with slot versions, so an entity that leaves a slot and
        comes back (to any slot) must never meet one of its old stamps —
        this is what makes the stamps alone sufficient.  Process-local like
        the cache itself: never serialized, restarts from zero with it.
        """
        self._occupancies += 1
        return self._occupancies << 32

    def _occupy(self, side: _TierSide, ext: int, fresh: bool) -> int:
        """Give a slot its next occupant ``ext``: pop a recycled slot or
        grow by one.  The one place an occupancy begins — fresh, revived or
        imported — so the one place its version stamp is set.

        ``fresh=True`` (a genuinely new entity) reinitializes a recycled
        slot's factor row with one RNG draw — the same single draw a grown
        slot consumes in ``ensure`` — so RNG consumption per allocation is
        uniform.  ``fresh=False`` (revival, import) leaves the row for
        ``set_row`` to overwrite exactly, drawing nothing on recycle.
        """
        if side.free:
            slot = side.free.pop()
            if fresh:
                side.factors.reinitialize(slot)
        else:
            slot = len(side.ext_of)
            side.ext_of.append(-1)
            side.touch.append(0)
            side.factors.ensure(slot)
            side.errors.ensure(slot)
        side.factors._versions[slot] = self._occupancy_stamp()
        side.slot_of[ext] = slot
        side.ext_of[slot] = ext
        side.touch[slot] = self._tick
        return slot

    def _vacate(self, side: _TierSide, ext: int) -> None:
        """End hot entity ``ext``'s occupancy: drop its samples, reset the
        slot's EMA error and recycle the slot."""
        slot = side.slot_of.pop(ext)
        side.drop_samples(slot)
        side.errors.reset(slot)
        side.ext_of[slot] = -1
        side.free.append(slot)

    def _ensure(self, side: _TierSide, ext: int) -> int:
        """The slot of hot entity ``ext``, allocating one if it is new."""
        if ext < 0:
            raise IndexError(f"{side.kind} id must be non-negative, got {ext}")
        slot = side.slot_of.get(ext)
        if slot is None:
            if ext in side.spilled:
                raise ColdEntityError(
                    f"{side.kind} {ext} is spilled; revive it before use"
                )
            slot = self._occupy(side, ext, fresh=True)
        return slot

    def ensure_user(self, user_id: int) -> None:
        self._ensure(self._users, user_id)

    def ensure_service(self, service_id: int) -> None:
        self._ensure(self._services, service_id)

    def _forget(self, side: _TierSide, ext: int) -> None:
        """Remove an entity entirely — hot slot freed (its gate statistics
        discarded with it) or spill row dropped; a rejoin allocates a fresh
        slot like a new entity."""
        if ext in side.slot_of:
            self._vacate(side, ext)
            if self.gate is not None:
                self.gate.export_entity(side.kind, ext)
        elif ext in side.spilled:
            side.spilled.discard(ext)
            self._spill.delete(side.kind, ext)

    def forget_user(self, user_id: int) -> None:
        """Remove a departed user entirely (see :meth:`_forget`)."""
        self._forget(self._users, user_id)

    def forget_service(self, service_id: int) -> None:
        self._forget(self._services, service_id)

    # ------------------------------------------------------------------
    # Observation path
    # ------------------------------------------------------------------
    def observe(self, record: QoSRecord) -> float:
        """Slot-space reimplementation of the flat model's ``observe``.

        Spilled entities must be revived first (the server WAL-logs the
        revive event before this observation); model-level drivers use
        :meth:`observe_reviving`.
        """
        users, services = self._users, self._services
        if record.user_id in users.spilled or record.service_id in services.spilled:
            kind, ext_id = self.pending_revivals(record.user_id, record.service_id)[0]
            raise ColdEntityError(
                f"{kind} {ext_id} is spilled; revive it before observing"
            )
        self._tick += 1
        u_slot = self._ensure(users, record.user_id)
        s_slot = self._ensure(services, record.service_id)
        users.touch[u_slot] = self._tick
        services.touch[s_slot] = self._tick
        r = self.normalizer.normalize(record.value)
        if r < self.config.normalized_floor:
            r = self.config.normalized_floor
        self._store.put(u_slot, s_slot, record.timestamp, record.value, r)
        _OBSERVATIONS.inc()
        error = self._online_update(u_slot, s_slot, r)
        self._enforce_capacity()
        return error

    def observe_reviving(self, record: QoSRecord) -> tuple[list, float]:
        """Revive any spilled party, then observe.

        The WAL-free driver (benches, model-level tests): returns
        ``(revive_events, sample_error)`` where each revive event is
        ``(kind, ext_id, payload)`` in apply order — exactly what a server
        would have logged before the observation.
        """
        events = []
        for kind, ext_id in self.pending_revivals(record.user_id, record.service_id):
            payload = self.revive_payload(kind, ext_id)
            self.apply_revive(kind, ext_id, payload)
            events.append((kind, ext_id, payload))
        return events, self.observe(record)

    # ------------------------------------------------------------------
    # The spill payload: one encoder, one sample restorer
    # ------------------------------------------------------------------
    def _payload_of(self, side: _TierSide, ext: int, destructive: bool) -> dict:
        """The canonical spill-format payload of hot entity ``ext``: factor
        row, EMA error, peer-sorted retained samples by the peer's external
        id, and its gate statistics.  ``destructive`` takes the gate entry
        out of the gate (demotion: the statistics leave with the entity);
        otherwise it is read in place (migration export: the source keeps
        serving)."""
        slot = side.slot_of[ext]
        samples = []
        for peer_slot in side.peer_slots(slot):
            timestamp, value = self._store.get(*side.pair(slot, peer_slot))
            samples.append([int(side.peer.ext_of[peer_slot]), timestamp, value])
        samples.sort(key=lambda item: item[0])
        payload = {
            "row": [float(x) for x in side.factors._rows[slot]],
            "err": float(side.errors.get(slot)),
            "samples": samples,
        }
        if self.gate is not None:
            read = self.gate.export_entity if destructive else self.gate.peek_entity
            gate_entry = read(side.kind, ext)
            if gate_entry is not None:
                payload["gate"] = gate_entry
        return payload

    def _restore_entity(self, side: _TierSide, ext: int, payload: dict) -> None:
        """Put ``ext`` into a hot slot holding exactly the payload's factor
        row (stamped for this occupancy alone, so no cache stamp from an
        earlier one matches), EMA error and gate statistics.  Its samples
        are restored separately: a batch import needs every entity of the
        batch hot before any sample can find its peer."""
        slot = self._occupy(side, ext, fresh=False)
        side.factors.set_row(slot, payload["row"])
        side.errors.set(slot, float(payload["err"]))
        if self.gate is not None:
            self.gate.import_entity(side.kind, ext, payload.get("gate"))

    def _restore_samples(self, side: _TierSide, ext: int, payload: dict) -> None:
        """Re-store every retained sample of the payload whose peer is hot
        right now; samples against cold or absent peers are dropped (the
        re-warming tradeoff: they re-enter via fresh observations)."""
        slot = side.slot_of[ext]
        for peer_ext, timestamp, value in payload.get("samples", ()):
            peer_slot = side.peer.slot_of.get(int(peer_ext))
            if peer_slot is None:
                continue
            value = float(value)
            self._store.put(
                *side.pair(slot, peer_slot),
                float(timestamp),
                value,
                self.normalize_value(value),
            )

    # ------------------------------------------------------------------
    # Demotion
    # ------------------------------------------------------------------
    def _enforce_capacity(self) -> None:
        """Demote overflow down to the low watermark (deterministic batch).

        Eviction policy is age/credence-driven: primary key is last-touch
        tick (oldest first), tie-broken by *higher* EMA error (the least
        converged state is the cheapest to lose), then slot id.  Entities
        touched at the current tick (the parties of the in-flight
        observation or revival) are never demoted.
        """
        self._demote_overflow(self._users)
        self._demote_overflow(self._services)

    def _demote_overflow(self, side: _TierSide) -> None:
        live = len(side.slot_of)
        if live <= side.capacity:
            return
        target = max(2, int(side.capacity * self.lifecycle.low_watermark))
        need = live - target
        slots = np.fromiter(side.slot_of.values(), dtype=np.intp, count=live)
        slots.sort()
        ages = np.array([side.touch[s] for s in slots], dtype=np.int64)
        demotable = ages < self._tick
        slots = slots[demotable]
        ages = ages[demotable]
        order = np.lexsort((slots, -side.errors._values[slots], ages))
        victims = slots[order][: min(need, slots.size)]
        for slot in victims:
            ext = side.ext_of[int(slot)]
            payload = self._payload_of(side, ext, destructive=True)
            self._spill.put(
                side.kind, ext, json.dumps(payload, sort_keys=True).encode()
            )
            self._vacate(side, ext)
            side.spilled.add(ext)
            self.counters[f"demoted_{side.plural}"] += 1
            side.demotions.inc()

    # ------------------------------------------------------------------
    # Revival
    # ------------------------------------------------------------------
    def pending_revivals(
        self, user_id: "int | None" = None, service_id: "int | None" = None
    ) -> list[tuple[str, int]]:
        """Which of the addressed entities are spilled, in apply order."""
        return [
            (side.kind, int(ext))
            for side, ext in ((self._users, user_id), (self._services, service_id))
            if ext is not None and ext in side.spilled
        ]

    def revive_payload(self, kind: str, ext_id: int) -> dict:
        """Fetch a spilled entity's payload (what the WAL event will carry)."""
        raw = self._spill.get(kind, ext_id)
        if raw is None:
            raise KeyError(f"no spill row for {kind} {ext_id}")
        return json.loads(raw.decode())

    def apply_revive(self, kind: str, ext_id: int, payload: dict) -> None:
        """Restore a spilled entity from ``payload`` (WAL-replayable).

        Restores the factor row, the EMA error and the gate statistics
        exactly, and every retained sample whose peer is currently hot.
        Deletes the spill row, keeping "row present iff spilled" invariant.
        """
        side, ext = self._side(kind), int(ext_id)
        if ext in side.slot_of:
            return
        self._restore_entity(side, ext, payload)
        self._restore_samples(side, ext, payload)
        side.spilled.discard(ext)
        self._spill.delete(kind, ext)
        self.counters[f"revived_{side.plural}"] += 1
        side.revivals.inc()
        self._enforce_capacity()

    # ------------------------------------------------------------------
    # Migration (entity export / bulk import / removal by external id)
    # ------------------------------------------------------------------
    def entity_ids(self, kind: str) -> list[int]:
        """Every known external id of one kind — hot and spilled, ascending.

        The migration planner's discovery surface: ownership re-homing must
        move *all* of an entity's state, including entities currently
        demoted to the spill store.
        """
        side = self._side(kind)
        return sorted(set(side.slot_of) | side.spilled)

    def sample_edges(self) -> list:
        """Every ``[user_ext, service_ext]`` pair sharing a retained sample.

        The migration planner's co-location input: a batch that splits a
        sample edge across two batches would drop the sample on import
        (pass two of :meth:`import_entities` only restores samples whose
        peer is present), so the coordinator packs connected components
        whole.  Hot-tier edges come from the store indices; spilled
        entities contribute the peer lists recorded in their spill
        payloads (a full spill scan — migration-time cost, not hot-path).
        Deterministically sorted.
        """
        users, services = self._users, self._services
        edges = set()
        for u_slot, s_slots in self._store._user_index.items():
            u_ext = users.ext_of[u_slot]
            for s_slot in s_slots:
                edges.add((int(u_ext), int(services.ext_of[s_slot])))
        for side in (users, services):
            for ext in side.spilled:
                payload = self.revive_payload(side.kind, ext)
                for peer_ext, __, __ in payload.get("samples", ()):
                    edges.add(side.pair(int(ext), int(peer_ext)))
        return [list(edge) for edge in sorted(edges)]

    def export_payload(self, kind: str, ext_id: int) -> dict:
        """Canonical spill-format payload for any known entity, read-only.

        Hot entities get exactly the payload a demotion would write
        *without* being demoted — the source stays fully serving until the
        migration batch commits.  Spilled entities reuse their spill row.
        Unknown ids raise ``KeyError`` (the coordinator treats that as
        "already moved").
        """
        side, ext = self._side(kind), int(ext_id)
        if ext in side.slot_of:
            return self._payload_of(side, ext, destructive=False)
        return self.revive_payload(kind, ext)

    def import_entities(self, entities) -> int:
        """Bit-exact bulk import of migrated entities (WAL-replayable).

        ``entities`` is an iterable of ``(kind, ext_id, payload)`` in the
        canonical spill format.  Imported state is authoritative: an id the
        model already knows (hot or spilled) is forgotten first, then
        restored from the payload.  Two passes — rows/errors/gate for every
        entity, then samples — so samples between entities arriving in the
        *same* batch survive regardless of intra-batch order; samples whose
        peer is absent after pass one are dropped (the documented
        re-warming tradeoff).  Returns the number of entities imported.
        """
        items = [
            (self._side(str(kind)), int(ext), payload)
            for kind, ext, payload in entities
        ]
        self._tick += 1
        for side, ext, payload in items:
            self._forget(side, ext)
            self._restore_entity(side, ext, payload)
            self.counters[f"imported_{side.plural}"] += 1
        for side, ext, payload in items:
            self._restore_samples(side, ext, payload)
        self._enforce_capacity()
        return len(items)

    def remove_entity(self, kind: str, ext_id: int) -> bool:
        """Forget a migrated-out entity; idempotent (WAL replay re-deletes).

        Returns whether the entity existed.  The state was already shipped
        in a prior export batch, so the gate entry :meth:`_forget` discards
        here is a copy of what the destination imported.
        """
        side, ext = self._side(kind), int(ext_id)
        existed = side.holds(ext)
        self._forget(side, ext)
        if existed:
            self.counters[f"migrated_out_{side.plural}"] += 1
        return existed

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def apply_pressure(self, hot_users: int, hot_services: int, level: str) -> None:
        """Apply a capacity-tightening pressure event (WAL-replayable).

        New capacities take effect immediately: overflow beyond them is
        demoted deterministically, so recovery and the standby converge to
        the same (smaller) hot set.
        """
        if level not in PRESSURE_LEVELS:
            raise ValueError(f"unknown pressure level {level!r}")
        self._users.capacity = max(2, int(hot_users))
        self._services.capacity = max(2, int(hot_services))
        self._pressure_level = level
        self.counters["pressure_events"] += 1
        _LC_PRESSURE_EVENTS.inc()
        _LC_PRESSURE_LEVEL.set(PRESSURE_LEVELS.index(level))
        self._enforce_capacity()

    def apply_event(self, kind: str, data: dict) -> None:
        """Apply one logged event to the model — the single dispatcher for
        all five kinds, whoever replays the log (the live server, recovery,
        a standby); the kinds and their ``data`` are tabulated in
        :meth:`repro.server.wal.WriteAheadLog.append_event`."""
        if kind.startswith("revive_"):
            self.apply_revive(kind.removeprefix("revive_"), int(data["id"]), data["p"])
        elif kind == "pressure":
            self.apply_pressure(data["hu"], data["hs"], str(data["level"]))
        elif kind == "migration_in":
            self.import_entities(data["entities"])
        elif kind == "migration_out":
            for entity_kind, ext_id in data["entities"]:
                self.remove_entity(str(entity_kind), int(ext_id))
        else:
            raise ValueError(f"unknown lifecycle event {kind!r}")

    # ------------------------------------------------------------------
    # Prediction (external-id API over the slot-space kernels)
    # ------------------------------------------------------------------
    def _read_through(self, side: _TierSide, ext: int) -> "tuple[np.ndarray, float]":
        """A spilled entity's ``(factor row, EMA error)``, decoded from its
        stored payload — the one way a read reaches a cold entity.

        Nothing moves: no slot is taken, no tick advances, the spill row
        stays, and nothing but the cold-read count is written.  The answer
        is the one a revive-then-read would give, because the payload holds
        the exact float64 row and error and a spilled row cannot change
        until a logged revive takes it out of the store.  :class:`KeyError`
        for an id this model does not hold.
        """
        if ext not in side.spilled:
            raise KeyError(f"unknown {side.kind} {ext}")
        payload = self.revive_payload(side.kind, ext)
        self._cold_reads += 1
        side.cold_reads.inc()
        return np.asarray(payload["row"], dtype=float), float(payload["err"])

    def _row_of(self, side: _TierSide, ext: int) -> np.ndarray:
        """The entity's factor row, wherever it is held."""
        slot = side.slot_of.get(ext)
        return self._read_through(side, ext)[0] if slot is None else side.factors.row(slot)

    def predict_normalized(self, user_id: int, service_id: int) -> float:
        """Either party may be hot or spilled; :class:`KeyError` for an id
        the model does not hold."""
        u_vector = self._row_of(self._users, user_id)
        s_vector = self._row_of(self._services, service_id)
        return sigmoid(float(u_vector @ s_vector))

    def _service_slots(self, service_ids) -> np.ndarray:
        """The slots of hot services, by external id; :class:`KeyError` for
        an id that is unknown or spilled."""
        slot_of = self._s_slot_of
        try:
            return np.fromiter(
                (slot_of[service_id] for service_id in service_ids.tolist()),
                dtype=np.intp,
                count=len(service_ids),
            )
        except KeyError as exc:
            raise KeyError(f"unknown or cold service {exc.args[0]}") from None

    def predict_for_user(self, user_id: int, service_ids) -> np.ndarray:
        """The user may be hot or spilled (the same fused kernel over the
        stored row); the candidates must be hot — a ranking names many, and
        callers send the rest through their fallback chain."""
        return self._predict_for_row(
            self._row_of(self._users, user_id),
            self._service_slots(np.asarray(service_ids)),
        )

    def user_version(self, user_id: int) -> "int | None":
        return self._users.version_of(user_id)

    def service_version(self, service_id: int) -> "int | None":
        return self._services.version_of(service_id)

    def service_versions(self, service_ids: np.ndarray) -> np.ndarray:
        return super().service_versions(self._service_slots(service_ids))

    def _error_of(self, side: _TierSide, ext: int) -> float:
        if ext in side.spilled:
            return self._read_through(side, ext)[1]
        return side.error_of(ext)

    def expected_error(self, user_id: int, service_id: int) -> float:
        """Mean of the two parties' EMA errors, hot or spilled; an id the
        model does not hold reports ``init_error``."""
        return (
            self._error_of(self._users, user_id)
            + self._error_of(self._services, service_id)
        ) / 2.0

    def service_credence(self, service_id: int) -> float:
        """Per-service EMA error by external id, from memory alone.  Spilled
        services answer ``init_error`` like unknown ids (a credence query
        names many candidates and would decode one payload each); that is
        the conservative "low credence" signal until revival."""
        return float(self._services.error_of(service_id))


class MemoryWatchdog:
    """Polls resident entity bytes and degrades the server gracefully.

    Escalation (each step requires ``sustain_polls`` consecutive polls over
    its threshold, so a transient spike does nothing):

    1. usage >= ``tighten_at``  -> shrink hot capacities by
       ``shrink_factor`` (floored at ``min_hot``) via ``on_tighten`` — the
       server turns this into a WAL ``pressure`` event.
    2. usage >= ``critical_at`` -> the same, reported as ``critical``.

    Recovery: a poll back under ``tighten_at`` returns the level to ``ok``.
    Predictions are never refused at any level — a read cannot grow the hot
    tier (see the module docstring).

    Args:
        lifecycle:  thresholds (:class:`LifecycleConfig`), including
                    ``memory_limit_bytes``.
        usage:      callable returning tracked resident bytes.
        capacities: callable returning the current ``(hot_users,
                    hot_services)``.
        on_tighten: callable ``(hot_users, hot_services, level)`` applying
                    a capacity change.
    """

    def __init__(
        self,
        lifecycle: LifecycleConfig,
        usage,
        capacities,
        on_tighten,
    ) -> None:
        if lifecycle.memory_limit_bytes is None:
            raise ValueError("MemoryWatchdog requires memory_limit_bytes")
        self.lifecycle = lifecycle
        self._usage = usage
        self._capacities = capacities
        self._on_tighten = on_tighten
        self._over_tighten = 0
        self._over_critical = 0
        self.level = "ok"
        self._reported_level = "ok"
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()

    def poll_once(self) -> str:
        """One watchdog evaluation; returns the resulting pressure level."""
        lc = self.lifecycle
        ratio = float(self._usage()) / float(lc.memory_limit_bytes)
        self._over_tighten = self._over_tighten + 1 if ratio >= lc.tighten_at else 0
        self._over_critical = (
            self._over_critical + 1 if ratio >= lc.critical_at else 0
        )
        if self._over_critical >= lc.sustain_polls:
            self.level = "critical"
        elif self._over_tighten >= lc.sustain_polls:
            self.level = "tighten"
        elif ratio < lc.tighten_at:
            self.level = "ok"
        if self.level in ("tighten", "critical"):
            hot_users, hot_services = self._capacities()
            new_users = max(lc.min_hot, int(hot_users * lc.shrink_factor))
            new_services = max(lc.min_hot, int(hot_services * lc.shrink_factor))
            if (new_users, new_services) != (hot_users, hot_services):
                self._on_tighten(new_users, new_services, self.level)
            elif self.level != self._reported_level:
                # Escalation with capacities already at the floor: still
                # report with unchanged caps so the pressure event reaches
                # the WAL — recovery and standbys must see the level even
                # when there is nothing left to shrink.
                self._on_tighten(hot_users, hot_services, self.level)
            self._reported_level = self.level
        return self.level

    # -- thread lifecycle ---------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="qos-memory-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is None:
            return
        thread.join(timeout=timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.lifecycle.watchdog_interval):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 — a probe failure must not kill the dog
                continue
