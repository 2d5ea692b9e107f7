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
slot is recycled.  A later observation or read **revives** them with their
state restored bit-for-bit (modulo samples whose peer is itself cold, which
are dropped — a documented re-warming tradeoff).

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

The :class:`MemoryWatchdog` closes the loop: it polls resident entity
bytes against a limit and, under sustained pressure, asks the server to
tighten capacities (a WAL-logged ``pressure`` event, so recovery and the
standby converge to the same tier assignment) and, at critical pressure,
to shed cold-revive *reads* with 429 — hot predictions are never shed.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.config import AMFConfig
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
_LC_COLD_SHED = _METRICS.counter(
    "qos_lifecycle_cold_reads_shed_total",
    "Cold-entity revive reads shed with 429 under critical memory pressure",
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
                            (hysteresis — one spill write per batch, not
                            per arrival).
        memory_limit_bytes: resident-bytes ceiling the watchdog enforces;
                            ``None`` disables the watchdog.
        watchdog_interval:  seconds between watchdog polls.
        tighten_at:         usage fraction above which capacities shrink.
        critical_at:        usage fraction above which cold-revive reads
                            are shed (hot predictions are never shed).
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


class TieredAMF(AdaptiveMatrixFactorization):
    """AMF with external-id -> slot indirection and hot/cold tiering.

    The public prediction/observation API speaks *external* ids; every
    inherited internal (factors, weights, sample store, replay kernels,
    serialization arrays) speaks *slots*.  ``hooks`` (set by the server) is
    the bridge to state keyed by external ids outside the model — sanitizer
    gate statistics — exported/imported on demote/revive; see
    ``repro.server.app._LifecycleHooks``.
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
        self.lifecycle = lifecycle if lifecycle is not None else LifecycleConfig()
        self._spill = spill if spill is not None else SpillStore(":memory:")
        self.hooks = None
        self._init_lifecycle_state(None)

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
        tiered.lifecycle = lifecycle if lifecycle is not None else LifecycleConfig()
        tiered._spill = spill
        tiered.hooks = None
        tiered._init_lifecycle_state(state)
        return tiered

    # ------------------------------------------------------------------
    # Lifecycle state
    # ------------------------------------------------------------------
    def _init_lifecycle_state(self, state: "dict | None") -> None:
        lc = self.lifecycle
        self._occupancies = 0  # see _occupancy_stamp
        if state is None:
            n_u = len(self._user_factors)
            n_s = len(self._service_factors)
            self._u_slot_of = {ext: ext for ext in range(n_u)}
            self._s_slot_of = {ext: ext for ext in range(n_s)}
            self._u_ext_of = list(range(n_u))
            self._s_ext_of = list(range(n_s))
            self._u_touch = [0] * n_u
            self._s_touch = [0] * n_s
            self._u_free: list[int] = []
            self._s_free: list[int] = []
            self._spilled_users: set[int] = set()
            self._spilled_services: set[int] = set()
            self._tick = 0
            self._hot_users = lc.hot_users
            self._hot_services = lc.hot_services
            self._pressure_level = "ok"
            self.counters = dict(_DEFAULT_COUNTERS)
        else:
            self._u_slot_of = {int(e): int(p) for e, p, __ in state["users"]}
            self._s_slot_of = {int(e): int(p) for e, p, __ in state["services"]}
            self._u_free = [int(p) for p in state["u_free"]]
            self._s_free = [int(p) for p in state["s_free"]]
            n_u = len(self._u_slot_of) + len(self._u_free)
            n_s = len(self._s_slot_of) + len(self._s_free)
            self._u_ext_of = [-1] * n_u
            self._s_ext_of = [-1] * n_s
            self._u_touch = [0] * n_u
            self._s_touch = [0] * n_s
            for ext, slot, touch in state["users"]:
                self._u_ext_of[int(slot)] = int(ext)
                self._u_touch[int(slot)] = int(touch)
            for ext, slot, touch in state["services"]:
                self._s_ext_of[int(slot)] = int(ext)
                self._s_touch[int(slot)] = int(touch)
            self._spilled_users = {int(e) for e in state["spilled_users"]}
            self._spilled_services = {int(e) for e in state["spilled_services"]}
            self._tick = int(state["tick"])
            self._hot_users = int(state["hot_users"])
            self._hot_services = int(state["hot_services"])
            self._pressure_level = str(state.get("pressure_level", "ok"))
            self.counters = {
                key: int(value) for key, value in state["counters"].items()
            }
            # Checkpoints written before a counter existed lack its key;
            # default it so increments never KeyError after an upgrade.
            for key, value in _DEFAULT_COUNTERS.items():
                self.counters.setdefault(key, value)
        hot_u, spill_u, __, __ = _LC_HANDLES["user"]
        hot_s, spill_s, __, __ = _LC_HANDLES["service"]
        hot_u.set_function(lambda: float(len(self._u_slot_of)))
        hot_s.set_function(lambda: float(len(self._s_slot_of)))
        spill_u.set_function(lambda: float(len(self._spilled_users)))
        spill_s.set_function(lambda: float(len(self._spilled_services)))
        _LC_RESIDENT.set_function(self.resident_bytes)
        _LC_PRESSURE_LEVEL.set(PRESSURE_LEVELS.index(self._pressure_level))
        if state is None and (
            len(self._u_slot_of) > self._hot_users
            or len(self._s_slot_of) > self._hot_services
        ):
            # Flat-checkpoint upgrade: adopt rows then demote overflow.  The
            # tick must advance first — demotion spares entities touched at
            # the current tick, and at tick 0 every adopted row qualifies.
            self._tick += 1
            self._enforce_capacity()

    def lifecycle_state(self) -> dict:
        """JSON-exact snapshot for ``extra["lifecycle"]`` in checkpoints.

        Deterministically ordered (sorted external ids, free lists in stack
        order) so byte-identical model evolution yields byte-identical
        checkpoint archives — the recovery digest oracle covers tier
        assignment too.
        """
        return {
            "hot_users": self._hot_users,
            "hot_services": self._hot_services,
            "tick": self._tick,
            "users": [
                [ext, slot, self._u_touch[slot]]
                for ext, slot in sorted(self._u_slot_of.items())
            ],
            "services": [
                [ext, slot, self._s_touch[slot]]
                for ext, slot in sorted(self._s_slot_of.items())
            ],
            "u_free": list(self._u_free),
            "s_free": list(self._s_free),
            "spilled_users": sorted(self._spilled_users),
            "spilled_services": sorted(self._spilled_services),
            "pressure_level": self._pressure_level,
            "counters": dict(self.counters),
        }

    def lifecycle_status(self) -> dict:
        """Operator-facing snapshot for the server's ``/status`` payload."""
        return {
            "hot_users": len(self._u_slot_of),
            "hot_services": len(self._s_slot_of),
            "spilled_users": len(self._spilled_users),
            "spilled_services": len(self._spilled_services),
            "capacity_users": self._hot_users,
            "capacity_services": self._hot_services,
            "resident_bytes": self.resident_bytes(),
            "pressure_level": self._pressure_level,
            "spill_path": self._spill.path,
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
        arrays = (
            self._user_factors._rows.nbytes
            + self._user_factors._versions.nbytes
            + self._service_factors._rows.nbytes
            + self._service_factors._versions.nbytes
            + self.weights._user_errors._values.nbytes
            + self.weights._service_errors._values.nbytes
            + self._store._users.nbytes * 5  # five parallel columns, same dtype size
        )
        entries = (
            96 * (len(self._u_slot_of) + len(self._s_slot_of))
            + 64 * (len(self._spilled_users) + len(self._spilled_services))
            + 200 * len(self._store)
        )
        return int(arrays + entries)

    # ------------------------------------------------------------------
    # Identity / translation
    # ------------------------------------------------------------------
    def knows_user(self, user_id: int) -> bool:
        return user_id in self._u_slot_of

    def knows_service(self, service_id: int) -> bool:
        return service_id in self._s_slot_of

    def is_spilled_user(self, user_id: int) -> bool:
        return user_id in self._spilled_users

    def is_spilled_service(self, service_id: int) -> bool:
        return service_id in self._spilled_services

    @property
    def n_hot_users(self) -> int:
        return len(self._u_slot_of)

    @property
    def n_hot_services(self) -> int:
        return len(self._s_slot_of)

    @property
    def n_spilled_users(self) -> int:
        return len(self._spilled_users)

    @property
    def n_spilled_services(self) -> int:
        return len(self._spilled_services)

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

    def _alloc_user_slot(self, fresh: bool) -> int:
        """Give a slot its next occupant: pop a recycled slot or grow by
        one.  The one place an occupancy begins — fresh, revived or
        imported — so the one place its version stamp is set.

        ``fresh=True`` (a genuinely new entity) reinitializes a recycled
        slot's factor row with one RNG draw — the same single draw a grown
        slot consumes in ``ensure`` — so RNG consumption per allocation is
        uniform.  ``fresh=False`` (revival) leaves the row for
        ``set_row`` to overwrite exactly, drawing nothing on recycle.
        """
        if self._u_free:
            slot = self._u_free.pop()
            if fresh:
                self._user_factors.reinitialize(slot)
        else:
            slot = len(self._u_ext_of)
            self._u_ext_of.append(-1)
            self._u_touch.append(0)
            self._user_factors.ensure(slot)
            self.weights.register_user(slot)
        self._user_factors._versions[slot] = self._occupancy_stamp()
        return slot

    def _alloc_service_slot(self, fresh: bool) -> int:
        if self._s_free:
            slot = self._s_free.pop()
            if fresh:
                self._service_factors.reinitialize(slot)
        else:
            slot = len(self._s_ext_of)
            self._s_ext_of.append(-1)
            self._s_touch.append(0)
            self._service_factors.ensure(slot)
            self.weights.register_service(slot)
        self._service_factors._versions[slot] = self._occupancy_stamp()
        return slot

    def ensure_user(self, user_id: int) -> None:
        if user_id < 0:
            raise IndexError(f"user id must be non-negative, got {user_id}")
        if user_id in self._u_slot_of:
            return
        if user_id in self._spilled_users:
            raise ColdEntityError(
                f"user {user_id} is spilled; revive it before use"
            )
        slot = self._alloc_user_slot(fresh=True)
        self._u_slot_of[user_id] = slot
        self._u_ext_of[slot] = user_id
        self._u_touch[slot] = self._tick

    def ensure_service(self, service_id: int) -> None:
        if service_id < 0:
            raise IndexError(f"service id must be non-negative, got {service_id}")
        if service_id in self._s_slot_of:
            return
        if service_id in self._spilled_services:
            raise ColdEntityError(
                f"service {service_id} is spilled; revive it before use"
            )
        slot = self._alloc_service_slot(fresh=True)
        self._s_slot_of[service_id] = slot
        self._s_ext_of[slot] = service_id
        self._s_touch[slot] = self._tick

    def forget_user(self, user_id: int) -> None:
        """Remove a departed user entirely (hot slot freed or spill row
        dropped); a rejoin allocates a fresh slot like a new entity."""
        slot = self._u_slot_of.pop(user_id, None)
        if slot is not None:
            self.weights.reset_user(slot)
            self._store.drop_user(slot)
            self._u_ext_of[slot] = -1
            self._u_free.append(slot)
            if self.hooks is not None:
                self.hooks.export_user(user_id)
        elif user_id in self._spilled_users:
            self._spilled_users.discard(user_id)
            self._spill.delete("user", user_id)
            self._spill.commit()
            self._spill.maybe_compact()

    def forget_service(self, service_id: int) -> None:
        slot = self._s_slot_of.pop(service_id, None)
        if slot is not None:
            self.weights.reset_service(slot)
            self._store.drop_service(slot)
            self._s_ext_of[slot] = -1
            self._s_free.append(slot)
            if self.hooks is not None:
                self.hooks.export_service(service_id)
        elif service_id in self._spilled_services:
            self._spilled_services.discard(service_id)
            self._spill.delete("service", service_id)
            self._spill.commit()
            self._spill.maybe_compact()

    # ------------------------------------------------------------------
    # Observation path
    # ------------------------------------------------------------------
    def observe(self, record: QoSRecord) -> float:
        """Slot-space reimplementation of the flat model's ``observe``.

        Spilled entities must be revived first (the server WAL-logs the
        revive event before this observation); model-level drivers use
        :meth:`observe_reviving`.
        """
        if record.user_id in self._spilled_users:
            raise ColdEntityError(
                f"user {record.user_id} is spilled; revive it before observing"
            )
        if record.service_id in self._spilled_services:
            raise ColdEntityError(
                f"service {record.service_id} is spilled; revive it before observing"
            )
        self._tick += 1
        self.ensure_user(record.user_id)
        self.ensure_service(record.service_id)
        u_slot = self._u_slot_of[record.user_id]
        s_slot = self._s_slot_of[record.service_id]
        self._u_touch[u_slot] = self._tick
        self._s_touch[s_slot] = self._tick
        r = self._normalize_scalar(record.value)
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
        demoted = self._demote_overflow("user") + self._demote_overflow("service")
        if demoted:
            self._spill.commit()
            self._spill.maybe_compact()

    def _demote_overflow(self, kind: str) -> int:
        if kind == "user":
            slot_of, touch = self._u_slot_of, self._u_touch
            capacity = self._hot_users
            errors = self.weights._user_errors._values
        else:
            slot_of, touch = self._s_slot_of, self._s_touch
            capacity = self._hot_services
            errors = self.weights._service_errors._values
        live = len(slot_of)
        if live <= capacity:
            return 0
        target = max(2, int(capacity * self.lifecycle.low_watermark))
        need = live - target
        slots = np.fromiter(slot_of.values(), dtype=np.intp, count=live)
        slots.sort()
        ages = np.array([touch[s] for s in slots], dtype=np.int64)
        demotable = ages < self._tick
        slots = slots[demotable]
        ages = ages[demotable]
        order = np.lexsort((slots, -errors[slots], ages))
        victims = slots[order][: min(need, slots.size)]
        if kind == "user":
            for slot in victims:
                self._demote_user_slot(int(slot))
        else:
            for slot in victims:
                self._demote_service_slot(int(slot))
        return int(victims.size)

    def _demote_user_slot(self, slot: int) -> None:
        ext = self._u_ext_of[slot]
        samples = []
        for peer_slot in self._store._user_index.get(slot, ()):
            timestamp, value = self._store.get(slot, peer_slot)
            samples.append([int(self._s_ext_of[peer_slot]), timestamp, value])
        samples.sort(key=lambda item: item[0])
        payload = {
            "row": [float(x) for x in self._user_factors._rows[slot]],
            "err": float(self.weights.user_error(slot)),
            "samples": samples,
        }
        if self.hooks is not None:
            gate_entry = self.hooks.export_user(ext)
            if gate_entry is not None:
                payload["gate"] = gate_entry
        self._spill.put(
            "user", ext, json.dumps(payload, sort_keys=True).encode()
        )
        self._store.drop_user(slot)
        self.weights.reset_user(slot)
        del self._u_slot_of[ext]
        self._u_ext_of[slot] = -1
        self._u_free.append(slot)
        self._spilled_users.add(ext)
        self.counters["demoted_users"] += 1
        _LC_HANDLES["user"][2].inc()

    def _demote_service_slot(self, slot: int) -> None:
        ext = self._s_ext_of[slot]
        samples = []
        for peer_slot in self._store._service_index.get(slot, ()):
            timestamp, value = self._store.get(peer_slot, slot)
            samples.append([int(self._u_ext_of[peer_slot]), timestamp, value])
        samples.sort(key=lambda item: item[0])
        payload = {
            "row": [float(x) for x in self._service_factors._rows[slot]],
            "err": float(self.weights.service_error(slot)),
            "samples": samples,
        }
        if self.hooks is not None:
            gate_entry = self.hooks.export_service(ext)
            if gate_entry is not None:
                payload["gate"] = gate_entry
        self._spill.put(
            "service", ext, json.dumps(payload, sort_keys=True).encode()
        )
        self._store.drop_service(slot)
        self.weights.reset_service(slot)
        del self._s_slot_of[ext]
        self._s_ext_of[slot] = -1
        self._s_free.append(slot)
        self._spilled_services.add(ext)
        self.counters["demoted_services"] += 1
        _LC_HANDLES["service"][2].inc()

    # ------------------------------------------------------------------
    # Revival
    # ------------------------------------------------------------------
    def pending_revivals(
        self, user_id: "int | None" = None, service_id: "int | None" = None
    ) -> list[tuple[str, int]]:
        """Which of the addressed entities are spilled, in apply order."""
        pending = []
        if user_id is not None and user_id in self._spilled_users:
            pending.append(("user", int(user_id)))
        if service_id is not None and service_id in self._spilled_services:
            pending.append(("service", int(service_id)))
        return pending

    def revive_payload(self, kind: str, ext_id: int) -> dict:
        """Fetch a spilled entity's payload (what the WAL event will carry)."""
        raw = self._spill.get(kind, ext_id)
        if raw is None:
            raise KeyError(f"no spill row for {kind} {ext_id}")
        return json.loads(raw.decode())

    def apply_revive(self, kind: str, ext_id: int, payload: dict) -> None:
        """Restore a spilled entity from ``payload`` (WAL-replayable).

        Restores the factor row exactly (into a slot stamped for this
        occupancy alone, so no cache stamp from an earlier one matches), the
        EMA error, and every retained sample whose peer is currently hot;
        samples against cold peers are dropped (re-warming tradeoff: they
        re-enter via fresh observations).  Deletes the spill row, keeping
        "row present iff spilled" invariant.
        """
        if kind == "user":
            self._revive_user(int(ext_id), payload)
        elif kind == "service":
            self._revive_service(int(ext_id), payload)
        else:
            raise ValueError(f"unknown revive kind {kind!r}")

    def _revive_user(self, ext: int, payload: dict) -> None:
        if ext in self._u_slot_of:
            return
        slot = self._alloc_user_slot(fresh=False)
        self._u_slot_of[ext] = slot
        self._u_ext_of[slot] = ext
        self._u_touch[slot] = self._tick
        self._user_factors.set_row(slot, payload["row"])
        self.weights.set_user_error(slot, payload["err"])
        for peer_ext, timestamp, value in payload.get("samples", ()):
            peer_slot = self._s_slot_of.get(int(peer_ext))
            if peer_slot is None:
                continue
            value = float(value)
            self._store.put(
                slot, peer_slot, float(timestamp), value, self.normalize_value(value)
            )
        if self.hooks is not None:
            self.hooks.import_user(ext, payload.get("gate"))
        self._spilled_users.discard(ext)
        self._spill.delete("user", ext)
        self._spill.commit()
        self.counters["revived_users"] += 1
        _LC_HANDLES["user"][3].inc()
        self._enforce_capacity()

    def _revive_service(self, ext: int, payload: dict) -> None:
        if ext in self._s_slot_of:
            return
        slot = self._alloc_service_slot(fresh=False)
        self._s_slot_of[ext] = slot
        self._s_ext_of[slot] = ext
        self._s_touch[slot] = self._tick
        self._service_factors.set_row(slot, payload["row"])
        self.weights.set_service_error(slot, payload["err"])
        for peer_ext, timestamp, value in payload.get("samples", ()):
            peer_slot = self._u_slot_of.get(int(peer_ext))
            if peer_slot is None:
                continue
            value = float(value)
            self._store.put(
                peer_slot, slot, float(timestamp), value, self.normalize_value(value)
            )
        if self.hooks is not None:
            self.hooks.import_service(ext, payload.get("gate"))
        self._spilled_services.discard(ext)
        self._spill.delete("service", ext)
        self._spill.commit()
        self.counters["revived_services"] += 1
        _LC_HANDLES["service"][3].inc()
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
        if kind == "user":
            return sorted(set(self._u_slot_of) | self._spilled_users)
        if kind == "service":
            return sorted(set(self._s_slot_of) | self._spilled_services)
        raise ValueError(f"unknown entity kind {kind!r}")

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
        edges = set()
        for u_slot, s_slots in self._store._user_index.items():
            u_ext = self._u_ext_of[u_slot]
            for s_slot in s_slots:
                edges.add((int(u_ext), int(self._s_ext_of[s_slot])))
        for ext in self._spilled_users:
            payload = self.revive_payload("user", ext)
            for peer_ext, __, __ in payload.get("samples", ()):
                edges.add((int(ext), int(peer_ext)))
        for ext in self._spilled_services:
            payload = self.revive_payload("service", ext)
            for peer_ext, __, __ in payload.get("samples", ()):
                edges.add((int(peer_ext), int(ext)))
        return [list(edge) for edge in sorted(edges)]

    def export_payload(self, kind: str, ext_id: int) -> dict:
        """Canonical spill-format payload for any known entity, read-only.

        Hot entities get exactly the payload :meth:`_demote_user_slot` /
        :meth:`_demote_service_slot` would write (factor row, EMA error,
        peer-sorted samples, gate entry) *without* being demoted — the
        source stays fully serving until the migration batch commits.
        Spilled entities reuse their spill row.  Unknown ids raise
        ``KeyError`` (the coordinator treats that as "already moved").
        """
        ext = int(ext_id)
        if kind == "user":
            slot = self._u_slot_of.get(ext)
            if slot is None:
                return self.revive_payload("user", ext)
            samples = []
            for peer_slot in self._store._user_index.get(slot, ()):
                timestamp, value = self._store.get(slot, peer_slot)
                samples.append([int(self._s_ext_of[peer_slot]), timestamp, value])
            samples.sort(key=lambda item: item[0])
            payload = {
                "row": [float(x) for x in self._user_factors._rows[slot]],
                "err": float(self.weights.user_error(slot)),
                "samples": samples,
            }
            if self.hooks is not None:
                gate_entry = self.hooks.peek_user(ext)
                if gate_entry is not None:
                    payload["gate"] = gate_entry
            return payload
        if kind == "service":
            slot = self._s_slot_of.get(ext)
            if slot is None:
                return self.revive_payload("service", ext)
            samples = []
            for peer_slot in self._store._service_index.get(slot, ()):
                timestamp, value = self._store.get(peer_slot, slot)
                samples.append([int(self._u_ext_of[peer_slot]), timestamp, value])
            samples.sort(key=lambda item: item[0])
            payload = {
                "row": [float(x) for x in self._service_factors._rows[slot]],
                "err": float(self.weights.service_error(slot)),
                "samples": samples,
            }
            if self.hooks is not None:
                gate_entry = self.hooks.peek_service(ext)
                if gate_entry is not None:
                    payload["gate"] = gate_entry
            return payload
        raise ValueError(f"unknown entity kind {kind!r}")

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
            (str(kind), int(ext), payload) for kind, ext, payload in entities
        ]
        self._tick += 1
        for kind, ext, payload in items:
            if kind == "user":
                if ext in self._u_slot_of:
                    self.forget_user(ext)
                elif ext in self._spilled_users:
                    self._spilled_users.discard(ext)
                    self._spill.delete("user", ext)
                slot = self._alloc_user_slot(fresh=False)
                self._u_slot_of[ext] = slot
                self._u_ext_of[slot] = ext
                self._u_touch[slot] = self._tick
                self._user_factors.set_row(slot, payload["row"])
                self.weights.set_user_error(slot, payload["err"])
                if self.hooks is not None:
                    self.hooks.import_user(ext, payload.get("gate"))
                self.counters["imported_users"] += 1
            elif kind == "service":
                if ext in self._s_slot_of:
                    self.forget_service(ext)
                elif ext in self._spilled_services:
                    self._spilled_services.discard(ext)
                    self._spill.delete("service", ext)
                slot = self._alloc_service_slot(fresh=False)
                self._s_slot_of[ext] = slot
                self._s_ext_of[slot] = ext
                self._s_touch[slot] = self._tick
                self._service_factors.set_row(slot, payload["row"])
                self.weights.set_service_error(slot, payload["err"])
                if self.hooks is not None:
                    self.hooks.import_service(ext, payload.get("gate"))
                self.counters["imported_services"] += 1
            else:
                raise ValueError(f"unknown entity kind {kind!r}")
        for kind, ext, payload in items:
            if kind == "user":
                slot = self._u_slot_of[ext]
                for peer_ext, timestamp, value in payload.get("samples", ()):
                    peer_slot = self._s_slot_of.get(int(peer_ext))
                    if peer_slot is None:
                        continue
                    value = float(value)
                    self._store.put(
                        slot,
                        peer_slot,
                        float(timestamp),
                        value,
                        self.normalize_value(value),
                    )
            else:
                slot = self._s_slot_of[ext]
                for peer_ext, timestamp, value in payload.get("samples", ()):
                    peer_slot = self._u_slot_of.get(int(peer_ext))
                    if peer_slot is None:
                        continue
                    value = float(value)
                    self._store.put(
                        peer_slot,
                        slot,
                        float(timestamp),
                        value,
                        self.normalize_value(value),
                    )
        self._spill.commit()
        self._spill.maybe_compact()
        self._enforce_capacity()
        return len(items)

    def remove_entity(self, kind: str, ext_id: int) -> bool:
        """Forget a migrated-out entity; idempotent (WAL replay re-deletes).

        Returns whether the entity existed.  The state was already shipped
        in a prior export batch, so the gate entry :meth:`forget_user` /
        :meth:`forget_service` discards here is a copy of what the
        destination imported.
        """
        ext = int(ext_id)
        if kind == "user":
            existed = ext in self._u_slot_of or ext in self._spilled_users
            self.forget_user(ext)
            if existed:
                self.counters["migrated_out_users"] += 1
            return existed
        if kind == "service":
            existed = ext in self._s_slot_of or ext in self._spilled_services
            self.forget_service(ext)
            if existed:
                self.counters["migrated_out_services"] += 1
            return existed
        raise ValueError(f"unknown entity kind {kind!r}")

    # ------------------------------------------------------------------
    # Pressure events
    # ------------------------------------------------------------------
    def apply_pressure(self, hot_users: int, hot_services: int, level: str) -> None:
        """Apply a capacity-tightening pressure event (WAL-replayable).

        New capacities take effect immediately: overflow beyond them is
        demoted deterministically, so recovery and the standby converge to
        the same (smaller) hot set.
        """
        if level not in PRESSURE_LEVELS:
            raise ValueError(f"unknown pressure level {level!r}")
        self._hot_users = max(2, int(hot_users))
        self._hot_services = max(2, int(hot_services))
        self._pressure_level = level
        self.counters["pressure_events"] += 1
        _LC_PRESSURE_EVENTS.inc()
        _LC_PRESSURE_LEVEL.set(PRESSURE_LEVELS.index(level))
        self._enforce_capacity()

    def apply_event(self, kind: str, data: dict) -> None:
        """Dispatch one WAL lifecycle event (recovery replay / standby)."""
        if kind == "revive_user":
            self.apply_revive("user", int(data["id"]), data["p"])
        elif kind == "revive_service":
            self.apply_revive("service", int(data["id"]), data["p"])
        elif kind == "pressure":
            self.apply_pressure(data["hu"], data["hs"], str(data["level"]))
        else:
            raise ValueError(f"unknown lifecycle event {kind!r}")

    # ------------------------------------------------------------------
    # Prediction (external-id API over the slot-space kernels)
    # ------------------------------------------------------------------
    def predict_normalized(self, user_id: int, service_id: int) -> float:
        u_slot = self._u_slot_of.get(user_id)
        s_slot = self._s_slot_of.get(service_id)
        if u_slot is None or s_slot is None:
            raise KeyError(
                f"unknown or cold entity: user {user_id}, service {service_id}"
            )
        return super().predict_normalized(u_slot, s_slot)

    def predict_for_user(self, user_id: int, service_ids) -> np.ndarray:
        u_slot = self._u_slot_of.get(user_id)
        if u_slot is None:
            raise KeyError(f"unknown or cold user {user_id}")
        slot_ids = np.empty(len(service_ids), dtype=np.intp)
        for k, service_id in enumerate(service_ids):
            s_slot = self._s_slot_of.get(int(service_id))
            if s_slot is None:
                raise KeyError(f"unknown or cold service {service_id}")
            slot_ids[k] = s_slot
        return super().predict_for_user(u_slot, slot_ids)

    def user_version(self, user_id: int) -> int:
        slot = self._u_slot_of.get(user_id)
        return 0 if slot is None else self._user_factors.version(slot)

    def service_version(self, service_id: int) -> int:
        slot = self._s_slot_of.get(service_id)
        return 0 if slot is None else self._service_factors.version(slot)

    def expected_error(self, user_id: int, service_id: int) -> float:
        u_slot = self._u_slot_of.get(user_id)
        s_slot = self._s_slot_of.get(service_id)
        e_u = (
            self.weights.init_error
            if u_slot is None
            else self.weights.user_error(u_slot)
        )
        e_s = (
            self.weights.init_error
            if s_slot is None
            else self.weights.service_error(s_slot)
        )
        return (e_u + e_s) / 2.0

    def service_credence(self, service_id: int) -> float:
        """Per-service EMA error by external id — a pure read.  Spilled
        services answer ``init_error`` like unknown ids (consulting the
        demote payload would hit disk on the read path); that is the
        conservative "low credence" signal until revival."""
        slot = self._s_slot_of.get(service_id)
        if slot is None:
            return float(self.weights.init_error)
        return float(self.weights.service_error(slot))


class MemoryWatchdog:
    """Polls resident entity bytes and degrades the server gracefully.

    Escalation (each step requires ``sustain_polls`` consecutive polls over
    its threshold, so a transient spike does nothing):

    1. usage >= ``tighten_at``  -> shrink hot capacities by
       ``shrink_factor`` (floored at ``min_hot``) via ``on_tighten`` — the
       server turns this into a WAL ``pressure`` event.
    2. usage >= ``critical_at`` -> additionally ``on_shed(True)`` — the
       server starts answering cold-revive *reads* with 429/Retry-After.
       Hot predictions are never shed.

    Recovery: a poll back under ``tighten_at`` clears shedding.

    Args:
        lifecycle:  thresholds (:class:`LifecycleConfig`), including
                    ``memory_limit_bytes``.
        usage:      callable returning tracked resident bytes.
        capacities: callable returning the current ``(hot_users,
                    hot_services)``.
        on_tighten: callable ``(hot_users, hot_services, level)`` applying
                    a capacity change.
        on_shed:    callable ``(bool)`` toggling cold-read shedding.
    """

    def __init__(
        self,
        lifecycle: LifecycleConfig,
        usage,
        capacities,
        on_tighten,
        on_shed,
    ) -> None:
        if lifecycle.memory_limit_bytes is None:
            raise ValueError("MemoryWatchdog requires memory_limit_bytes")
        self.lifecycle = lifecycle
        self._usage = usage
        self._capacities = capacities
        self._on_tighten = on_tighten
        self._on_shed = on_shed
        self._over_tighten = 0
        self._over_critical = 0
        self.level = "ok"
        self._reported_level = "ok"
        self.shedding = False
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
        should_shed = self.level == "critical"
        if should_shed != self.shedding:
            self.shedding = should_shed
            self._on_shed(should_shed)
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
