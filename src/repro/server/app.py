"""The QoS prediction service as a fault-tolerant HTTP endpoint.

Implements the Fig. 3 interface over JSON/HTTP using only the standard
library:

=======  =====================  ==========================================
method   path                   body / query
=======  =====================  ==========================================
POST     /observations          {"timestamp", "user_id", "service_id",
                                "value"} — report one observed QoS sample
POST     /observations/batch    {"observations": [...]} — report many;
                                per-item outcomes, bad records don't abort
GET      /predictions           ?user_id=U&service_id=S — one prediction,
                                tagged with its source + confidence
POST     /predictions/batch     {"user_id", "service_ids": [...]}
GET      /status                model statistics + fault-tolerance counters
GET      /health                liveness/readiness (200 ready / 503 not)
GET      /metrics               Prometheus text exposition (version 0.0.4)
                                of every registered metric family
GET      /replication/wal       ?after_seq=N&limit=M — committed WAL
                                records for a pulling standby
GET      /replication/status    role, fencing epoch, lag (replicated mode)
GET      /migration/entities    entity ids + sample edges (tiered servers)
POST     /migration/export      {"entities": [[kind, id], ...]} — read-only
                                canonical payloads for a migration batch
POST     /migration/import      {"mid", "seq", "entities": [[kind, id,
                                payload], ...]} — idempotent batch import
POST     /migration/delete      {"entities": [...]} — drop source copies
POST     /migration/probe       {"entities": [...]} — payload fingerprints
=======  =====================  ==========================================

A :class:`~repro.core.daemon.BackgroundTrainer` replays retained samples
between requests — literally: every data-plane request holds the model's
arrival mark from receipt to reply (:meth:`PredictionServer._arrival`) and
the trainer takes a slice only once the stream has been idle — under a
:class:`~repro.core.daemon.TrainerSupervisor` that restarts it with capped
backoff if the replay loop crashes.

The server is a log-driven state machine: a write is ``validate -> log ->
apply -> reply``, and everything durable about the server (model, gate,
dedup ledger, tier assignment, migration ledger) is a fold of one
transition function over the log.  :meth:`PredictionServer._commit` is
the one place an entry is appended (and a failed append handled) and
:meth:`PredictionServer._apply` the one place an entry changes state; the
live handlers, crash recovery and a standby differ only in where their
entries come from.  The entry kinds are tabulated in
:meth:`repro.server.wal.WriteAheadLog.append_event`.  A read is no entry:
the prediction and credence handlers take neither the ingest lock nor the
log, on a tiered shard included (a spilled entity's row is read where it
lies), so every node answers reads the same way whatever its role.

Fault tolerance (``data_dir`` enables durability):

* every accepted observation — and every revive, pressure change and
  migration batch — is appended to a write-ahead log
  (:class:`~repro.server.wal.WriteAheadLog`) and fsync'd *before* it is
  applied;
* every ``checkpoint_interval`` observations the full model state is
  checkpointed atomically (write-temp-then-rename, RNG state included) and
  covered WAL segments are pruned;
* on construction, the server reloads the latest checkpoint and applies
  the WAL tail — reconstructing the exact pre-crash model (bit-exact when
  background replay is off; with replay on, replay work since the last
  checkpoint is simply redone);
* predictions degrade through :class:`~repro.core.fallback.FallbackPredictor`
  for unknown entities or an unhealthy model instead of erroring out;
* unexpected handler exceptions return a JSON 500, never a dropped
  connection, and oversized bodies are rejected with 413 before reading.

Untrusted-stream hardening (:mod:`repro.robustness`, all opt-in):

* ``gate=`` attaches a streaming outlier gate — each observation is
  admitted, clipped into the entity's plausible band, or quarantined
  pending corroboration, *after* the raw record is WAL'd; replaying the
  WAL re-runs the same deterministic decisions, and the gate state rides
  inside every checkpoint, so recovery stays bit-exact;
* observations may carry an ``idempotency_key`` — a bounded dedup ledger
  (rebuilt from the WAL on recovery) acknowledges retries without
  re-applying the SGD step, making at-least-once client delivery safe;
  ``timestamp_policy=`` additionally rejects too-stale/too-future samples;
* ``admission=`` adds front-door load shedding on the ingest path —
  token-bucket rate limiting (429), a bounded ingest queue and per-request
  deadline budget (503), all with ``Retry-After``; predictions are never
  shed, so the fallback chain keeps serving through a flood.

High availability (:mod:`repro.server.replication`, ``replication=``):

* a **primary** ships committed WAL records from ``GET /replication/wal``
  and re-reads the shared epoch store on its write path, fencing itself
  (409 ``stale_epoch``) the moment a newer primary exists;
* a **standby** pulls the primary's log and commits each entry as the
  primary did (:meth:`PredictionServer.apply_shipped`; its own WAL stays
  a byte-identical copy), refuses client writes with 409
  ``not_primary``, serves predictions, and
  :meth:`PredictionServer.promote` turns it into the primary by winning
  the epoch compare-and-swap;
* a full WAL disk degrades the server to read-only (structured 507,
  ``qos_wal_append_errors_total``) instead of a bare 500 — predictions
  keep serving, and a standby in that state never promotes itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
import time

from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.config import AMFConfig
from repro.core.daemon import BackgroundTrainer, ConcurrentModel, TrainerSupervisor
from repro.core.fallback import FallbackPredictor
from repro.core.online import PredictionCache
from repro.core.transform import sigmoid
from repro.datasets.schema import QoSRecord
from repro.lifecycle import (
    LifecycleConfig,
    MemoryWatchdog,
    SpillStore,
    TieredAMF,
)
from repro.observability import StreamAccuracyMonitor, get_registry
from repro.robustness import (
    AdmissionConfig,
    AdmissionController,
    DedupLedger,
    GateConfig,
    SanitizerGate,
    StaleObservation,
    TimestampPolicy,
    apply_observation,
)
from repro.server.binary import (
    OP_CREDENCE,
    OP_OBSERVE,
    OP_OBSERVE_BATCH,
    OP_PREDICT_BATCH,
    TRANSPORT_JSON_REQUESTS,
    BinaryTransportServer,
    set_transport_mode,
)
from repro.server.http import BadRequest, HttpListener, ServiceError
from repro.server.replication import (
    FencedWrite,
    ReplicationConfig,
    StandbyReplicator,
    note_epoch,
    note_promotion,
    note_shipped,
    note_stale_epoch,
)
from repro.server.wal import (
    CheckpointStore,
    WalAppendError,
    WriteAheadLog,
    entry_to_wire,
)

# Serving observability.  The fallback chain tags every answer with its
# source, so predictions-by-source is the one counter that shows degradation
# happening; expected_error gives the calibration distribution of the answers
# actually served (model source only — fallback answers carry their own
# coarse confidence).
_METRICS = get_registry()
_PREDICTIONS = _METRICS.counter(
    "qos_predictions_total",
    "Predictions served, by fallback-chain source",
    labelnames=("source",),
)
_PREDICTION_EXPECTED_ERROR = _METRICS.histogram(
    "qos_prediction_expected_error",
    "Expected relative error attached to model-source predictions",
)
_OBSERVATIONS_REJECTED = _METRICS.counter(
    "qos_observations_rejected_total", "Observations rejected by validation"
)
_BATCH_SIZE = _METRICS.histogram(
    "qos_predict_batch_size",
    "Service ids per batched prediction request (both transports)",
)
# Entity-migration shard counters (repro.cluster.migration drives these
# endpoints; the families exist on every server so fleet aggregation and the
# chaos drill's exposition check see them at zero when no migration ran).
_MIGRATION_EXPORTS = _METRICS.counter(
    "qos_migration_exports_total",
    "Entities exported from this shard by migration batches",
)
_MIGRATION_IMPORTS = _METRICS.counter(
    "qos_migration_imports_total",
    "Entities imported into this shard by migration batches",
)
_MIGRATION_DELETES = _METRICS.counter(
    "qos_migration_deletes_total",
    "Source copies deleted on this shard after migration batch commit",
)

class _StorageUnavailable(ServiceError):
    """Durable ingest is impossible (WAL append failed) — HTTP 507.

    The server stays up in read-only degraded mode: predictions (and all
    GETs) keep serving, observation writes get this structured refusal
    until an operator frees disk and restarts the process.
    """

    status = 507
    code = "insufficient_storage"


def _require(payload: dict, field: str, kind):
    if field not in payload:
        raise BadRequest(f"missing field {field!r}")
    try:
        return kind(payload[field])
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"field {field!r} must be {kind.__name__}") from exc


def _require_observation(payload: dict) -> QoSRecord:
    """Parse and validate one observation payload into a :class:`QoSRecord`.

    Beyond type coercion, this is the API-boundary hygiene check: a NaN,
    ±inf, or negative QoS value must never reach the WAL or an SGD step —
    ``float("nan")`` coerces fine, so ``_require`` alone cannot catch it.
    """
    timestamp = _require(payload, "timestamp", float)
    value = _require(payload, "value", float)
    if not math.isfinite(timestamp):
        raise BadRequest(
            f"field 'timestamp' must be finite, got {timestamp}",
            code="invalid_timestamp",
        )
    if not math.isfinite(value):
        raise BadRequest(
            f"field 'value' must be finite, got {value}", code="invalid_value"
        )
    if value < 0:
        raise BadRequest(
            f"field 'value' must be non-negative, got {value}",
            code="invalid_value",
        )
    try:
        return QoSRecord(
            timestamp=timestamp,
            user_id=_require(payload, "user_id", int),
            service_id=_require(payload, "service_id", int),
            value=value,
        )
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc


def _idempotency_key(payload: dict) -> "str | None":
    key = payload.get("idempotency_key")
    if key is None:
        return None
    if not isinstance(key, str) or not key or len(key) > 256:
        raise BadRequest(
            "field 'idempotency_key' must be a non-empty string of at most "
            "256 characters",
            code="invalid_idempotency_key",
        )
    return key


class PredictionServer:
    """Owns the model, the WAL, the supervised trainer, and the HTTP server.

    Typical use::

        server = PredictionServer(AMFConfig.for_response_time(), rng=0,
                                  data_dir="/var/lib/qos")
        server.start()                      # binds 127.0.0.1:<ephemeral>
        client = PredictionClient(server.address)
        ...
        server.stop()                       # final checkpoint + shutdown

    ``port=0`` (the default) binds an ephemeral port; read ``address``
    after ``start``.  ``data_dir=None`` disables durability (in-memory
    only, the pre-fault-tolerance behavior).  ``rng`` seeds a *fresh*
    model only — when a checkpoint exists in ``data_dir`` the checkpointed
    model (including its RNG state) wins, which is what makes recovery
    exact.

    Robustness knobs (all off by default, see :mod:`repro.robustness`):

    * ``gate`` — ``True`` for default :class:`GateConfig` thresholds, or a
      :class:`GateConfig`; attaches the streaming outlier gate.  **Keep the
      setting consistent across restarts of the same ``data_dir``** — the
      WAL stores raw pre-gate records, so replaying them without the gate
      (or with different thresholds) reconstructs a different model.
    * ``admission`` — ``True`` for default :class:`AdmissionConfig` limits,
      or an :class:`AdmissionConfig`; enables ingest load shedding.
    * ``timestamp_policy`` — a :class:`TimestampPolicy` bounding how
      stale/future observation timestamps may be.
    * ``dedup_capacity`` — idempotency-key ledger size (the ledger itself
      is always on; it costs nothing until a client sends keys).

    Hot-path serving knobs:

    * ``binary_port`` — port for the persistent-connection binary
      transport (:mod:`repro.server.binary`); 0 (default) binds an
      ephemeral port next to the HTTP listener, ``None`` disables the
      binary transport entirely.  Read ``binary_address`` after ``start``.
    * ``predict_cache_size`` — capacity, in (user, service) pairs, of the
      version-stamped :class:`~repro.core.online.PredictionCache` fronting
      the batched predict path; ``None`` or 0 disables caching.  The cache
      is derived state: it is never checkpointed, and version stamps make
      entries self-invalidating when SGD writes move the factors.
    """

    def __init__(
        self,
        config: AMFConfig | None = None,
        rng: "int | None" = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        background_replay: bool = True,
        data_dir: "str | None" = None,
        checkpoint_interval: int = 1000,
        supervise: bool = True,
        max_body_bytes: int = 1 << 20,
        gate: "GateConfig | bool | None" = None,
        admission: "AdmissionConfig | bool | None" = None,
        timestamp_policy: "TimestampPolicy | None" = None,
        dedup_capacity: int = 65536,
        replication: "ReplicationConfig | None" = None,
        replication_link=None,
        binary_port: "int | None" = 0,
        predict_cache_size: "int | None" = 65536,
        lifecycle: "LifecycleConfig | bool | None" = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if replication is not None and data_dir is None:
            raise ValueError(
                "replication requires data_dir: log shipping reads/writes the WAL"
            )
        self.checkpoint_interval = checkpoint_interval
        self.max_body_bytes = max_body_bytes

        self._wal: "WriteAheadLog | None" = None
        self._checkpoints: "CheckpointStore | None" = None
        model: "AdaptiveMatrixFactorization | None" = None
        applied_seq = 0
        checkpoint_extra: dict = {}
        if data_dir is not None:
            self._checkpoints = CheckpointStore(data_dir)
            restored = self._checkpoints.load_full(rng=None)
            if restored is not None:
                model, applied_seq, checkpoint_extra = restored
            self._wal = WriteAheadLog(data_dir)
        if model is None:
            model = AdaptiveMatrixFactorization(config, rng=rng)

        # Bounded-memory lifecycle (hot/cold tiering, repro.lifecycle).  The
        # wrap must happen before the WAL tail replay below: the tail can
        # contain lifecycle events (revives, pressure changes) and the
        # replayed observations must demote through the same policy that
        # produced the log.  Like the gate, the setting must stay consistent
        # across restarts of one data_dir — a flat server cannot replay a
        # tiered WAL (checked both ways below).
        if lifecycle is True:
            lifecycle = LifecycleConfig()
        self.lifecycle: "LifecycleConfig | None" = (
            lifecycle if isinstance(lifecycle, LifecycleConfig) else None
        )
        self._spill: "SpillStore | None" = None
        self._tiered: "TieredAMF | None" = None
        self._watchdog: "MemoryWatchdog | None" = None
        lifecycle_state = checkpoint_extra.pop("lifecycle", None)
        if self.lifecycle is None and lifecycle_state is not None:
            raise ValueError(
                "checkpoint carries hot/cold tiering state (its factor arrays "
                "are in slot space); restart with lifecycle= enabled"
            )
        if self.lifecycle is not None:
            spill_path = (
                os.path.join(data_dir, "spill.sqlite")
                if data_dir is not None
                else ":memory:"
            )
            self._spill = SpillStore(spill_path)
            model = TieredAMF.from_model(
                model, self.lifecycle, self._spill, state=lifecycle_state
            )
            self._tiered = model

        # Robustness state.  The gate binds the *raw* model's normalization
        # (pure config-derived functions, safe to call lock-free); its state
        # plus the dedup ledger ride in every checkpoint and are rebuilt to
        # the exact pre-crash values by the gated WAL replay below.
        if gate is True:
            gate = GateConfig()
        self.gate: "SanitizerGate | None" = (
            SanitizerGate(gate, model.normalize_value, model.denormalize_value)
            if gate is not None and gate is not False
            else None
        )
        self.ledger = DedupLedger(capacity=dedup_capacity)
        self.timestamp_policy = timestamp_policy
        if admission is True:
            admission = AdmissionConfig()
        self.admission: "AdmissionController | None" = (
            AdmissionController(admission)
            if admission is not None and admission is not False
            else None
        )
        robustness_state = checkpoint_extra.get("robustness", {})
        if self.gate is not None and "gate" in robustness_state:
            self.gate.restore(robustness_state["gate"])
        if "ledger" in robustness_state:
            self.ledger.restore(robustness_state["ledger"])
        self._latest_ingest_ts: "float | None" = robustness_state.get(
            "latest_ingest_ts"
        )
        # Migration import ledger: highest applied batch seq per migration
        # id.  Rides checkpoints (``extra["migration"]``) and is rebuilt by
        # the WAL replay below, so a duplicate batch POST — a coordinator
        # retry after a crash on either side — is a durable no-op.
        migration_state = checkpoint_extra.get("migration", {})
        self._migration_applied: "dict[str, int]" = {
            str(mid): int(seq)
            for mid, seq in migration_state.get("applied", {}).items()
        }

        # Replication / fencing state.  The epoch this node last held rides
        # in the checkpoint (serialization v4), so a deposed primary that
        # comes back can compare itself against the shared store and fence
        # itself before accepting a single write.
        self.replication = replication
        self.role = replication.role if replication is not None else "primary"
        self._epoch_store = replication.store() if replication is not None else None
        replication_state = checkpoint_extra.get("replication", {})
        self.epoch = int(replication_state.get("epoch", 0))
        self._fenced = False
        self._fence_checked_at = 0.0
        self._replicator: "StandbyReplicator | None" = None
        if replication is not None:
            if self.role == "primary":
                store_epoch = self._epoch_store.epoch()
                if store_epoch == 0 and self.epoch == 0:
                    # Fresh cluster: claim epoch 1.  Losing the CAS means
                    # another node claimed first — fall through to fencing.
                    if self._epoch_store.cas(0, 1, owner=replication.node_id):
                        self.epoch = 1
                    store_epoch = self._epoch_store.epoch()
                elif store_epoch < self.epoch:
                    # The store was lost/reset; re-seed it with our epoch so
                    # fencing arithmetic stays monotonic.
                    self._epoch_store.cas(
                        store_epoch, self.epoch, owner=replication.node_id
                    )
                    store_epoch = self._epoch_store.epoch()
                if store_epoch > self.epoch:
                    self._fenced = True
            else:
                self._replicator = StandbyReplicator(
                    self, replication, link=replication_link
                )
            note_epoch(self.epoch)

        self._predict_cache = (
            PredictionCache(predict_cache_size) if predict_cache_size else None
        )
        if self._tiered is not None:
            # Attached before the WAL tail replay on purpose: replayed
            # demotions must export gate statistics exactly as the original
            # run did (determinism).
            self._tiered.gate = self.gate

        self.model = ConcurrentModel(model)
        timestamps = model._store.columns()[2]
        if timestamps.size:
            self.model.note_timestamp(float(timestamps.max()))
        replayed = 0
        if self._wal is not None:
            # Recovery is the fold the live server ran: the same _apply over
            # the same entries in the same order.  The WAL holds raw
            # pre-gate records; re-running the (restored, deterministic)
            # gate over the tail reproduces the pre-crash admit/clip/
            # quarantine decisions — and therefore the pre-crash model —
            # bit-exactly.  Duplicate keys never reach the WAL, so every
            # replayed key is fresh and just rebuilds the ledger.  Revives
            # restore from the logged payload, never from the spill file
            # (which reflects crash-time state, not this position).
            for entry in self._wal.replay_entries(after_seq=applied_seq):
                self._apply(entry)
                replayed += 1
        self.recovery = {
            "checkpoint_seq": applied_seq,
            "wal_replayed": replayed,
            "torn_lines": self._wal.torn_lines if self._wal is not None else 0,
        }
        if self._tiered is not None:
            # Startup hygiene: replay never consults the row of an entity
            # it left hot, but one that an older release (or a hand edit)
            # stranded in the file would leak its space forever.
            self._spill.prune_except("user", self._tiered._spilled_users)
            self._spill.prune_except("service", self._tiered._spilled_services)

        self.fallback = FallbackPredictor(
            prior=float(model.normalizer.denormalize(sigmoid(0.0)))
        )
        users, services, __, values, __ = model._store.columns()
        self.fallback.seed_from_samples(users, services, values)

        # Rolling stream accuracy: each accepted observation is first
        # predicted (when the model can), then applied — a continuous
        # windowed MAE/MRE/NPRE over live traffic (drift detection).
        self.metrics = get_registry()
        self.drift = StreamAccuracyMonitor()
        self.drift.bind(self.metrics)
        # Model-shape gauges read live at scrape time.  Like the trainer's
        # replay-lag gauge, the most recently constructed server owns them.
        self.metrics.gauge(
            "qos_server_stored_samples", "Samples retained in the model's store"
        ).set_function(lambda: self.model.n_stored_samples)
        self.metrics.gauge(
            "qos_server_users", "Distinct users known to the model"
        ).set_function(lambda: self.model.n_users)
        self.metrics.gauge(
            "qos_server_services", "Distinct services known to the model"
        ).set_function(lambda: self.model.n_services)

        self.trainer = BackgroundTrainer(self.model) if background_replay else None
        self.supervisor = (
            TrainerSupervisor(self.trainer)
            if (self.trainer is not None and supervise)
            else None
        )
        self._host = host
        self._port = port
        self._httpd: "HttpListener | None" = None
        self._binary = (
            BinaryTransportServer(
                (host, binary_port),
                self._frames(),
                max_body_bytes=self.max_body_bytes,
                on_internal_error=self._note_internal_error,
            )
            if binary_port is not None
            else None
        )
        # Memory watchdog: resident-bytes polling against the configured
        # ceiling; tighten/critical degradation runs through WAL-logged
        # pressure events (_apply_pressure) so recovery and standbys
        # converge to the same tier assignment.  Reads are lock-free and
        # approximate — fine for a threshold controller.
        if (
            self._tiered is not None
            and self.lifecycle.memory_limit_bytes is not None
        ):
            tiered = self._tiered
            self._watchdog = MemoryWatchdog(
                self.lifecycle,
                usage=tiered.resident_bytes,
                capacities=lambda: (tiered._hot_users, tiered._hot_services),
                on_tighten=self._apply_pressure,
            )
        # Ingest lock: keeps WAL-append order identical to model-apply order
        # across handler threads (recovery replays in WAL order).  Stats
        # lock: handler threads increment counters concurrently;
        # unprotected += is a lost-update race.
        self._ingest_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._observations_handled = 0
        self._observations_rejected = 0
        self._observations_deduplicated = 0
        self._observations_quarantined = 0
        self._predictions_served = 0
        self._degraded_predictions = 0
        self._internal_errors = 0
        self._checkpoints_written = 0
        self._last_checkpoint_seq = applied_seq
        self._observations_since_checkpoint = 0
        self._model_healthy = True
        self._degraded_reason: "str | None" = None

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound; valid after :meth:`start`."""
        if self._httpd is None:
            raise RuntimeError("server is not running")
        return self._httpd.address

    @property
    def durable(self) -> bool:
        return self._wal is not None

    @property
    def binary_address(self) -> "tuple[str, int] | None":
        """(host, port) of the binary transport; ``None`` when disabled.
        Valid after :meth:`start`."""
        if self._binary is None or not self._binary.running:
            return None
        return self._binary.address

    def start(self) -> None:
        if self._httpd is not None:
            return
        self._httpd = HttpListener(
            (self._host, self._port),
            self._routes(),
            name="qos-prediction-http",
            max_body_bytes=self.max_body_bytes,
            timeout=30.0,
            on_request=lambda path: TRANSPORT_JSON_REQUESTS.inc(),
            on_internal_error=self._note_internal_error,
        )
        if self._binary is not None:
            self._binary.start()
        set_transport_mode(True, self._binary is not None)
        if self.supervisor is not None:
            self.supervisor.start()
        elif self.trainer is not None:
            self.trainer.start()
        if self._replicator is not None:
            self._replicator.start()
        if self._watchdog is not None and self.role == "primary":
            # Standbys never initiate tier changes: their tiering follows the
            # primary's WAL-shipped pressure/revive events, byte for byte.
            self._watchdog.start()

    def stop(self) -> None:
        """Graceful shutdown: final checkpoint, then tear everything down."""
        self._stop_serving()
        if self.durable and self._wal.writable:
            self.checkpoint()
            self._wal.close()
        if self._spill is not None:
            self._spill.close()

    def kill(self) -> None:
        """Crash simulation: stop serving *without* a final checkpoint.

        Recovery must then come entirely from the last periodic checkpoint
        plus the WAL tail — exactly the state a ``kill -9`` leaves behind.
        Used by the fault-injection harness; a real crash doesn't call
        anything at all, which this approximates as closely as an
        in-process test can.
        """
        self._stop_serving()
        if self.durable:
            self._wal.close()
        if self._spill is not None:
            # The spill file is committed with each checkpoint and must
            # never be behind it; whatever was written since sits in an open
            # transaction, which a kill -9 leaves as a rollback journal.
            # Roll it back rather than close()-commit it, so a recovering
            # server reopens exactly the file a dead process leaves.
            self._spill.abandon()

    def _stop_serving(self) -> None:
        if self._watchdog is not None and self._watchdog.running:
            self._watchdog.stop()
        if self._binary is not None and self._binary.running:
            self._binary.stop()
        if self._replicator is not None and self._replicator.running:
            self._replicator.stop()
        if self.supervisor is not None and self.supervisor.running:
            self.supervisor.stop()
        elif self.trainer is not None and self.trainer.running:
            self.trainer.stop()
        if self._httpd is not None:
            listener, self._httpd = self._httpd, None
            listener.stop()

    def __enter__(self) -> "PredictionServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- durability ----------------------------------------------------------
    def _robustness_extra(self) -> dict:
        """Robustness state checkpointed alongside the model (format v3).

        Gate and ledger evolve in ingest order, so snapshotting them under
        the ingest lock at the checkpoint's WAL position keeps recovery
        deterministic: restore, then re-run the gated replay over the tail.
        """
        state: dict = {"ledger": self.ledger.state_dict()}
        if self.gate is not None:
            state["gate"] = self.gate.state_dict()
        if self._latest_ingest_ts is not None:
            state["latest_ingest_ts"] = self._latest_ingest_ts
        return state

    def _checkpoint_locked(self) -> None:
        """Write a checkpoint covering the current WAL position.

        Caller must hold the ingest lock, so no observation can slip
        between the recorded WAL sequence and the model snapshot.
        """
        if self._checkpoints is None:
            return
        seq = self._wal.last_seq
        extra = {"robustness": self._robustness_extra()}
        if self.replication is not None:
            # Control-plane state (serialization v4): the fencing epoch must
            # survive a crash so a deposed primary can recognize itself.
            extra["replication"] = {"epoch": self.epoch, "role": self.role}
        if self._migration_applied:
            # Migration dedup ledger: without it, a checkpoint that covers
            # an imported batch followed by a crash would let a coordinator
            # retry re-apply the batch.  Sorted for byte-stable archives.
            extra["migration"] = self._migration_status()
        if self._spill is not None:
            # Commit, then publish — never the reverse.  Recovery reads
            # from the spill file exactly the rows of entities spilled at
            # the checkpoint and untouched since, so the file must hold
            # them by the time the archive below says so; a crash between
            # the two leaves it ahead of the old checkpoint, which replay
            # converges (see repro.lifecycle.spill).
            self._spill.commit()
            self._spill.maybe_compact()

        def _save(m: AdaptiveMatrixFactorization) -> None:
            if isinstance(m, TieredAMF):
                # Tiering state (serialization v5): the factor arrays above
                # are in slot space; without the ext<->slot maps and spilled
                # sets the checkpoint is unreadable.
                extra["lifecycle"] = m.lifecycle_state()
            self._checkpoints.save(m, seq, extra=extra)

        self.model.with_model(_save)
        if self.replication is None:
            # Replicated nodes retain their full log: a standby (or a
            # re-attaching one after promotion) catches up by shipping from
            # any sequence, which pruning would turn into an unfillable gap.
            self._wal.prune(seq)
        self._observations_since_checkpoint = 0
        with self._stats_lock:
            self._checkpoints_written += 1
            self._last_checkpoint_seq = seq

    def checkpoint(self) -> None:
        """Force a checkpoint now (also runs periodically during ingestion)."""
        with self._ingest_lock:
            self._checkpoint_locked()

    # -- replication ---------------------------------------------------------
    @property
    def wal_last_seq(self) -> int:
        """Highest durably logged sequence (0 without durability)."""
        return self._wal.last_seq if self._wal is not None else 0

    @property
    def fenced(self) -> bool:
        return self._fenced

    def note_cluster_epoch(self, epoch: int) -> None:
        """A standby learned the cluster epoch from a shipped batch."""
        if epoch > self.epoch:
            self.epoch = epoch
            note_epoch(epoch)

    def apply_shipped(self, entries: "list[tuple]") -> "list[str]":
        """Commit a batch of entries shipped from the primary's log on a
        standby, as one commit group (one fsync per pull, not per entry).

        Returns one outcome per entry examined, in order: ``"skipped"``
        (already durable locally), ``"applied"``, or — last, for the first
        entry that skips sequences this node never saw — ``"gap"``: the
        replicator must stop rather than apply a stream with a hole, and
        nothing at or past the hole is logged.  The contiguous run goes
        through the same :meth:`_commit` the primary ran — local WAL first,
        so the standby's directory stays a byte-identical copy of the
        primary's log and its crash recovery and post-promotion shipping
        work unchanged — but past none of the checks in front of it: the
        primary already deduplicated and policy-checked each record and
        logged every revive it needed, and re-deciding any of that against
        this node's view could fork the replica from the log it replays.
        """
        outcomes: "list[str]" = []
        run: "list[tuple]" = []
        with self._ingest_lock:
            expected = self._wal.last_seq + 1
            for entry in entries:
                if entry[1] < expected:
                    outcomes.append("skipped")
                    continue
                if entry[1] > expected:
                    outcomes.append("gap")
                    break
                self._require_event_model(entry)  # before the log takes anything
                run.append(entry)
                outcomes.append("applied")
                expected += 1
            if run:
                self._commit(*run)
        return outcomes

    def promote(self) -> bool:
        """Promote this standby to primary via the epoch compare-and-swap.

        Best-effort drains the old primary's tail first, then races
        ``CAS(E, E+1)`` against any sibling standbys; exactly one wins.
        The winner persists the new epoch in an immediate checkpoint (the
        fencing decision must survive its own crash), starts accepting
        writes, and — because its state came from gated replay of the
        shipped log — continues the stream bit-exactly where the primary
        committed.  Returns False if the CAS was lost (stay standby) — or,
        without touching the epoch store, if this node's own log cannot be
        written: a primary that can accept nothing must not depose one that
        can.
        """
        if self.replication is None or self.role != "standby":
            raise RuntimeError("promote() requires a standby with replication")
        if not self._wal.writable:  # a failed append is sticky until restart
            return False
        if self._replicator is not None:
            self._replicator.stop()
            try:
                # One last drain: pick up anything committed after our last
                # poll, if the old primary is still reachable.
                while self._replicator.poll_once():
                    pass
            except Exception:  # noqa: BLE001 — a dead primary is the point
                pass
        current = max(self._epoch_store.epoch(), self.epoch)
        if not self._epoch_store.cas(
            current, current + 1, owner=self.replication.node_id
        ):
            if self._replicator is not None:
                self._replicator.start()
            return False
        with self._ingest_lock:
            self.epoch = current + 1
            self.role = "primary"
            self._fenced = False
            self._checkpoint_locked()
        note_promotion(self.epoch)
        if self._watchdog is not None and not self._watchdog.running:
            self._watchdog.start()
        return True

    def _check_write_allowed(self) -> None:
        """May this node take a write right now?  The gate in front of every
        client mutation (observations, migration import and delete).

        Standbys always refuse; a primary re-reads the epoch store at most
        every ``fence_check_interval`` seconds so a deposed-but-alive node
        fences itself within one interval of losing its claim; and a node
        whose log froze refuses until restarted.
        """
        if self.role == "standby":
            note_stale_epoch()
            raise FencedWrite(
                "this replica is a standby; route observations to the primary",
                code="not_primary",
                epoch=self.epoch,
            )
        if self._epoch_store is not None and not self._fenced:
            now = time.monotonic()
            if now - self._fence_checked_at >= self.replication.fence_check_interval:
                self._fence_checked_at = now
                if self._epoch_store.epoch() > self.epoch:
                    self._fenced = True
        if self._fenced:
            note_stale_epoch()
            raise FencedWrite(
                f"this node holds stale epoch {self.epoch}; a newer primary "
                "has been promoted",
                code="stale_epoch",
                epoch=self.epoch,
                cluster_epoch=self._epoch_store.epoch(),  # fenced => replicated
            )
        if self._degraded_reason is not None:
            raise _StorageUnavailable(
                "server is in read-only degraded mode "
                f"({self._degraded_reason}); predictions still serve"
            )

    def _replication_status(self) -> "dict | None":
        if self.replication is None:
            return None
        status = {
            "role": self.role,
            "epoch": self.epoch,
            "fenced": self._fenced,
            "last_seq": self.wal_last_seq,
            "store_epoch": self._epoch_store.epoch(),
        }
        if self._replicator is not None:
            status["standby"] = self._replicator.status()
        return status

    def _handle_replication_wal(self, query: dict) -> dict:
        """Ship committed WAL records to a pulling standby."""
        if self._wal is None:
            raise BadRequest("this server is not durable; nothing to ship")
        try:
            after_seq = int(query.get("after_seq", ["0"])[0])
            limit = int(query.get("limit", ["512"])[0])
        except (ValueError, IndexError) as exc:
            raise BadRequest("after_seq and limit must be integers") from exc
        if after_seq < 0 or limit < 1:
            raise BadRequest("after_seq must be >= 0 and limit >= 1")
        batch = self._wal.read_committed_entries(
            after_seq=after_seq, limit=min(limit, 4096)
        )
        note_shipped(len(batch))
        return {
            "epoch": self.epoch,
            "role": self.role,
            "last_seq": self._wal.last_seq,
            "records": [entry_to_wire(entry) for entry in batch],
        }

    # -- request handling ------------------------------------------------------
    def _parse_observation(self, payload: dict) -> "tuple[QoSRecord, str | None]":
        """Validate one observation payload; counts rejections."""
        try:
            record = _require_observation(payload)
            key = _idempotency_key(payload)
        except BadRequest:
            with self._stats_lock:
                self._observations_rejected += 1
            _OBSERVATIONS_REJECTED.inc()
            raise
        return record, key

    @contextlib.contextmanager
    def _acquire_ingest_lock(self):
        """Hold the ingest lock, honoring the admission deadline budget.

        With admission control on, a request that cannot get the lock
        within the deadline is shed with 503 instead of joining an
        unbounded convoy.
        """
        if self.admission is None:
            self._ingest_lock.acquire()
        elif not self._ingest_lock.acquire(timeout=self.admission.deadline):
            raise self.admission.note_deadline_exceeded()
        try:
            yield
        finally:
            self._ingest_lock.release()

    def _ingest_one(self, record: QoSRecord, key: "str | None") -> dict:
        """Validate one parsed observation against this node's view, then
        commit it.  Caller holds the ingest lock.

        Everything here runs *in front of* the log: a duplicate key or a
        refused timestamp never reaches it, and a spilled party's revive
        entry is put ahead of the observation in its commit group.  A
        shipped entry passes none of it — see :meth:`apply_shipped`.
        """
        if key is not None and self.ledger.seen(key):
            self.ledger.note_duplicate()
            with self._stats_lock:
                self._observations_deduplicated += 1
            return {"sample_error": None, "action": "deduplicated"}
        if self.timestamp_policy is not None:
            try:
                self.timestamp_policy.check(record.timestamp, self._latest_ingest_ts)
            except StaleObservation as exc:
                with self._stats_lock:
                    self._observations_rejected += 1
                _OBSERVATIONS_REJECTED.inc()
                raise BadRequest(str(exc), code=f"{exc.reason}_timestamp") from exc
        # One commit group: the revive events (payload included) precede the
        # observation in the WAL, or recovery would replay an observe
        # against a still-cold entity — and all of them share one fsync.
        revives = (
            self._revive_entries(record.user_id, record.service_id)
            if self._tiered is not None
            else ()
        )
        return self._commit(*revives, ("obs", None, record, key))

    # -- the state machine (see the module docstring) --------------------------
    def _require_event_model(self, entry: tuple) -> None:
        if entry[0] == "ev" and self._tiered is None:
            raise ValueError(
                f"the log carries a {entry[2]!r} event but lifecycle tiering "
                "is disabled on this node; restart it with lifecycle= enabled"
            )

    def _apply(self, entry: tuple):
        """Fold one log entry into the state: the only code that moves the
        model, the gate, the dedup ledger, ``latest_ingest_ts`` and the
        migration ledger, whoever supplies the entry.

        Returns ``apply_observation``'s ``(action, applied)`` for an
        observation, ``None`` for an event.  Caller holds the ingest lock
        (or is the constructor), so entries apply in log order.
        """
        if entry[0] == "ev":
            __, __, kind, data = entry
            self._require_event_model(entry)
            self.model.with_model(lambda m: m.apply_event(kind, data))
            if kind == "migration_in":
                # The import ledger is server state the model does not own.
                mid, seq = str(data["mid"]), int(data["seq"])
                if seq > self._migration_applied.get(mid, 0):
                    self._migration_applied[mid] = seq
            return None
        __, __, record, key = entry
        if key is not None:
            self.ledger.add(key)
        if self._latest_ingest_ts is None or record.timestamp > self._latest_ingest_ts:
            self._latest_ingest_ts = record.timestamp
        return apply_observation(self.model, self.gate, record)

    def _commit(self, *entries: tuple) -> "dict | None":
        """Log the entries as one commit group, then apply each in order,
        then account for them.  Caller holds the ingest lock, which keeps
        WAL order identical to apply order.

        The one place an entry becomes durable and the one place a failed
        append is handled.  Log-before-apply is the crash-consistency rule
        for every kind: the ledger, the gate and the model only ever hold
        what the log can reproduce.  A group's single fsync acknowledges
        nothing early — no entry of it is applied, and no reply sent,
        before every line of the group is durable; when the append fails,
        none of the group was applied.  Returns the last entry's reply: the
        observation reply body, ``None`` for an event.
        """
        if self._wal is not None:
            try:
                self._wal.append_entries(entries)
            except WalAppendError as exc:
                # Durability is gone (full disk, I/O error): acknowledge
                # nothing further, flip to read-only degraded mode, keep
                # predictions serving.
                self._degraded_reason = str(exc)
                last = entries[-1]
                what = "observation" if last[0] == "obs" else f"{last[2]} event"
                raise _StorageUnavailable(
                    f"{what} not accepted, durable log unavailable: {exc}"
                ) from exc
        reply = None
        for entry in entries:
            reply = (
                self._apply(entry) if entry[0] == "ev" else self._apply_live(entry)
            )
        if (
            self.durable
            and self._observations_since_checkpoint >= self.checkpoint_interval
        ):
            # After the whole group: a checkpoint covers ``wal.last_seq``.
            self._checkpoint_locked()
        return reply

    def _apply_live(self, entry: tuple) -> dict:
        """Apply one committed observation with the effects only a serving
        process has: the drift window, the fallback means, the checkpoint
        cadence and the counters.  Returns the reply body."""
        record = entry[2]
        # Predict-then-observe: the pre-update prediction against the
        # arriving ground truth is the live accuracy signal (windowed
        # MAE/MRE/NPRE) — computed before the sample can teach the model.
        predicted = self.model.predict_known(record.user_id, record.service_id)
        action, applied = self._apply(entry)
        if (
            action in ("admit", "release")
            and predicted is not None
            and math.isfinite(predicted)
        ):
            # Clipped and quarantined values are suspect ground truth — they
            # must not count against the model in the drift window.
            self.drift.record(predicted, record.value)
        error = None
        for applied_record, sample_error in applied:
            self.fallback.observe(
                applied_record.user_id, applied_record.service_id, applied_record.value
            )
            error = sample_error
        self._observations_since_checkpoint += 1
        with self._stats_lock:
            self._observations_handled += 1
            if action == "quarantine":
                self._observations_quarantined += 1
        return {"sample_error": error, "action": action}

    # -- entity lifecycle ------------------------------------------------------
    def _revive_entries(self, user_id: int, service_id: int) -> list:
        """One ``revive_*`` entry per spilled party of an observation, in
        apply order, each carrying its full spill payload — recovery and
        standbys restore the entity from the logged payload, never from the
        (crash-time) spill file.  Caller holds the ingest lock.

        Both payloads are read before either revive is applied.  That is
        sound: a revive only ever writes rows of its own kind (the
        demotions it can trigger are same-side) and never the row of an
        entity that stays spilled, so the second party's row is the same
        before and after the first revive.
        """
        return self.model.with_model(
            lambda m: [
                ("ev", None, f"revive_{kind}",
                 {"id": ext_id, "p": m.revive_payload(kind, ext_id)})
                for kind, ext_id in m.pending_revivals(user_id, service_id)
            ]
        )

    def _apply_pressure(self, hot_users: int, hot_services: int, level: str) -> None:
        """Watchdog tighten callback: commit a capacity change."""
        data = {"hu": int(hot_users), "hs": int(hot_services), "level": level}
        with self._ingest_lock:
            try:
                self._commit(("ev", None, "pressure", data))
            except _StorageUnavailable:
                # Can't log the tier change durably -> it was not applied
                # (recovery would diverge); the watchdog has no caller to
                # tell, and read-only degradation refuses the next write.
                pass

    def _lifecycle_status(self) -> "dict | None":
        if self._tiered is None:
            return None
        status = self.model.with_model(lambda m: m.lifecycle_status())
        status["watchdog_running"] = (
            self._watchdog is not None and self._watchdog.running
        )
        return status

    # -- entity migration ------------------------------------------------------
    def _require_tiered(self) -> None:
        if self._tiered is None:
            raise BadRequest(
                "entity migration requires lifecycle tiering; start the "
                "server with lifecycle= enabled",
                code="migration_unsupported",
            )

    @staticmethod
    def _parse_entities(payload: dict, with_payload: bool = False) -> list:
        """The request's ``entities``: ``[kind, id]`` pairs, or ``[kind, id,
        payload]`` triples whose payload is in the canonical spill format."""
        entities = payload.get("entities")
        if not isinstance(entities, list) or not entities:
            raise BadRequest("field 'entities' must be a non-empty list")
        shape = "[kind, id, payload] triples" if with_payload else "[kind, id] pairs"
        parsed: list = []
        for entry in entities:
            try:
                kind, ext_id, *rest = entry
                if len(rest) != (1 if with_payload else 0):
                    raise ValueError(f"{len(rest) + 2} elements")
                kind, ext_id = str(kind), int(ext_id)
            except (TypeError, ValueError) as exc:
                raise BadRequest(f"entities must be {shape}") from exc
            valid = kind in ("user", "service") and ext_id >= 0
            if with_payload:
                entity_payload = rest[0]
                if not (
                    valid
                    and isinstance(entity_payload, dict)
                    and "row" in entity_payload
                    and "err" in entity_payload
                ):
                    raise BadRequest(f"bad entity payload for {kind} {ext_id}")
            elif not valid:
                raise BadRequest(f"bad entity {entry!r}")
            parsed.append([kind, ext_id, *rest])
        return parsed

    def _handle_migration_entities(self) -> dict:
        """``GET /migration/entities`` — the planner's discovery surface.

        Ids of every entity (hot and spilled) plus the sample-sharing
        edges the coordinator uses to pack co-located entities into the
        same batch (a split edge would drop the shared sample on import).
        """
        self._require_tiered()
        with self._acquire_ingest_lock():
            return self.model.with_model(
                lambda m: {
                    "users": m.entity_ids("user"),
                    "services": m.entity_ids("service"),
                    "edges": m.sample_edges(),
                }
            )

    def _handle_migration_export(self, payload: dict) -> dict:
        """``POST /migration/export`` — read-only batch export.

        Returns canonical spill-format payloads; ids this shard no longer
        knows are silently omitted (the coordinator treats them as already
        moved).  Nothing is mutated: the source keeps serving every
        exported entity until the coordinator's delete after the batch
        commits on the destination.
        """
        exported = self._export_known(payload)
        _MIGRATION_EXPORTS.inc(len(exported))
        return {"entities": exported}

    def _export_known(self, payload: dict) -> list:
        """``[kind, id, payload]`` for each requested entity this shard
        holds, in request order; nothing is mutated."""
        self._require_tiered()
        entities = self._parse_entities(payload)
        with self._acquire_ingest_lock():
            return self.model.with_model(
                lambda m: [
                    [kind, ext_id, m.export_payload(kind, ext_id)]
                    for kind, ext_id in entities
                    if m.holds_entity(kind, ext_id)
                ]
            )

    def _handle_migration_import(self, payload: dict) -> dict:
        """``POST /migration/import`` — idempotent, epoch-fenced batch import.

        Dedup by ``(mid, seq)``: a batch seq at or below the migration's
        high-water mark is acknowledged without re-applying (coordinator
        retries after a crash on either side are safe).  The batch is one
        committed ``migration_in`` entry (full payloads), so recovery and
        standbys replay the exact import.
        """
        self._require_tiered()
        self._check_write_allowed()
        mid = payload.get("mid")
        if not isinstance(mid, str) or not mid or len(mid) > 256:
            raise BadRequest(
                "field 'mid' must be a non-empty string of at most 256 "
                "characters",
                code="invalid_migration",
            )
        seq = _require(payload, "seq", int)
        if seq < 1:
            raise BadRequest("field 'seq' must be >= 1")
        items = self._parse_entities(payload, with_payload=True)
        with self._acquire_ingest_lock():
            if seq <= self._migration_applied.get(mid, 0):
                return {"applied": False, "imported": 0, "reason": "duplicate"}
            data = {"mid": mid, "seq": seq, "entities": items}
            self._commit(("ev", None, "migration_in", data))
        _MIGRATION_IMPORTS.inc(len(items))
        return {"applied": True, "imported": len(items)}

    def _handle_migration_delete(self, payload: dict) -> dict:
        """``POST /migration/delete`` — drop source copies after commit.

        Only entities this shard still knows are logged and removed, so a
        coordinator retry against an already-cleaned source appends no WAL
        event — keeping the source's log (and checkpoint position)
        identical to an uninterrupted run's.
        """
        self._require_tiered()
        self._check_write_allowed()
        entities = self._parse_entities(payload)
        with self._acquire_ingest_lock():
            present = self.model.with_model(
                lambda m: [
                    [kind, ext_id]
                    for kind, ext_id in entities
                    if m.holds_entity(kind, ext_id)
                ]
            )
            if not present:
                return {"removed": 0}
            self._commit(("ev", None, "migration_out", {"entities": present}))
        _MIGRATION_DELETES.inc(len(present))
        return {"removed": len(present)}

    def _handle_migration_probe(self, payload: dict) -> dict:
        """``POST /migration/probe`` — presence + content fingerprints.

        For each requested entity this shard knows, a blake2b digest of
        its canonical export payload.  The coordinator probes the
        destination before every import: fingerprint-equal means the batch
        already landed (skip the import, keeping the destination's WAL and
        import counters identical to an unkilled run); absent or different
        means export-and-import.
        """
        return {
            "entities": {
                f"{kind}:{ext_id}": hashlib.blake2b(
                    json.dumps(entity_payload, sort_keys=True).encode(),
                    digest_size=16,
                ).hexdigest()
                for kind, ext_id, entity_payload in self._export_known(payload)
            }
        }

    def _migration_status(self) -> dict:
        return {"applied": dict(sorted(self._migration_applied.items()))}

    def _admit(self, cost: int):
        """The admission slot for ``cost`` observations (a no-op context
        without admission control, or for an empty batch)."""
        if self.admission is None or not cost:
            return contextlib.nullcontext()
        return self.admission.admit(cost=float(cost))

    def _handle_observation(self, payload: dict) -> dict:
        self._check_write_allowed()
        record, key = self._parse_observation(payload)
        with self._admit(1), self._acquire_ingest_lock():
            return self._ingest_one(record, key)

    def _handle_observation_batch(self, payload: dict) -> dict:
        self._check_write_allowed()
        observations = payload.get("observations")
        if not isinstance(observations, list):
            raise BadRequest("field 'observations' must be a list")
        accepted = 0
        sample_errors: list[float] = []
        rejected: list[dict] = []
        # Admission is charged once for the whole batch (cost = item count):
        # a batch is one queue occupant but len(observations) tokens.
        with self._admit(len(observations)):
            for index, entry in enumerate(observations):
                if not isinstance(entry, dict):
                    with self._stats_lock:
                        self._observations_rejected += 1
                    rejected.append(
                        {"index": index, "error": "observation must be an object"}
                    )
                    continue
                try:
                    record, key = self._parse_observation(entry)
                    with self._acquire_ingest_lock():
                        result = self._ingest_one(record, key)
                except BadRequest as exc:
                    rejected.append({"index": index, "error": str(exc)})
                else:
                    accepted += 1
                    if result["sample_error"] is not None:
                        sample_errors.append(result["sample_error"])
        return {"accepted": accepted, "rejected": rejected, "sample_errors": sample_errors}

    def _predict_one(self, user_id: int, service_id: int) -> dict:
        """The degradation chain: model if healthy and informed, else means.

        A read changes nothing on any node: the model answers for whatever
        it holds, a spilled entity included (read through the spill store,
        see :mod:`repro.lifecycle.tiered`), and only the write path revives.
        """
        if self._model_healthy:
            value = self.model.predict_known(user_id, service_id)
            if value is not None:
                if math.isfinite(value):
                    with self._stats_lock:
                        self._predictions_served += 1
                    expected = self.model.expected_error(user_id, service_id)
                    _PREDICTIONS.labels(source="model").inc()
                    if math.isfinite(expected):
                        _PREDICTION_EXPECTED_ERROR.observe(expected)
                    return {
                        "prediction": value,
                        "source": "model",
                        "expected_error": expected,
                    }
                # A non-finite prediction means the factors are poisoned:
                # stop trusting the model until /health observes it finite.
                self._model_healthy = False
        result = self.fallback.predict(user_id, service_id)
        with self._stats_lock:
            self._predictions_served += 1
            self._degraded_predictions += 1
        _PREDICTIONS.labels(source=result.source).inc()
        return {
            "prediction": result.value,
            "source": result.source,
            "expected_error": result.expected_error,
        }

    def _handle_prediction(self, query: dict) -> dict:
        try:
            user_id = int(query["user_id"][0])
            service_id = int(query["service_id"][0])
        except (KeyError, ValueError, IndexError) as exc:
            raise BadRequest(
                "query must include integer user_id and service_id"
            ) from exc
        if user_id < 0 or service_id < 0:
            raise BadRequest("ids must be non-negative")
        response = {"user_id": user_id, "service_id": service_id}
        response.update(self._predict_one(user_id, service_id))
        return response

    def _predict_batch(
        self, user_id: int, service_ids: list[int]
    ) -> tuple[list[float], list[str]]:
        """Fused batch predict: one lock acquisition, one mat-vec for all
        cache misses, fallback chain per id that the model cannot answer.

        The shared core of the JSON ``/predictions/batch`` route and the
        binary ``PREDICT_BATCH`` opcode.  Unlike the single-prediction
        path, batch answers skip the per-pair expected-error histogram —
        the calibration signal stays on the single-GET path, keeping the
        ranking hot path at one credence read per *miss*, not per id.

        On a tiered shard the model answers for a spilled *user* from his
        stored row; spilled candidate *services* answer through the
        fallback chain until they are observed again — a ranking names one
        user but many services, and a payload decode per cold candidate is
        not a cost this path takes.
        """
        _BATCH_SIZE.observe(len(service_ids))
        if self._model_healthy:
            values, __ = self.model.predict_batch_known(
                user_id, service_ids, self._predict_cache
            )
        else:
            values = [None] * len(service_ids)
        sources: list[str] = [""] * len(service_ids)
        served: dict[str, int] = {}
        for index, value in enumerate(values):
            if value is not None and math.isfinite(value):
                source = "model"
            else:
                if value is not None:
                    # Poisoned factors: distrust the model for the rest of
                    # the batch too (non-finite values are never cached).
                    self._model_healthy = False
                result = self.fallback.predict(user_id, service_ids[index])
                values[index] = result.value
                source = result.source
            sources[index] = source
            served[source] = served.get(source, 0) + 1
        # One labels() lookup per source, not per id: a tiered ranking is
        # mostly fallbacks (its spilled candidates).
        for source, count in served.items():
            _PREDICTIONS.labels(source=source).inc(count)
        with self._stats_lock:
            self._predictions_served += len(service_ids)
            self._degraded_predictions += len(service_ids) - served.get("model", 0)
        return values, sources

    def _handle_prediction_batch(self, payload: dict) -> dict:
        user_id = _require(payload, "user_id", int)
        raw_ids = payload.get("service_ids")
        if not isinstance(raw_ids, list) or not raw_ids:
            raise BadRequest("field 'service_ids' must be a non-empty list")
        service_ids: list[int] = []
        for raw in raw_ids:
            try:
                service_id = int(raw)
            except (TypeError, ValueError) as exc:
                raise BadRequest("service_ids must be integers") from exc
            if user_id < 0 or service_id < 0:
                raise BadRequest("ids must be non-negative")
            service_ids.append(service_id)
        values, sources = self._predict_batch(user_id, service_ids)
        keys = [str(service_id) for service_id in service_ids]
        return {
            "user_id": user_id,
            "predictions": dict(zip(keys, values)),
            "sources": dict(zip(keys, sources)),
        }

    def _handle_credence(self, query: dict) -> dict:
        """``GET /credence?service_ids=1,2,3`` — per-service EMA error.

        The cluster layer homes each service's credence on one shard
        (rendezvous placement) and the router merges these values into
        ranked-candidate responses.  A pure read: unknown ids report the
        model's ``init_error`` and nothing is registered or revived.
        """
        try:
            raw = query["service_ids"][0]
            service_ids = [int(part) for part in raw.split(",") if part != ""]
        except (KeyError, IndexError, ValueError) as exc:
            raise BadRequest(
                "query must include service_ids as comma-separated integers"
            ) from exc
        values = self._credence(service_ids)
        return {"credence": {str(sid): v for sid, v in zip(service_ids, values)}}

    def _credence(self, service_ids: list[int]) -> list[float]:
        """Credence per id, in order: the shared core of ``GET /credence``
        and the binary ``CREDENCE`` opcode."""
        if not service_ids:
            raise BadRequest("service_ids must be non-empty")
        if min(service_ids) < 0:
            raise BadRequest("ids must be non-negative")
        return self.model.with_model(
            lambda m: [m.service_credence(sid) for sid in service_ids]
        )

    # -- binary transport ------------------------------------------------------
    def _note_internal_error(self) -> None:
        """A request on either transport hit the 500 boundary."""
        with self._stats_lock:
            self._internal_errors += 1

    def _frame_predict_batch(self, user_id: int, service_ids: list[int]):
        """``PREDICT_BATCH`` opcode: the fused batch predict, as aligned
        ``(values, sources)``."""
        if not service_ids:
            raise BadRequest("service_ids must be non-empty")
        if user_id < 0 or min(service_ids) < 0:
            raise BadRequest("ids must be non-negative")
        return self._predict_batch(user_id, service_ids)

    def _arrival(self, handler):
        """A data-plane entry: the whole request — not only its model calls
        — is an arrival the background trainer yields to.  An observe
        fsyncs its WAL entry (releasing the interpreter lock) *before* its
        first model call; without the mark the trainer would start a slice
        during the fsync and the observe would then wait for it."""

        def entry(*args):
            with self.model.serving():
                return handler(*args)

        return entry

    def _frames(self) -> dict:
        """The binary surface
        (:class:`~repro.server.binary.BinaryTransportServer` handlers):
        each opcode is answered by the method behind the JSON route of the
        same meaning — same validation, fencing, admission, WAL and gate —
        looked up on ``self`` per request, like :meth:`_routes`."""
        arrival = self._arrival
        return {
            OP_PREDICT_BATCH: arrival(lambda u, ids: self._frame_predict_batch(u, ids)),
            OP_OBSERVE: arrival(lambda b: self._handle_observation(b)),
            OP_OBSERVE_BATCH: arrival(lambda b: self._handle_observation_batch(b)),
            OP_CREDENCE: arrival(lambda ids: self._credence(ids)),
        }

    def _handle_status(self) -> dict:
        binary = self.binary_address
        with self._stats_lock:
            counters = {
                "observations_handled": self._observations_handled,
                "observations_rejected": self._observations_rejected,
                "predictions_served": self._predictions_served,
                "degraded_predictions": self._degraded_predictions,
                "internal_errors": self._internal_errors,
                "checkpoints_written": self._checkpoints_written,
                "last_checkpoint_seq": self._last_checkpoint_seq,
            }
        counters.update(
            {
                "updates_applied": self.model.updates_applied,
                "stored_samples": self.model.n_stored_samples,
                "background_replays": (
                    self.trainer.replays_applied if self.trainer is not None else 0
                ),
                "trainer": self._trainer_health(),
                "durability": {
                    "enabled": self.durable,
                    "wal_last_seq": self._wal.last_seq if self.durable else None,
                    "wal_segments": self._wal.segment_count() if self.durable else None,
                    "recovery": self.recovery,
                    "read_only": self._degraded_reason,
                },
                "robustness": self._robustness_status(),
                "replication": self._replication_status(),
                "lifecycle": self._lifecycle_status(),
                "migration": self._migration_status(),
                "transport": {
                    "binary_address": list(binary) if binary is not None else None,
                },
                "predict_cache": (
                    self._predict_cache.stats()
                    if self._predict_cache is not None
                    else None
                ),
            }
        )
        return counters

    def _robustness_status(self) -> dict:
        with self._stats_lock:
            deduplicated = self._observations_deduplicated
            quarantined = self._observations_quarantined
        status: dict = {
            "gate": None,
            "dedup": {"ledger_size": len(self.ledger), "deduplicated": deduplicated},
            "timestamp_policy": (
                {
                    "max_future_skew": self.timestamp_policy.max_future_skew,
                    "max_staleness": self.timestamp_policy.max_staleness,
                }
                if self.timestamp_policy is not None
                else None
            ),
            "admission": None,
        }
        if self.gate is not None:
            status["gate"] = dict(self.gate.counts)
            status["gate"]["quarantine_size"] = self.gate.quarantine_size
            status["gate"]["observations_quarantined"] = quarantined
        if self.admission is not None:
            status["admission"] = dict(self.admission.counts)
            status["admission"]["pending"] = self.admission.pending
        return status

    def _trainer_health(self) -> dict:
        trainer = self.trainer
        if self.supervisor is not None:
            health = self.supervisor.health()
        else:
            failure = trainer.failure if trainer is not None else None
            health = {
                "running": trainer is not None and trainer.running,
                "supervised": False,
                "crashes": trainer.crash_count if trainer is not None else 0,
                "restarts": 0,
                "last_failure": (
                    f"{type(failure).__name__}: {failure}"
                    if failure is not None
                    else None
                ),
            }
        # Replay scheduling: the trainer yields to requests, so a busy
        # stream shows here as a growing lag and a moving yield count.
        lag = trainer.replay_lag_seconds() if trainer is not None else math.nan
        health["replay_lag_s"] = lag if math.isfinite(lag) else None
        health["yields"] = trainer.yields if trainer is not None else 0
        return health

    def _handle_health(self) -> tuple[int, dict]:
        """Liveness/readiness: 200 when every applicable check passes.

        ``model_finite`` re-evaluates the factors, so a model marked
        unhealthy by a poisoned prediction recovers its "healthy" flag here
        once background training (or entity churn) restores finiteness.
        """
        checks: dict[str, bool] = {"model_finite": self.model.is_finite()}
        self._model_healthy = checks["model_finite"]
        if self.durable:
            checks["wal_writable"] = self._wal.writable
        trainer = self._trainer_health()
        if self.trainer is not None:
            # A crashed-but-supervised trainer is "alive" in the readiness
            # sense only once it is actually running again; the supervisor
            # existing means it *will* come back, which /status shows.
            checks["trainer_alive"] = bool(trainer["running"])
        ready = all(checks.values())
        body = {
            "status": "ok" if ready else "unavailable",
            "checks": checks,
            "trainer": trainer,
            "recovery": self.recovery,
        }
        return (200 if ready else 503), body

    def _handle_replication_status(self) -> dict:
        return self._replication_status() or {
            "role": self.role,
            "epoch": self.epoch,
            "fenced": False,
            "replicated": False,
        }

    def _routes(self) -> dict:
        """The JSON/HTTP surface (:class:`~repro.server.http.HttpListener`
        routes): ``q`` is a GET's parsed query, ``b`` a POST's JSON
        object.  Each entry looks its handler up on ``self`` per request."""
        arrival = self._arrival
        return {
            ("GET", "/predictions"): arrival(lambda q: self._handle_prediction(q)),
            ("GET", "/status"): lambda q: self._handle_status(),
            ("GET", "/health"): lambda q: self._handle_health(),
            ("GET", "/metrics"): lambda q: self.metrics.render(),
            ("GET", "/credence"): arrival(lambda q: self._handle_credence(q)),
            ("GET", "/migration/entities"): lambda q: self._handle_migration_entities(),
            ("GET", "/replication/wal"): lambda q: self._handle_replication_wal(q),
            ("GET", "/replication/status"): lambda q: self._handle_replication_status(),
            ("POST", "/observations"): arrival(lambda b: self._handle_observation(b)),
            ("POST", "/observations/batch"): arrival(
                lambda b: self._handle_observation_batch(b)
            ),
            ("POST", "/predictions/batch"): arrival(
                lambda b: self._handle_prediction_batch(b)
            ),
            ("POST", "/migration/export"): lambda b: self._handle_migration_export(b),
            ("POST", "/migration/import"): lambda b: self._handle_migration_import(b),
            ("POST", "/migration/delete"): lambda b: self._handle_migration_delete(b),
            ("POST", "/migration/probe"): lambda b: self._handle_migration_probe(b),
        }
