"""Fault sources for the chaos drills: what misbehaves, not what is proved.

Runtime adaptation consults the prediction service precisely when the
environment is misbehaving, so the serving stack is validated under the
same conditions.  This module holds the things that misbehave:

* :class:`FaultInjector` wraps any record stream with configurable drop /
  duplicate / reorder / corrupt-value / stall / poison faults, drawn from a
  seeded RNG so every run is reproducible; :func:`drive_client` feeds its
  event stream to a server the way a lossy collector would.
* :class:`FaultyReplicaLink` puts partition / packet-loss / slow-link
  faults between a standby and its primary.
* :func:`run_flood` hammers the observation endpoint from many threads
  while a prober keeps requesting predictions.
* :func:`check_metrics_exposition` is what every drill holds a mid-fault
  ``/metrics`` scrape to (:data:`CORE_METRIC_FAMILIES`).

The drills that use them — the fleet, the fault schedule and the oracle
that proves "faulted == never faulted" — are the scenarios of
:mod:`repro.simulation.drills`, one line each:

==================  =========================================================
``crash-recovery``  :class:`FaultInjector` stream, kill -9, restart: bit-exact
``poison-flood``    poison faults bounce with 400, :func:`run_flood` is shed
``failover``        :class:`FaultyReplicaLink` partition, primary killed: the
                    promoted standby equals a never-failed server
``memory-pressure`` allocation ceiling: degrade, never die, restart bit-exact
``shard-kill``      one shard killed behind the router: blast radius bounded
``migration-kill``  source / destination / router killed mid-migration
``migration-live``  3 -> 4 rebalance under readers: error stream unchanged
``memory-cap``      bounded model survives the RLIMIT_AS that kills unbounded
==================  =========================================================
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.datasets.schema import QoSRecord
from repro.observability import parse_prometheus_text
from repro.utils.rng import spawn_rng

#: Metric families the chaos drill requires a recovered server to expose:
#: ingest and replay actually ran, predictions were served, durability
#: machinery fired, the trainer supervisor is accounted for, the windowed
#: accuracy monitor is registered, and the robustness layer (outlier gate,
#: dedup ledger, admission control) is wired in — those families register
#: at import time and render even at zero, so their absence means the
#: subsystem fell off the data plane.
CORE_METRIC_FAMILIES: tuple[str, ...] = (
    "qos_amf_observations_total",
    "qos_amf_replay_steps_total",
    "qos_predictions_total",
    "qos_wal_appends_total",
    "qos_checkpoint_saves_total",
    "qos_background_crashes_total",
    "qos_background_yields_total",
    "qos_stream_mae",
    "qos_stream_mre",
    "qos_stream_npre",
    "qos_gate_admitted_total",
    "qos_gate_clipped_total",
    "qos_gate_quarantined_total",
    "qos_gate_released_total",
    "qos_gate_evicted_total",
    "qos_gate_score",
    "qos_gate_quarantine_size",
    "qos_ingest_deduped_total",
    "qos_ingest_stale_total",
    "qos_requests_shed_total",
    "qos_ingest_queue_depth",
    "qos_wal_append_errors_total",
    "qos_replication_epoch",
    "qos_replication_lag_records",
    "qos_replication_records_shipped_total",
    "qos_replication_records_applied_total",
    "qos_replication_fetch_errors_total",
    "qos_replication_promotions_total",
    "qos_replication_stale_epoch_total",
    "qos_predict_cache_hits_total",
    "qos_predict_cache_misses_total",
    "qos_predict_cache_evictions_total",
    "qos_predict_cache_size",
    "qos_predict_batch_size",
    "qos_transport_requests_total",
    "qos_transport_mode",
    "qos_lifecycle_resident_bytes",
    "qos_lifecycle_hot_entities",
    "qos_lifecycle_spilled_entities",
    "qos_lifecycle_demotions_total",
    "qos_lifecycle_revivals_total",
    "qos_lifecycle_cold_reads_total",
    "qos_lifecycle_pressure_level",
    "qos_lifecycle_pressure_events_total",
    "qos_lifecycle_spill_commits_total",
    "qos_lifecycle_spill_commit_seconds",
    "qos_migration_exports_total",
    "qos_migration_imports_total",
    "qos_migration_deletes_total",
)


def check_metrics_exposition(text: str) -> "tuple[bool, dict]":
    """Validate a ``/metrics`` scrape for the chaos drill.

    Strict-parses the exposition text and checks every
    :data:`CORE_METRIC_FAMILIES` entry is present.  Returns ``(ok, detail)``
    where ``detail`` reports the family count and whatever went wrong.
    """
    try:
        families = parse_prometheus_text(text)
    except ValueError as exc:
        return False, {"parse_error": str(exc)}
    missing = [name for name in CORE_METRIC_FAMILIES if name not in families]
    detail = {"families": len(families), "missing": missing}
    return not missing, detail


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Per-record fault probabilities for a :class:`FaultInjector`.

    Attributes:
        drop_rate:       probability a record is silently lost.
        duplicate_rate:  probability a record is delivered twice.
        reorder_rate:    probability a record is held back and delivered
                         after its successor (pairwise swap).
        corrupt_rate:    probability a record's value is corrupted.
        corrupt_factor:  corrupted value = ``value * corrupt_factor`` (still
                         finite — the model must clamp, not crash).
        stall_rate:      probability a stall event precedes a record.
        stall_seconds:   how long drivers should pause on a stall event.
        poison_rate:     probability a record is replaced by a *poisoned*
                         wire payload (NaN / ±inf / negative value) that no
                         valid :class:`QoSRecord` can represent — the API
                         boundary must 400 it, never the WAL or the model.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_factor: float = 1000.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.01
    poison_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "duplicate_rate",
            "reorder_rate",
            "corrupt_rate",
            "stall_rate",
            "poison_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.stall_seconds < 0:
            raise ValueError(
                f"stall_seconds must be non-negative, got {self.stall_seconds}"
            )


#: Poisoned wire values cycled through by ``poison_rate`` faults.  These
#: cannot live in a :class:`QoSRecord` (its validation refuses them), so
#: the injector carries them as raw payloads; the stdlib's JSON emits and
#: parses ``NaN``/``Infinity``, so they really do cross the wire.
_POISON_VALUES: tuple[float, ...] = (
    float("nan"),
    float("inf"),
    float("-inf"),
    -1.0,
)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One delivery event: a record (or ``None`` for a pure stall) + the
    fault kinds applied to it.  Poison events carry no record — ``payload``
    is the raw wire dict to POST as-is."""

    record: "QoSRecord | None"
    faults: tuple[str, ...] = ()
    payload: "dict | None" = None


class FaultInjector:
    """Apply a :class:`FaultConfig` to a record stream, reproducibly.

    Iterate :meth:`events` for the full event stream (including stalls),
    or the injector itself for just the delivered records.  ``counts``
    tallies injected faults by kind after iteration.
    """

    def __init__(
        self,
        records: Iterable[QoSRecord],
        config: "FaultConfig | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self._records = list(records)
        self.config = config if config is not None else FaultConfig()
        self._rng = spawn_rng(rng)
        self.counts: dict[str, int] = {
            "delivered": 0,
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "corrupted": 0,
            "stalled": 0,
            "poisoned": 0,
        }

    def _corrupt(self, record: QoSRecord) -> QoSRecord:
        return QoSRecord(
            timestamp=record.timestamp,
            user_id=record.user_id,
            service_id=record.service_id,
            value=record.value * self.config.corrupt_factor,
            slice_id=record.slice_id,
        )

    def events(self) -> Iterator[FaultEvent]:
        config = self.config
        rng = self._rng
        held: "QoSRecord | None" = None
        held_faults: tuple[str, ...] = ()

        def deliver(record: QoSRecord, faults: tuple[str, ...]) -> FaultEvent:
            self.counts["delivered"] += 1
            return FaultEvent(record, faults)

        for record in self._records:
            if config.stall_rate and rng.random() < config.stall_rate:
                self.counts["stalled"] += 1
                yield FaultEvent(None, ("stall",))
            if config.drop_rate and rng.random() < config.drop_rate:
                self.counts["dropped"] += 1
                continue
            if config.poison_rate and rng.random() < config.poison_rate:
                # The collector destroyed the measurement: what goes over
                # the wire is garbage that must bounce off the API boundary.
                poison = _POISON_VALUES[
                    int(rng.integers(len(_POISON_VALUES)))
                ]
                self.counts["poisoned"] += 1
                yield FaultEvent(
                    None,
                    ("poison",),
                    payload={
                        "timestamp": record.timestamp,
                        "user_id": record.user_id,
                        "service_id": record.service_id,
                        "value": poison,
                    },
                )
                continue
            faults: tuple[str, ...] = ()
            if config.corrupt_rate and rng.random() < config.corrupt_rate:
                record = self._corrupt(record)
                faults += ("corrupt",)
                self.counts["corrupted"] += 1
            if held is None and config.reorder_rate and rng.random() < config.reorder_rate:
                held, held_faults = record, faults + ("reorder",)
                self.counts["reordered"] += 1
                continue
            yield deliver(record, faults)
            if held is not None:
                yield deliver(held, held_faults)
                held = None
            elif config.duplicate_rate and rng.random() < config.duplicate_rate:
                self.counts["duplicated"] += 1
                yield deliver(record, faults + ("duplicate",))
        if held is not None:
            yield deliver(held, held_faults)

    def __iter__(self) -> Iterator[QoSRecord]:
        return (event.record for event in self.events() if event.record is not None)


def drive_client(
    client,
    injector: FaultInjector,
    idempotency_prefix: "str | None" = None,
) -> dict:
    """Feed an injector's event stream into a server through its client.

    Observations the server rejects (e.g. values corrupted beyond record
    validation) are counted, not raised — a lossy collector keeps going.
    Poison events POST their raw payload as-is; a server that *accepts* one
    is broken, which ``poison_accepted`` surfaces.  With
    ``idempotency_prefix`` set, each delivery carries a unique idempotency
    key (``"<prefix>:<n>"``), switching the client into its retrying
    at-least-once mode — deliveries shed by admission control are then
    retried (honoring ``Retry-After``) instead of dropped.  Returns
    ``{"reported": n, "rejected": n, "stalls": n, "poisoned": n,
    "poison_accepted": n}``.
    """
    from repro.server.client import PredictionServiceError
    from repro.simulation.drills import feed

    reported = rejected = stalls = poisoned = poison_accepted = 0
    delivery = 0
    for event in injector.events():
        if event.payload is not None:
            poisoned += 1
            try:
                client._request(
                    "POST", "/observations", event.payload, idempotent=False
                )
                poison_accepted += 1
            except PredictionServiceError:
                pass
            continue
        if event.record is None:
            stalls += 1
            time.sleep(injector.config.stall_seconds)
            continue
        record = event.record
        delivery += 1
        key = (
            f"{idempotency_prefix}:{delivery}"
            if idempotency_prefix is not None
            else None
        )
        try:
            feed(client, [record], [key])
            reported += 1
        except PredictionServiceError:
            rejected += 1
    return {
        "reported": reported,
        "rejected": rejected,
        "stalls": stalls,
        "poisoned": poisoned,
        "poison_accepted": poison_accepted,
    }


def run_flood(
    address: "tuple[str, int]",
    records: "list[QoSRecord]",
    threads: int = 4,
    predict_pairs: "list[tuple[int, int]] | None" = None,
) -> dict:
    """Hammer a server's observation endpoint from many threads at once.

    The overload drill: split ``records`` round-robin across ``threads``
    non-retrying clients posting as fast as they can, while a prober thread
    keeps requesting predictions.  With admission control on, the server
    should shed the excess with 429/503 + ``Retry-After`` — and the prober
    should see *zero* failures, because predictions are never shed.

    Returns tallies: ``accepted``, ``rate_limited`` (429), ``overloaded``
    (503), ``rejected`` (other 4xx), ``errors`` (transport), ``retry_after_hints``
    (shed responses that carried a usable hint), ``predictions_ok`` /
    ``predictions_failed``.
    """
    import threading

    from repro.server.client import (
        PredictionClient,
        RetryableServiceError,
        TerminalServiceError,
    )
    from repro.simulation.drills import feed

    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    shards = [records[i::threads] for i in range(threads)]
    tallies = [
        {
            "accepted": 0,
            "rate_limited": 0,
            "overloaded": 0,
            "rejected": 0,
            "errors": 0,
            "retry_after_hints": 0,
        }
        for __ in range(threads)
    ]

    def flood_worker(shard: "list[QoSRecord]", tally: dict) -> None:
        client = PredictionClient(address, retries=0)
        for record in shard:
            try:
                feed(client, [record])
                tally["accepted"] += 1
            except RetryableServiceError as exc:
                status = getattr(exc, "status", None)
                if status == 429:
                    tally["rate_limited"] += 1
                elif status == 503:
                    tally["overloaded"] += 1
                else:
                    tally["errors"] += 1
                if getattr(exc, "retry_after", None) is not None:
                    tally["retry_after_hints"] += 1
            except TerminalServiceError:
                tally["rejected"] += 1

    stop_probing = threading.Event()
    probe_tally = {"predictions_ok": 0, "predictions_failed": 0}

    def probe_worker() -> None:
        client = PredictionClient(address, retries=0)
        pairs = predict_pairs or [(0, 0)]
        index = 0
        while not stop_probing.is_set():
            user_id, service_id = pairs[index % len(pairs)]
            index += 1
            try:
                client.predict(user_id, service_id)
                probe_tally["predictions_ok"] += 1
            except Exception:  # noqa: BLE001 — any failure counts against the drill
                probe_tally["predictions_failed"] += 1
            time.sleep(0.001)

    workers = [
        threading.Thread(target=flood_worker, args=(shard, tally), daemon=True)
        for shard, tally in zip(shards, tallies)
    ]
    prober = threading.Thread(target=probe_worker, daemon=True)
    prober.start()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    stop_probing.set()
    prober.join(timeout=5.0)

    outcome = {key: sum(tally[key] for tally in tallies) for key in tallies[0]}
    outcome.update(probe_tally)
    outcome["shed"] = outcome["rate_limited"] + outcome["overloaded"]
    return outcome


@dataclass(frozen=True, slots=True)
class LinkFaultConfig:
    """Fault profile for the replication link between two replicas.

    Attributes:
        loss_rate:     probability one pull attempt is lost in transit
                       (the fetch raises as if the packet never arrived).
        delay_seconds: added one-way latency per successful pull (a slow
                       WAN link; inflates replication lag without losing
                       anything).
        partitioned:   start with the link down; :meth:`FaultyReplicaLink
                       .heal` restores it.
    """

    loss_rate: float = 0.0
    delay_seconds: float = 0.0
    partitioned: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate <= 1.0):
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )


class FaultyReplicaLink:
    """Wrap a replica link with partition / packet-loss / slow-link faults.

    Drop-in for :class:`repro.server.replication.HttpReplicaLink` (it only
    needs ``fetch``), so the standby's replicator pulls through the fault
    layer without knowing it.  A partitioned or lossy fetch raises
    :class:`OSError` — indistinguishable, by design, from the primary being
    dead, which is exactly the ambiguity a real standby faces.  ``counts``
    tallies what the link did; :meth:`partition` / :meth:`heal` flip the
    partition at runtime (thread-safe: the replicator thread reads the
    flag while the chaos harness writes it).
    """

    def __init__(
        self,
        inner,
        config: "LinkFaultConfig | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.inner = inner
        self.config = config if config is not None else LinkFaultConfig()
        self._rng = spawn_rng(rng)
        self._partitioned = self.config.partitioned
        self.counts: dict[str, int] = {
            "fetches": 0,
            "delivered": 0,
            "lost": 0,
            "blocked": 0,
            "delayed": 0,
        }

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    def partition(self) -> None:
        """Sever the link: every fetch fails until :meth:`heal`."""
        self._partitioned = True

    def heal(self) -> None:
        self._partitioned = False

    def fetch(self, after_seq: int, limit: int) -> dict:
        self.counts["fetches"] += 1
        if self._partitioned:
            self.counts["blocked"] += 1
            raise OSError("replication link partitioned")
        if self.config.loss_rate and self._rng.random() < self.config.loss_rate:
            self.counts["lost"] += 1
            raise OSError("replication pull lost in transit")
        if self.config.delay_seconds:
            self.counts["delayed"] += 1
            time.sleep(self.config.delay_seconds)
        batch = self.inner.fetch(after_seq, limit)
        self.counts["delivered"] += 1
        return batch

