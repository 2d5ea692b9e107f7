"""Fault injection for the serving stack: hostile streams and mid-run crashes.

Runtime adaptation consults the prediction service precisely when the
environment is misbehaving, so the serving stack must be validated under
the same conditions: lossy collectors (dropped samples), at-least-once
delivery (duplicates), out-of-order arrival, corrupted measurements, stalls
— and the server process itself dying mid-stream.

Three tools:

* :class:`FaultInjector` wraps any record stream with configurable drop /
  duplicate / reorder / corrupt-value / stall faults, drawn from a seeded
  RNG so every run is reproducible.  Fault counts are tallied per kind.
* :func:`run_crash_recovery` drives a durable
  :class:`~repro.server.app.PredictionServer` over HTTP, kills it mid-stream
  (no final checkpoint — the state a ``kill -9`` leaves), restarts it from
  checkpoint + WAL tail, finishes the stream, and compares the recovered
  model *sample-for-sample* against an uninterrupted baseline: same
  ``updates_applied``, bit-identical factor matrices.
* :func:`run_failover` drives a primary/standby pair
  (:mod:`repro.server.replication`) through a partition of the replication
  link, a ``kill -9`` of the primary mid-stream, auto-promotion of the
  standby via the epoch CAS, client failover onto the new primary, and a
  fencing probe against the revived old primary — then diffs the promoted
  standby against a never-failed baseline (factors, gate, dedup ledger,
  windowed accuracy, checkpoint digest).  :class:`FaultyReplicaLink`
  injects the partition / packet-loss / slow-link faults between replicas.
* :func:`run_memory_pressure` squeezes a hot/cold-tiered server under a
  fault-injected allocation ceiling and proves the degradation contract:
  caps tighten, cold-entity revive reads shed with a structured 429,
  hot-entity predictions keep answering, and a ``kill -9`` restart
  reproduces the squeezed state bit-exactly from checkpoint + WAL.

Used by ``tests/test_recovery.py``, ``tests/test_replication.py``,
``tests/test_lifecycle.py`` and ``scripts/chaos_check.py``.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AMFConfig
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
    "qos_lifecycle_cold_reads_shed_total",
    "qos_lifecycle_pressure_level",
    "qos_lifecycle_pressure_events_total",
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
    sleep_on_stall: bool = True,
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
            if sleep_on_stall:
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
            client.report_observation(
                record.user_id,
                record.service_id,
                record.value,
                record.timestamp,
                idempotency_key=key,
            )
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


@dataclass
class RecoveryReport:
    """Outcome of :func:`run_crash_recovery`.

    ``matches`` covers model-state equality only; ``metrics_ok`` reports
    whether the recovered server's ``/metrics`` scrape parsed as valid
    Prometheus exposition and contained every :data:`CORE_METRIC_FAMILIES`
    entry (always ``True`` if the scrape was skipped).
    """

    matches: bool
    detail: dict = field(default_factory=dict)
    metrics_ok: bool = True

    def summary(self) -> str:
        lines = [f"recovery {'MATCHES' if self.matches else 'DIVERGES from'} baseline"]
        lines.append(
            f"metrics exposition {'OK' if self.metrics_ok else 'INVALID'}"
        )
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _snapshot(server) -> dict:
    state = {
        "updates_applied": server.model.updates_applied,
        "stored_samples": server.model.n_stored_samples,
        "user_factors": server.model.user_factors(),
        "service_factors": server.model.service_factors(),
        "gate": None,
    }
    gate = getattr(server, "gate", None)
    if gate is not None:
        state["gate"] = {"state": gate.state_dict(), "counts": dict(gate.counts)}
    return state


def run_crash_recovery(
    records: "list[QoSRecord]",
    crash_after: int,
    data_dir: str,
    config: "AMFConfig | None" = None,
    rng: int = 0,
    checkpoint_interval: int = 50,
    faults: "FaultConfig | None" = None,
    server_kwargs: "dict | None" = None,
    baseline_data_dir: "str | None" = None,
) -> RecoveryReport:
    """Kill a durable server mid-stream, recover it, and diff against an
    uninterrupted baseline.

    Both runs use ``background_replay=False`` so the model state is a
    deterministic function of the observation sequence — which is exactly
    what makes "recovered == uninterrupted" a checkable equality rather
    than a statistical claim.  ``faults`` optionally mangles the stream
    first (both runs then see the *same* mangled stream).

    ``server_kwargs`` is forwarded to every :class:`PredictionServer` in
    the drill (crashed, recovered, baseline) — pass ``gate=``/
    ``timestamp_policy=`` etc. to drill the robustness layer; the gate
    snapshot (full state + decision counts) then joins the equality check,
    proving the recovered gate reproduces the pre-crash admit/clip/
    quarantine decisions.  ``baseline_data_dir`` makes the baseline run
    durable too and compares the final checkpoint *contents* of both runs
    (:func:`repro.core.serialization.archive_digest` — zip-member bytes,
    ignoring archive timestamps): equal digests mean the crash left no
    trace at all in the persisted state.
    """
    from repro.core.serialization import archive_digest
    from repro.server.app import PredictionServer
    from repro.server.client import PredictionClient
    from repro.server.wal import CheckpointStore

    if not (0 <= crash_after <= len(records)):
        raise ValueError(
            f"crash_after must be within [0, {len(records)}], got {crash_after}"
        )
    if faults is not None:
        records = list(FaultInjector(records, faults, rng=rng))
        crash_after = min(crash_after, len(records))

    def post(client: "PredictionClient", batch: "list[QoSRecord]") -> None:
        for record in batch:
            client.report_observation(
                record.user_id, record.service_id, record.value, record.timestamp
            )

    server_args = dict(
        config=config,
        rng=rng,
        background_replay=False,
        checkpoint_interval=checkpoint_interval,
    )
    if server_kwargs:
        server_args.update(server_kwargs)

    # Phase 1: serve until the crash point, then die without a checkpoint.
    server = PredictionServer(data_dir=data_dir, **server_args)
    server.start()
    post(PredictionClient(server.address), records[:crash_after])
    server.kill()

    # Phase 2: a new process-equivalent recovers from checkpoint + WAL tail
    # and finishes the stream.
    recovered = PredictionServer(data_dir=data_dir, **server_args)
    recovery_info = dict(recovered.recovery)
    recovered.start()
    recovered_client = PredictionClient(recovered.address)
    post(recovered_client, records[crash_after:])
    # Exercise the read path so prediction metrics accumulate, then scrape
    # /metrics from the still-recovering server — the drill validates the
    # exposition exactly where an operator's monitoring would hit it.
    if records:
        sample = records[0]
        recovered_client.predict(sample.user_id, sample.service_id)
    metrics_ok, metrics_detail = check_metrics_exposition(
        recovered_client.metrics()
    )
    recovered_state = _snapshot(recovered)
    recovered.stop()

    # Baseline: same stream, same seed, never interrupted.  Durable only
    # when checkpoint contents are being compared.  The baseline issues the
    # same read the recovered server answered above: with tiering enabled a
    # read can *revive* a cold entity (a deterministic state mutation), so
    # the equality check requires both servers to see the same read
    # sequence, not just the same writes.
    baseline = PredictionServer(data_dir=baseline_data_dir, **server_args)
    baseline.start()
    baseline_client = PredictionClient(baseline.address)
    post(baseline_client, records)
    if records:
        sample = records[0]
        baseline_client.predict(sample.user_id, sample.service_id)
    baseline_state = _snapshot(baseline)
    baseline.stop()

    mismatches = []
    for key in ("updates_applied", "stored_samples"):
        if recovered_state[key] != baseline_state[key]:
            mismatches.append(
                f"{key}: recovered={recovered_state[key]} baseline={baseline_state[key]}"
            )
    for key in ("user_factors", "service_factors"):
        if recovered_state[key].shape != baseline_state[key].shape:
            mismatches.append(
                f"{key}: shape {recovered_state[key].shape} vs "
                f"{baseline_state[key].shape}"
            )
        elif not np.array_equal(recovered_state[key], baseline_state[key]):
            delta = float(np.max(np.abs(recovered_state[key] - baseline_state[key])))
            mismatches.append(f"{key}: max abs divergence {delta:.3e}")
    if recovered_state["gate"] != baseline_state["gate"]:
        mismatches.append("gate: recovered state diverges from baseline")
    checkpoint_digests = None
    if baseline_data_dir is not None:
        recovered_ckpt = CheckpointStore(data_dir).path
        baseline_ckpt = CheckpointStore(baseline_data_dir).path
        checkpoint_digests = {
            "recovered": archive_digest(recovered_ckpt),
            "baseline": archive_digest(baseline_ckpt),
        }
        if checkpoint_digests["recovered"] != checkpoint_digests["baseline"]:
            mismatches.append(
                "checkpoint: recovered and baseline archives differ "
                f"({checkpoint_digests['recovered'][:12]} vs "
                f"{checkpoint_digests['baseline'][:12]})"
            )
    detail = {
        "records": len(records),
        "crash_after": crash_after,
        "recovery": recovery_info,
        "updates_applied": baseline_state["updates_applied"],
        "mismatches": mismatches,
        "metrics": metrics_detail,
    }
    if recovered_state["gate"] is not None:
        detail["gate_counts"] = recovered_state["gate"]["counts"]
    if checkpoint_digests is not None:
        detail["checkpoint_digests"] = checkpoint_digests
    return RecoveryReport(
        matches=not mismatches,
        metrics_ok=metrics_ok,
        detail=detail,
    )


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
                client.report_observation(
                    record.user_id, record.service_id, record.value, record.timestamp
                )
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


@dataclass
class FailoverReport:
    """Outcome of :func:`run_failover`.

    ``matches`` is the drill verdict: the promoted standby is
    indistinguishable from a server that never failed (state, accuracy
    window, checkpoint digest), promotion won a strictly higher epoch, the
    deposed primary is fenced, and the at-least-once retry across the
    promotion deduplicated.  ``time_to_promote`` is seconds from the
    primary's death to the standby serving as primary.
    """

    matches: bool
    detail: dict = field(default_factory=dict)
    metrics_ok: bool = True
    time_to_promote: float = float("nan")

    def summary(self) -> str:
        lines = [
            "failover "
            + ("MATCHES" if self.matches else "DIVERGES from")
            + " never-failed baseline"
        ]
        lines.append(
            f"metrics exposition {'OK' if self.metrics_ok else 'INVALID'}"
        )
        lines.append(f"time to promote: {self.time_to_promote:.3f}s")
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _ha_snapshot(server) -> dict:
    state = _snapshot(server)
    state["drift"] = server.drift.snapshot()
    state["ledger"] = server.ledger.state_dict()
    return state


def run_failover(
    records: "list[QoSRecord]",
    kill_after: int,
    primary_dir: str,
    standby_dir: str,
    baseline_dir: str,
    epoch_store: str,
    config: "AMFConfig | None" = None,
    rng: int = 0,
    checkpoint_interval: int = 50,
    server_kwargs: "dict | None" = None,
    link_faults: "LinkFaultConfig | None" = None,
    auto_promote_after: "float | None" = 0.25,
    catchup_timeout: float = 30.0,
    key_prefix: str = "failover",
) -> FailoverReport:
    """Kill the primary mid-stream and prove the promoted standby is exact.

    The drill, in order:

    1. A durable **primary** and a WAL-shipping **standby** come up around
       a shared ``epoch_store``; a multi-endpoint
       :class:`~repro.server.client.PredictionClient` posts the first
       ``kill_after`` records (each with an idempotency key) to the
       primary while the standby replicates.
    2. Mid-stream the replication link is **partitioned** (plus whatever
       ``link_faults`` adds — packet loss, slow link); the primary keeps
       ingesting, the standby falls behind, the link **heals**, and the
       drill waits for replication lag to return to zero.
    3. The primary is killed (``kill -9`` semantics — no final
       checkpoint).  With ``auto_promote_after`` set the standby detects
       the silence and promotes itself via the epoch CAS (the measured
       **time to promote**); ``None`` promotes explicitly, timing just the
       CAS + fencing checkpoint.
    4. The *same* client resends the last pre-kill record (same key —
       must deduplicate on the new primary, proving at-least-once across
       promotion), then fails over and posts the remaining records.
    5. The old primary is revived from its untouched data dir and probed
       with a write: it must refuse with a structured 409 ``stale_epoch``.
    6. A never-failed baseline server ingests the identical stream; the
       promoted standby must match it sample-for-sample — model factors,
       gate state, dedup ledger, windowed MAE/MRE/NPRE — and its final
       checkpoint must be byte-identical under
       :func:`~repro.core.serialization.archive_digest` with the
       control-plane ``replication`` extra (the necessarily-higher epoch)
       excluded.

    Both replicas and the baseline run ``background_replay=False`` so every
    comparison is an equality, not a tolerance.
    """
    from repro.core.serialization import archive_digest
    from repro.server.app import PredictionServer
    from repro.server.client import (
        PredictionClient,
        TerminalServiceError,
    )
    from repro.server.replication import HttpReplicaLink, ReplicationConfig
    from repro.server.wal import CheckpointStore

    if not (1 <= kill_after <= len(records)):
        raise ValueError(
            f"kill_after must be within [1, {len(records)}], got {kill_after}"
        )

    server_args = dict(
        config=config,
        rng=rng,
        background_replay=False,
        checkpoint_interval=checkpoint_interval,
    )
    if server_kwargs:
        server_args.update(server_kwargs)

    mismatches: list[str] = []
    detail: dict = {"records": len(records), "kill_after": kill_after}

    primary = PredictionServer(
        data_dir=primary_dir,
        replication=ReplicationConfig(
            epoch_store, role="primary", node_id="drill-primary"
        ),
        **server_args,
    )
    primary.start()
    link = FaultyReplicaLink(
        HttpReplicaLink(primary.address, timeout=2.0), link_faults, rng=rng
    )
    standby = PredictionServer(
        data_dir=standby_dir,
        replication=ReplicationConfig(
            epoch_store,
            role="standby",
            primary_address=primary.address,
            node_id="drill-standby",
            poll_interval=0.01,
            fetch_timeout=2.0,
            auto_promote_after=auto_promote_after,
        ),
        replication_link=link,
        **server_args,
    )
    standby.start()

    client = PredictionClient(
        [primary.address, standby.address],
        retries=4,
        backoff=0.02,
        backoff_max=0.25,
        jitter=0.1,
    )

    def post(batch_start: int, batch_end: int) -> None:
        for index in range(batch_start, batch_end):
            record = records[index]
            client.report_observation(
                record.user_id,
                record.service_id,
                record.value,
                record.timestamp,
                idempotency_key=f"{key_prefix}:{index}",
            )

    def wait_catchup() -> float:
        started = time.perf_counter()
        deadline = started + catchup_timeout
        while standby.wal_last_seq < primary.wal_last_seq:
            if time.perf_counter() > deadline:
                mismatches.append(
                    "replication: standby never caught up "
                    f"(standby seq {standby.wal_last_seq} < primary "
                    f"{primary.wal_last_seq}: "
                    f"{standby._replicator.status()})"
                )
                break
            time.sleep(0.005)
        return time.perf_counter() - started

    # Phase 1+2: stream to the primary; partition the link mid-stream so
    # the standby falls behind, then heal and require full catch-up.
    partition_at = max(1, kill_after // 2)
    post(0, partition_at)
    wait_catchup()
    link.partition()
    post(partition_at, kill_after)
    detail["lag_during_partition"] = (
        primary.wal_last_seq - standby.wal_last_seq
    )
    link.heal()
    detail["catchup_seconds_after_heal"] = round(wait_catchup(), 4)
    detail["link_counts"] = dict(link.counts)

    # Phase 3: kill the primary (no final checkpoint) and wait for the
    # standby to promote itself via health-check timeout + epoch CAS.  The
    # clock starts *before* kill(): the primary stops answering fetches
    # somewhere inside the teardown, and the standby arms its silence
    # timer from its last successful fetch — counting teardown time
    # against the measurement would systematically under-report.
    promote_started = time.perf_counter()
    primary.kill()
    if auto_promote_after is None:
        if not standby.promote():
            mismatches.append("promotion: explicit promote() lost the CAS")
        time_to_promote = time.perf_counter() - promote_started
    else:
        promote_deadline = promote_started + auto_promote_after + catchup_timeout
        while standby.role != "primary":
            if time.perf_counter() > promote_deadline:
                mismatches.append(
                    "promotion: standby never auto-promoted "
                    f"({standby._replicator.status()})"
                )
                break
            time.sleep(0.005)
        time_to_promote = time.perf_counter() - promote_started
    detail["promoted_epoch"] = standby.epoch
    if standby.role == "primary" and standby.epoch < 2:
        mismatches.append(
            f"promotion: epoch did not advance (still {standby.epoch})"
        )

    # Phase 4: the at-least-once retry across the promotion, then the rest
    # of the stream through client failover (the dead primary's endpoint
    # trips the breaker; the write lands on the new primary).
    if standby.role == "primary":
        resend = records[kill_after - 1]
        duplicate_error = client.report_observation(
            resend.user_id,
            resend.service_id,
            resend.value,
            resend.timestamp,
            idempotency_key=f"{key_prefix}:{kill_after - 1}",
        )
        if duplicate_error == duplicate_error:  # not NaN -> re-applied
            mismatches.append(
                "dedup: retried key re-applied an SGD step across promotion"
            )
        post(kill_after, len(records))
        sample = records[0]
        client.predict(sample.user_id, sample.service_id)
        metrics_ok, metrics_detail = check_metrics_exposition(client.metrics())
        detail["client_failovers"] = client.failovers_performed
        detail["replication_status"] = client.replication_status()
    else:
        metrics_ok, metrics_detail = False, {"skipped": "promotion failed"}
    detail["metrics"] = metrics_detail

    # Phase 5: revive the deposed primary from its own data dir; the epoch
    # store outranks its checkpoint, so it must come up fenced and refuse
    # writes with a structured 409.
    revived = PredictionServer(
        data_dir=primary_dir,
        replication=ReplicationConfig(
            epoch_store, role="primary", node_id="drill-primary-revived"
        ),
        **server_args,
    )
    revived.start()
    fence_probe = records[0]
    try:
        PredictionClient(revived.address, retries=0).report_observation(
            fence_probe.user_id,
            fence_probe.service_id,
            fence_probe.value,
            fence_probe.timestamp,
        )
        mismatches.append("fencing: deposed primary accepted a write")
    except TerminalServiceError as exc:
        body = getattr(exc, "body", None) or {}
        detail["fence_probe"] = {
            "status": getattr(exc, "status", None),
            "code": body.get("code"),
            "cluster_epoch": body.get("cluster_epoch"),
        }
        if getattr(exc, "status", None) != 409 or body.get("code") != "stale_epoch":
            mismatches.append(
                "fencing: expected 409 stale_epoch, got "
                f"{detail['fence_probe']}"
            )
    revived.kill()

    standby_state = _ha_snapshot(standby)
    standby.stop()  # final checkpoint carries the post-promotion epoch

    # Phase 6: the never-failed baseline sees the identical logical stream,
    # including the duplicate resend (a ledger no-op on both sides).
    baseline = PredictionServer(data_dir=baseline_dir, **server_args)
    baseline.start()
    baseline_client = PredictionClient(baseline.address)
    for index, record in enumerate(records[:kill_after]):
        baseline_client.report_observation(
            record.user_id,
            record.service_id,
            record.value,
            record.timestamp,
            idempotency_key=f"{key_prefix}:{index}",
        )
    resend = records[kill_after - 1]
    baseline_client.report_observation(
        resend.user_id,
        resend.service_id,
        resend.value,
        resend.timestamp,
        idempotency_key=f"{key_prefix}:{kill_after - 1}",
    )
    for index in range(kill_after, len(records)):
        record = records[index]
        baseline_client.report_observation(
            record.user_id,
            record.service_id,
            record.value,
            record.timestamp,
            idempotency_key=f"{key_prefix}:{index}",
        )
    baseline_state = _ha_snapshot(baseline)
    baseline.stop()

    for key in ("updates_applied", "stored_samples"):
        if standby_state[key] != baseline_state[key]:
            mismatches.append(
                f"{key}: promoted={standby_state[key]} "
                f"baseline={baseline_state[key]}"
            )
    for key in ("user_factors", "service_factors"):
        if standby_state[key].shape != baseline_state[key].shape:
            mismatches.append(
                f"{key}: shape {standby_state[key].shape} vs "
                f"{baseline_state[key].shape}"
            )
        elif not np.array_equal(standby_state[key], baseline_state[key]):
            delta = float(
                np.max(np.abs(standby_state[key] - baseline_state[key]))
            )
            mismatches.append(f"{key}: max abs divergence {delta:.3e}")
    if standby_state["gate"] != baseline_state["gate"]:
        mismatches.append("gate: promoted state diverges from baseline")
    if standby_state["ledger"] != baseline_state["ledger"]:
        mismatches.append("ledger: promoted dedup ledger diverges from baseline")
    drift_promoted, drift_baseline = standby_state["drift"], baseline_state["drift"]
    for metric in ("window", "mae", "mre", "npre"):
        lhs, rhs = drift_promoted[metric], drift_baseline[metric]
        if lhs != rhs and not (lhs != lhs and rhs != rhs):  # NaN == NaN here
            mismatches.append(
                f"drift {metric}: promoted={lhs!r} baseline={rhs!r}"
            )
    detail["windowed_accuracy"] = {
        "promoted": drift_promoted,
        "baseline": drift_baseline,
    }

    digests = {
        "promoted": archive_digest(
            CheckpointStore(standby_dir).path, ignore_extra=("replication",)
        ),
        "baseline": archive_digest(
            CheckpointStore(baseline_dir).path, ignore_extra=("replication",)
        ),
    }
    detail["checkpoint_digests"] = digests
    if digests["promoted"] != digests["baseline"]:
        mismatches.append(
            "checkpoint: promoted and baseline archives differ "
            f"({digests['promoted'][:12]} vs {digests['baseline'][:12]})"
        )

    detail["mismatches"] = mismatches
    return FailoverReport(
        matches=not mismatches,
        metrics_ok=metrics_ok,
        detail=detail,
        time_to_promote=time_to_promote,
    )


@dataclass
class MemoryPressureReport:
    """Outcome of :func:`run_memory_pressure`.

    ``matches`` is the drill verdict: under a fault-injected allocation
    ceiling the server *degraded* — tightened its hot-tier caps, shed
    cold-entity revive reads with a structured 429, kept answering
    hot-entity predictions — instead of dying, and a kill-and-restart
    reproduced the squeezed state bit-exactly from checkpoint + WAL
    (pressure and revive events replay at their logged positions).
    """

    matches: bool
    detail: dict = field(default_factory=dict)
    metrics_ok: bool = True

    def summary(self) -> str:
        lines = [
            "memory pressure "
            + ("DEGRADED GRACEFULLY" if self.matches else "FAILED")
        ]
        lines.append(
            f"metrics exposition {'OK' if self.metrics_ok else 'INVALID'}"
        )
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def run_memory_pressure(
    records: "list[QoSRecord]",
    data_dir: str,
    config: "AMFConfig | None" = None,
    rng: int = 0,
    checkpoint_interval: int = 200,
    hot_users: int = 48,
    hot_services: int = 48,
    limit_fraction: float = 0.5,
    pressure_deadline: float = 30.0,
    server_kwargs: "dict | None" = None,
) -> MemoryPressureReport:
    """Squeeze a tiered server under an allocation ceiling and prove it
    degrades instead of dying, then recovers bit-exactly.

    The ceiling is fault-injected: a throwaway :class:`TieredAMF` filled to
    the hot caps measures what a full hot tier costs, and the watchdog
    limit is set to ``limit_fraction`` of that — guaranteed unreachable, so
    sustained pressure is certain.  ``min_hot`` is floored at 70% of the
    caps so one tighten step exhausts the shrink headroom and the server
    sits in ``critical`` (shedding cold reads) for the rest of the stream.

    The drill then asserts the degradation contract from the outside:

    1. the watchdog escalates to ``critical`` and logs pressure events;
    2. a prediction for a *spilled* entity is refused with a structured
       429 + ``Retry-After`` (the revive read is shed);
    3. a prediction for a *hot* entity still answers from the model —
       predictions for hot entities are never shed;
    4. ``/metrics`` stays a valid exposition including every lifecycle
       family;
    5. after ``kill()`` (no final checkpoint) a restart reproduces the
       squeezed state — factors, lifecycle state (tier assignment, caps,
       counters), pressure level — bit-exactly from checkpoint + WAL.
    """
    from repro.datasets.schema import QoSRecord as _QoSRecord
    from repro.lifecycle import LifecycleConfig, SpillStore, TieredAMF
    from repro.server.app import PredictionServer
    from repro.server.client import PredictionClient, RetryableServiceError

    if not records:
        raise ValueError("memory-pressure drill needs a non-empty stream")

    # Fault injection: measure a full hot tier, then cap below it.
    probe = TieredAMF(
        config,
        rng=rng,
        lifecycle=LifecycleConfig(
            hot_users=hot_users, hot_services=hot_services
        ),
        spill=SpillStore(":memory:"),
    )
    for k in range(max(hot_users, hot_services)):
        probe.observe(
            _QoSRecord(
                timestamp=float(k),
                user_id=k % hot_users,
                service_id=k % hot_services,
                value=1.0,
            )
        )
    full_resident = probe.resident_bytes()
    limit = max(1, int(full_resident * limit_fraction))

    lifecycle = LifecycleConfig(
        hot_users=hot_users,
        hot_services=hot_services,
        memory_limit_bytes=limit,
        watchdog_interval=0.02,
        sustain_polls=2,
        shrink_factor=0.7,
        min_hot=max(2, int(hot_users * 0.7)),
    )
    server_args = dict(
        config=config,
        rng=rng,
        background_replay=False,
        checkpoint_interval=checkpoint_interval,
        lifecycle=lifecycle,
    )
    if server_kwargs:
        server_args.update(server_kwargs)

    mismatches: list[str] = []
    detail: dict = {
        "records": len(records),
        "memory_limit_bytes": limit,
        "full_tier_resident_bytes": full_resident,
    }

    server = PredictionServer(data_dir=data_dir, **server_args)
    server.start()
    client = PredictionClient(server.address, retries=0)
    for record in records:
        client.report_observation(
            record.user_id, record.service_id, record.value, record.timestamp
        )

    # 1. Sustained pressure: the watchdog must reach critical, shed, and
    # tighten the caps all the way to the min_hot floor — after that the
    # tier assignment is static (further tighten steps are no-ops), so the
    # hot/spilled entities probed below cannot move underneath the probes.
    deadline = time.monotonic() + pressure_deadline
    status = {}
    sample = records[0]
    tick = max(record.timestamp for record in records)
    while time.monotonic() < deadline:
        status = client.status()["lifecycle"]
        if (
            status["pressure_level"] == "critical"
            and status["shedding_cold_reads"]
            and status["capacity_users"] <= lifecycle.min_hot
        ):
            break
        # Keep the hot tier warm so resident bytes stay above the ceiling.
        tick += 1.0
        client.report_observation(
            sample.user_id, sample.service_id, sample.value, tick
        )
        time.sleep(0.01)
    detail["lifecycle_status"] = dict(status)
    if status.get("pressure_level") != "critical":
        mismatches.append(
            f"pressure: watchdog never reached critical ({status})"
        )
    if not status.get("pressure_events"):
        mismatches.append("pressure: no pressure events were applied")
    if status.get("capacity_users", hot_users) >= hot_users:
        mismatches.append("pressure: hot-user cap was never tightened")

    # 2+3. Shed the cold read, never the hot one.
    spilled = server.model.with_model(lambda m: sorted(m._spilled_users))
    hot = server.model.with_model(lambda m: sorted(m._u_slot_of))
    known_service = server.model.with_model(lambda m: sorted(m._s_slot_of))[0]
    if not spilled:
        mismatches.append("tiering: squeeze produced no spilled users")
    else:
        try:
            client.predict(spilled[0], known_service)
            mismatches.append(
                "shedding: cold-entity read answered instead of shedding"
            )
        except RetryableServiceError as exc:
            detail["cold_read"] = {
                "status": exc.status,
                "retry_after": getattr(exc, "retry_after", None),
            }
            if exc.status != 429 or not getattr(exc, "retry_after", None):
                mismatches.append(
                    f"shedding: expected 429 + Retry-After, got {exc.status}"
                )
    hot_answer = client.predict_detailed(hot[0], known_service)
    detail["hot_read_source"] = hot_answer["source"]
    if hot_answer["source"] != "model":
        mismatches.append(
            f"hot path: expected a model answer, got {hot_answer['source']!r}"
        )

    # 4. The exposition stays valid mid-squeeze.
    metrics_ok, metrics_detail = check_metrics_exposition(client.metrics())
    detail["metrics"] = metrics_detail

    # Observe a few *spilled* users so revive events land in the WAL after
    # the last checkpoint — the restart below then replays lifecycle
    # events, not just observations (unless a checkpoint boundary happens
    # to fall on the final write, which the recovery detail records).
    for uid in spilled[:7]:
        tick += 1.0
        client.report_observation(uid, known_service, sample.value, tick)

    # 5. Kill (no final checkpoint) and require a bit-exact restart.
    squeezed = {
        "user_factors": server.model.user_factors(),
        "service_factors": server.model.service_factors(),
        "updates_applied": server.model.updates_applied,
        "lifecycle": server.model.with_model(lambda m: m.lifecycle_state()),
    }
    server.kill()
    restarted = PredictionServer(data_dir=data_dir, **server_args)
    detail["recovery"] = dict(restarted.recovery)
    recovered = {
        "user_factors": restarted.model.user_factors(),
        "service_factors": restarted.model.service_factors(),
        "updates_applied": restarted.model.updates_applied,
        "lifecycle": restarted.model.with_model(lambda m: m.lifecycle_state()),
    }
    for key in ("user_factors", "service_factors"):
        if not np.array_equal(squeezed[key], recovered[key]):
            mismatches.append(f"recovery: {key} diverged across restart")
    if squeezed["updates_applied"] != recovered["updates_applied"]:
        mismatches.append(
            "recovery: updates_applied "
            f"{recovered['updates_applied']} != {squeezed['updates_applied']}"
        )
    if squeezed["lifecycle"] != recovered["lifecycle"]:
        mismatches.append(
            "recovery: lifecycle state (tier assignment / caps / counters) "
            "diverged across restart"
        )
    restarted.start()
    survivor = PredictionClient(restarted.address, retries=0)
    post_restart = survivor.predict_detailed(hot[0], known_service)
    if post_restart["source"] != "model":
        mismatches.append("recovery: hot prediction degraded after restart")
    survivor.close()
    restarted.stop()
    client.close()

    detail["mismatches"] = mismatches
    return MemoryPressureReport(
        matches=not mismatches,
        metrics_ok=metrics_ok,
        detail=detail,
    )


@dataclass
class ShardKillReport:
    """Outcome of :func:`run_shard_kill`.

    ``matches`` covers the whole containment contract: surviving shards'
    state and per-sample error streams identical to a never-faulted
    baseline, zero failed requests outside the dead shard's keyspace,
    and the killed shard recovering bit-exact (checkpoint digest
    equality) from its own WAL.  ``metrics_ok`` validates the router's
    *aggregated* ``/metrics`` exposition.
    """

    matches: bool
    detail: dict = field(default_factory=dict)
    metrics_ok: bool = True

    def summary(self) -> str:
        lines = [
            "shard-kill blast radius "
            + ("CONTAINED" if self.matches else "NOT CONTAINED")
        ]
        lines.append(
            f"fleet metrics exposition {'OK' if self.metrics_ok else 'INVALID'}"
        )
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _errors_equal(ours: "list[float]", theirs: "list[float]") -> bool:
    if len(ours) != len(theirs):
        return False
    return all(
        a == b or (math.isnan(a) and math.isnan(b))
        for a, b in zip(ours, theirs)
    )


def run_shard_kill(
    records: "list[QoSRecord]",
    data_root: str,
    n_shards: int = 3,
    kill_after: "int | None" = None,
    rng: int = 0,
    checkpoint_interval: int = 50,
) -> ShardKillReport:
    """Kill one shard of a routed fleet mid-stream; prove the blast
    radius is bounded.

    The drill builds ``n_shards`` full durable :class:`PredictionServer`
    shards behind a :class:`~repro.cluster.router.ClusterRouter`, drives
    the stream through the router one observation at a time, and kills
    the shard owning the record at ``kill_after`` (default: halfway).
    While the shard is down:

    * requests for its users must fail with a structured
      ``503 shard_unavailable`` (counted, later replayed);
    * every surviving shard must keep accepting writes *and* answering
      predictions — one hard failure fails the drill.

    The killed shard then restarts from its own checkpoint + WAL tail
    (same data dir, same port), the orphaned records are re-sent in
    their original order, and the stream finishes.  Finally every shard
    is diffed against a never-faulted baseline server fed exactly the
    records that shard accepted, in order: per-sample error streams must
    match element-for-element (so windowed MAE is untouched), and final
    checkpoint archives must be byte-identical
    (:func:`~repro.core.serialization.archive_digest`).
    """
    from repro.cluster.placement import PlacementTable, ShardSpec
    from repro.cluster.router import ClusterRouter
    from repro.core.serialization import archive_digest
    from repro.server.app import PredictionServer
    from repro.server.binary import TRANSPORT_BINARY_REQUESTS
    from repro.server.client import (
        PredictionClient,
        RetryableServiceError,
    )
    from repro.server.wal import CheckpointStore

    if n_shards < 2:
        raise ValueError(f"n_shards must be >= 2, got {n_shards}")
    if kill_after is None:
        kill_after = len(records) // 2
    if not (0 < kill_after < len(records)):
        raise ValueError(
            f"kill_after must be within (0, {len(records)}), got {kill_after}"
        )

    server_args = dict(
        rng=rng,
        background_replay=False,
        checkpoint_interval=checkpoint_interval,
        binary_port=None,
    )
    names = [f"shard-{index}" for index in range(n_shards)]
    servers: dict[str, PredictionServer] = {}
    for name in names:
        server = PredictionServer(
            data_dir=os.path.join(data_root, name), **server_args
        )
        server.start()
        servers[name] = server
    table = PlacementTable(
        [
            ShardSpec(name=name, addresses=(servers[name].address,))
            for name in names
        ]
    )
    router = ClusterRouter(table)
    router.start()
    client = PredictionClient(router.address, retries=0)
    # The shards here listen on JSON only, so every frame counted from now
    # on was answered by the router's binary listener.
    framed = TRANSPORT_BINARY_REQUESTS.value

    # The victim is whichever shard owns the record at the kill point, so
    # the outage is guaranteed to intersect live traffic.
    victim = table.owner_of("user", records[kill_after].user_id).name
    victim_port = servers[victim].address[1]

    owners = [
        table.owner_of("user", record.user_id).name for record in records
    ]
    fleet_errors: dict[str, list[float]] = {name: [] for name in names}
    mismatches: list[str] = []
    detail: dict = {
        "records": len(records),
        "shards": n_shards,
        "kill_after": kill_after,
        "victim": victim,
        "substream_sizes": dict(Counter(owners)),
    }

    def send(index: int) -> None:
        record = records[index]
        error = client.report_observation(
            record.user_id, record.service_id, record.value, record.timestamp
        )
        fleet_errors[owners[index]].append(error)

    # Phase A: healthy fleet up to the kill point.
    for index in range(kill_after):
        send(index)

    servers[victim].kill()

    # Phase B: the outage.  Victim-owned records must fail structurally;
    # surviving shards must stay fully available for writes and reads.
    orphaned: list[int] = []
    outage_shed = 0
    survivor_failures: list[str] = []
    for index in range(kill_after, len(records)):
        record = records[index]
        if owners[index] == victim:
            try:
                send(index)
            except RetryableServiceError as exc:
                body = getattr(exc, "body", None) or {}
                if body.get("code") != "shard_unavailable":
                    survivor_failures.append(
                        f"record {index}: dead shard failed without "
                        f"shard_unavailable: {body}"
                    )
                outage_shed += 1
                orphaned.append(index)
            else:
                survivor_failures.append(
                    f"record {index}: write for dead shard {victim} was "
                    "acknowledged"
                )
        else:
            try:
                send(index)
                client.predict(record.user_id, record.service_id)
            except Exception as exc:  # noqa: BLE001 — any failure breaks containment
                survivor_failures.append(
                    f"record {index} (shard {owners[index]}): {exc}"
                )
    if survivor_failures:
        mismatches.append(
            f"availability: {len(survivor_failures)} surviving-shard "
            f"failures, first: {survivor_failures[0]}"
        )
    detail["outage_requests_shed"] = outage_shed
    if not orphaned:
        mismatches.append(
            "drill produced no victim-owned traffic during the outage; "
            "increase the stream length"
        )

    # Phase C: the victim restarts from its own WAL on the same address
    # and the orphaned records are replayed in their original order.
    restarted = PredictionServer(
        data_dir=os.path.join(data_root, victim),
        port=victim_port,
        **server_args,
    )
    detail["recovery"] = dict(restarted.recovery)
    restarted.start()
    servers[victim] = restarted
    for index in orphaned:
        send(index)

    # Fleet-level read path + aggregated exposition, scraped where an
    # operator's monitoring would hit it.
    sample = records[0]
    client.predict(sample.user_id, sample.service_id)
    metrics_ok, metrics_detail = check_metrics_exposition(
        client._request("GET", "/metrics", raw=True)
    )
    detail["metrics"] = metrics_detail
    health = client._request("GET", "/health")
    if health.get("status") != "ok":
        mismatches.append(f"fleet health after recovery: {health.get('status')}")

    detail["router_binary_frames"] = int(TRANSPORT_BINARY_REQUESTS.value - framed)
    if detail["router_binary_frames"] < len(records):
        mismatches.append(
            "the drill is meant to run over the default client-to-router "
            f"hop, but the router answered {detail['router_binary_frames']} "
            f"frames for {len(records)} observations"
        )

    snapshots = {name: _snapshot(servers[name]) for name in names}
    for name in names:
        servers[name].stop()
    router.stop()
    client.close()

    # Baselines: one never-faulted server per shard, fed exactly the
    # records that shard accepted, in order.  The victim's baseline sees
    # pre-kill records then the orphaned replays (their original order);
    # survivors' baselines see their full substream.
    for name in names:
        if name == victim:
            indices = [i for i in range(kill_after) if owners[i] == name]
            indices += orphaned
        else:
            indices = [i for i in range(len(records)) if owners[i] == name]
        baseline_dir = os.path.join(data_root, f"baseline-{name}")
        baseline = PredictionServer(data_dir=baseline_dir, **server_args)
        baseline.start()
        baseline_client = PredictionClient(baseline.address)
        baseline_errors = [
            baseline_client.report_observation(
                records[i].user_id,
                records[i].service_id,
                records[i].value,
                records[i].timestamp,
            )
            for i in indices
        ]
        baseline_state = _snapshot(baseline)
        baseline_client.close()
        baseline.stop()
        if not _errors_equal(fleet_errors[name], baseline_errors):
            mismatches.append(
                f"{name}: per-sample error stream diverges from baseline "
                "(windowed MAE affected)"
            )
        state = snapshots[name]
        for key in ("updates_applied", "stored_samples"):
            if state[key] != baseline_state[key]:
                mismatches.append(
                    f"{name}: {key} {state[key]} != baseline {baseline_state[key]}"
                )
        for key in ("user_factors", "service_factors"):
            if not np.array_equal(state[key], baseline_state[key]):
                mismatches.append(f"{name}: {key} diverged from baseline")
        digests = {
            "shard": archive_digest(
                CheckpointStore(os.path.join(data_root, name)).path
            ),
            "baseline": archive_digest(CheckpointStore(baseline_dir).path),
        }
        if digests["shard"] != digests["baseline"]:
            mismatches.append(
                f"{name}: checkpoint archive differs from baseline "
                f"({digests['shard'][:12]} vs {digests['baseline'][:12]})"
            )
        if name == victim:
            detail["victim_checkpoint_digests"] = digests

    detail["mismatches"] = mismatches
    return ShardKillReport(
        matches=not mismatches,
        metrics_ok=metrics_ok,
        detail=detail,
    )


@dataclass
class MigrationKillReport:
    """Outcome of :func:`run_migration_kill`.

    ``matches`` covers the crash-safety contract: with a kill injected
    mid-migration (source shard, destination shard, or router), the
    resumed migration converges with zero lost and zero duplicated
    entities, every re-homed entity's exported payload (factor row, EMA
    error, samples, gate stats) byte-equal to an unkilled baseline
    migration's, predictions bit-identical before/after and across the
    two runs, and both shards' checkpoint archives digest-equal to the
    baseline's (the migration ledger — whose batch sequence numbers may
    legitimately differ after a resume — is the only excluded extra).
    """

    matches: bool
    detail: dict = field(default_factory=dict)
    metrics_ok: bool = True

    def summary(self) -> str:
        lines = [
            "migration kill drill "
            + ("CONVERGED" if self.matches else "DIVERGED")
        ]
        lines.append(
            f"fleet metrics exposition {'OK' if self.metrics_ok else 'INVALID'}"
        )
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def run_migration_kill(
    records: "list[QoSRecord]",
    data_root: str,
    kill_target: str = "source",
    kill_phase: str = "transfer",
    rng: int = 0,
    checkpoint_interval: int = 50,
    batch_entities: int = 6,
    restart_delay: float = 0.25,
    join_timeout: float = 120.0,
) -> MigrationKillReport:
    """Kill anything mid-migration; prove the resumed migration converges.

    Two identical 2-shard fleets (lifecycle tiering on, durable WALs,
    router journal on disk) ingest ``records`` and then drain shard
    ``s0`` through a live migration.  The *baseline* fleet migrates
    uninterrupted.  The *faulted* fleet has ``kill_target`` (``source``,
    ``dest``, or ``router``) killed — no graceful shutdown, no final
    checkpoint — at the first occurrence of ``kill_phase`` (``export``,
    ``transfer``, ``commit``, or ``pre-commit``), then restarted: a shard
    restarts from its own checkpoint + WAL on the same port while the
    coordinator retries against it; a killed router is rebuilt over the
    same data dir and resumes the journaled migration on start.

    Convergence is judged against the baseline: the source ends empty,
    the destination holds every entity exactly once, each re-homed
    entity's canonical export payload is byte-equal, predictions are
    bit-identical before/after migration and across fleets, and both
    shards' final checkpoint archives are digest-equal (ignoring only
    the destination's migration ledger, whose batch sequence numbers may
    skip after a resume).
    """
    import threading

    from repro.cluster.placement import PlacementTable, ShardSpec
    from repro.cluster.router import ClusterRouter
    from repro.core.serialization import archive_digest
    from repro.server.app import PredictionServer
    from repro.server.client import PredictionClient
    from repro.server.wal import CheckpointStore

    if kill_target not in ("source", "dest", "router"):
        raise ValueError(
            f"kill_target must be source/dest/router, got {kill_target!r}"
        )
    if kill_phase not in ("export", "transfer", "commit", "pre-commit"):
        raise ValueError(
            f"kill_phase must be export/transfer/commit/pre-commit, "
            f"got {kill_phase!r}"
        )

    server_args = dict(
        background_replay=False,
        checkpoint_interval=checkpoint_interval,
        binary_port=None,
        lifecycle=True,
    )
    names = ("s0", "s1")
    probe = [
        (record.user_id, record.service_id) for record in records[:1]
    ]
    if not probe:
        raise ValueError("records must be non-empty")

    def run_fleet(root: str, kill: bool) -> dict:
        servers: dict[str, PredictionServer] = {}
        ports: dict[str, int] = {}
        for index, name in enumerate(names):
            server = PredictionServer(
                rng=rng + index,
                data_dir=os.path.join(root, name),
                **server_args,
            )
            server.start()
            servers[name] = server
            ports[name] = server.address[1]
        table = PlacementTable(
            [
                ShardSpec(name=name, addresses=(servers[name].address,))
                for name in names
            ]
        )
        router = ClusterRouter(table, data_dir=os.path.join(root, "router"))
        router.start()
        client = PredictionClient(router.address, retries=0)

        for record in records:
            client.report_observation(
                record.user_id, record.service_id, record.value, record.timestamp
            )
        pairs = sorted(
            {(record.user_id, record.service_id) for record in records}
        )
        pre = {pair: client.predict(*pair) for pair in pairs}
        source_inventory = servers["s0"].model.with_model(
            lambda m: {
                "user": sorted(m.entity_ids("user")),
                "service": sorted(m.entity_ids("service")),
            }
        )

        target = table.draining_shard("s0")
        kill_fired = threading.Event()

        def on_phase(progress: dict) -> None:
            if kill_fired.is_set() or progress["phase"] != kill_phase:
                return
            kill_fired.set()
            if kill_target == "router":
                router.kill()
                return
            victim = "s0" if kill_target == "source" else "s1"
            servers[victim].kill()

            def _restart() -> None:
                time.sleep(restart_delay)
                replacement = PredictionServer(
                    rng=rng + names.index(victim),
                    data_dir=os.path.join(root, victim),
                    port=ports[victim],
                    **server_args,
                )
                replacement.start()
                servers[victim] = replacement

            threading.Thread(target=_restart, daemon=True).start()

        coordinator = router.start_migration(
            target,
            on_phase=on_phase if kill else None,
            batch_entities=batch_entities,
        )
        coordinator.join(timeout=join_timeout)
        if kill and kill_target == "router":
            # The dead router's journal is the contract: a successor
            # over the same data dir resumes the migration on start.
            client.close()
            router = ClusterRouter(
                table, data_dir=os.path.join(root, "router")
            )
            router.start()
            client = PredictionClient(router.address, retries=0)
            coordinator = router.migration
            if coordinator is not None:
                coordinator.join(timeout=join_timeout)
        info: dict = {
            "kill_fired": kill_fired.is_set(),
            "coordinator_done": coordinator is not None
            and not coordinator.active,
            "coordinator_error": (
                str(coordinator.error)
                if coordinator is not None and coordinator.error is not None
                else None
            ),
            "result": coordinator.result if coordinator is not None else None,
            "placement_version": router.placement.version,
            "target_version": target.version,
            "pre": pre,
            "source_inventory": source_inventory,
        }
        info["post"] = {pair: client.predict(*pair) for pair in pairs}
        metrics_ok, metrics_detail = check_metrics_exposition(
            client._request("GET", "/metrics", raw=True)
        )
        info["metrics_ok"] = metrics_ok
        info["metrics"] = metrics_detail
        info["counts"] = {
            name: servers[name].model.with_model(
                lambda m: (len(m.entity_ids("user")), len(m.entity_ids("service")))
            )
            for name in names
        }
        # Canonical export payloads of everything the source used to
        # hold, as served by the destination now — the byte-equality
        # oracle between fleets.
        def _exports(model):
            payloads = {}
            for kind in ("user", "service"):
                for ext_id in source_inventory[kind]:
                    try:
                        payloads[f"{kind}:{ext_id}"] = model.export_payload(
                            kind, ext_id
                        )
                    except KeyError:
                        pass
            return payloads

        info["dest_exports"] = servers["s1"].model.with_model(_exports)
        client.close()
        router.stop()
        for name in names:
            servers[name].stop()
        info["digests"] = {
            name: archive_digest(
                CheckpointStore(os.path.join(root, name)).path,
                ignore_extra=("migration",),
            )
            for name in names
        }
        return info

    baseline = run_fleet(os.path.join(data_root, "baseline"), kill=False)
    faulted = run_fleet(os.path.join(data_root, "faulted"), kill=True)

    mismatches: list[str] = []
    detail: dict = {
        "kill_target": kill_target,
        "kill_phase": kill_phase,
        "records": len(records),
        "baseline_result": baseline["result"],
        "faulted_result": faulted["result"],
    }

    if not faulted["kill_fired"]:
        mismatches.append(
            f"kill at phase {kill_phase!r} never fired — the migration "
            "finished without reaching it (stream too small?)"
        )
    for label, info in (("baseline", baseline), ("faulted", faulted)):
        if not info["coordinator_done"]:
            mismatches.append(f"{label}: migration did not finish in time")
        if info["coordinator_error"] is not None:
            mismatches.append(
                f"{label}: migration errored: {info['coordinator_error']}"
            )
        if info["placement_version"] != info["target_version"]:
            mismatches.append(
                f"{label}: target table not installed "
                f"(at version {info['placement_version']})"
            )
        if info["counts"]["s0"] != (0, 0):
            mismatches.append(
                f"{label}: source not empty after drain: "
                f"{info['counts']['s0']} (lost-or-stranded entities)"
            )
        expected = (
            len(info["source_inventory"]["user"]),
            len(info["source_inventory"]["service"]),
        )
        moved = (
            len([k for k in info["dest_exports"] if k.startswith("user:")]),
            len([k for k in info["dest_exports"] if k.startswith("service:")]),
        )
        if moved != expected:
            mismatches.append(
                f"{label}: destination holds {moved} of the source's "
                f"{expected} entities (lost entities)"
            )
        if not _errors_equal(
            list(info["pre"].values()), list(info["post"].values())
        ):
            mismatches.append(
                f"{label}: predictions changed across the migration"
            )

    if baseline["source_inventory"] != faulted["source_inventory"]:
        mismatches.append(
            "fleets diverged before the migration started (setup bug)"
        )
    for key, payload in baseline["dest_exports"].items():
        other = faulted["dest_exports"].get(key)
        if other != payload:
            mismatches.append(
                f"{key}: re-homed payload differs from baseline "
                "(factor row / samples / gate not byte-equal)"
            )
            break
    if baseline["post"] != faulted["post"]:
        mismatches.append(
            "post-migration predictions differ between baseline and "
            "faulted fleets"
        )
    for name in names:
        if baseline["digests"][name] != faulted["digests"][name]:
            mismatches.append(
                f"{name}: checkpoint digest differs from baseline "
                f"({faulted['digests'][name][:12]} vs "
                f"{baseline['digests'][name][:12]})"
            )
    detail["digests"] = {
        "baseline": baseline["digests"],
        "faulted": faulted["digests"],
    }
    detail["entities_moved"] = (
        baseline["result"]["entities_moved"]
        if baseline["result"]
        else None
    )
    detail["mismatches"] = mismatches
    return MigrationKillReport(
        matches=not mismatches,
        metrics_ok=baseline["metrics_ok"] and faulted["metrics_ok"],
        detail=detail,
    )
