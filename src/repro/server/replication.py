"""Primary/standby replication with fenced failover for the prediction server.

PR 2's WAL + checkpoints give a crashed server *recovery*; this module
gives the deployment *availability*: while one `PredictionServer` (the
**primary**) ingests observations, one or more **warm standbys**
continuously pull its committed WAL records over the existing HTTP layer
and apply them through the same gated replay the recovery path uses.  A
standby is therefore a live replica — model factors, `SanitizerGate`
statistics, dedup ledger, and drift window all within a bounded
replication lag of the primary — and a node failure degrades prediction
latency, not correctness.

Design points:

* **Log shipping, not state shipping.**  The primary exposes
  ``GET /replication/wal?after_seq=N`` serving committed (fsync'd) WAL
  records; the standby appends each one to its *own* WAL before applying
  it, so the standby's data directory is byte-for-byte the same log and
  its own crash recovery works unchanged.  Because replay of raw records
  through the deterministic gate is exactly the recovery path, a caught-up
  standby's model is *bit-exact* with the primary's.
* **Fenced failover.**  Split brain is prevented by a monotonic epoch
  token in a shared :class:`EpochStore` (a stand-in for a lock service: a
  tiny file with an atomic compare-and-swap).  A standby promotes only by
  winning ``CAS(epoch, epoch+1)``; the new epoch is persisted in its next
  checkpoint (serialization format v4).  A deposed primary that comes back
  finds a higher epoch in the store and starts **fenced**: predictions
  keep serving, observation writes are refused with a structured 409
  ``stale_epoch`` — it can never diverge the cluster.
* **At-least-once across promotion.**  The dedup ledger rides the shipped
  WAL records, so a client retrying an idempotency-keyed observation
  against the promoted standby is acknowledged without a second SGD step.

The wiring lives in :class:`~repro.server.app.PredictionServer`
(``replication=ReplicationConfig(...)``); the chaos drill in
:func:`repro.simulation.drills.run_failover`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import ClassVar

from repro.observability import get_registry
from repro.server.http import ServiceError
from repro.server.wal import entry_from_wire

# Replication observability.  Registered at import time (app.py imports
# this module), so every server process renders the families even at zero
# — the chaos drills treat their absence as a wiring regression.
_METRICS = get_registry()
_EPOCH = _METRICS.gauge(
    "qos_replication_epoch", "Fencing epoch this node believes is current"
)
_LAG = _METRICS.gauge(
    "qos_replication_lag_records",
    "Records the standby still has to apply to match the primary",
)
_SHIPPED = _METRICS.counter(
    "qos_replication_records_shipped_total",
    "Committed WAL records served to standbys by this node",
)
_APPLIED = _METRICS.counter(
    "qos_replication_records_applied_total",
    "Shipped WAL records applied by this node as a standby",
)
_FETCH_ERRORS = _METRICS.counter(
    "qos_replication_fetch_errors_total",
    "Standby pull attempts that failed (primary down, partition, bad batch)",
)
_PROMOTIONS = _METRICS.counter(
    "qos_replication_promotions_total",
    "Standby promotions won via epoch compare-and-swap",
)
_STALE_EPOCH = _METRICS.counter(
    "qos_replication_stale_epoch_total",
    "Writes refused because this node is fenced behind the cluster epoch",
)


class FencedWrite(ServiceError):
    """A write refused by fencing: this node must not mutate the model.

    A structured, terminal 409 — the client must re-route to the current
    primary.  ``code`` is the discriminator in the body: ``"stale_epoch"``
    (a deposed primary behind the cluster epoch) or ``"not_primary"`` (a
    standby that never was one).
    """

    status = 409

    def __init__(
        self,
        message: str,
        code: str,
        epoch: int,
        cluster_epoch: "int | None" = None,
    ) -> None:
        fields = {"epoch": epoch}
        if cluster_epoch is not None:
            fields["cluster_epoch"] = cluster_epoch
        super().__init__(message, code, **fields)
        self.epoch = epoch
        self.cluster_epoch = cluster_epoch


class ReplicationGap(RuntimeError):
    """The primary shipped a record beyond the standby's next sequence.

    Happens only when the primary's WAL no longer holds the records the
    standby needs (e.g. segments pruned before this standby attached) —
    the standby cannot catch up by log shipping alone and stops pulling
    rather than applying a stream with a hole in it.
    """


class EpochStore:
    """File-backed monotonic fencing token with atomic compare-and-swap.

    A stand-in for the tiny slice of a coordination service failover
    actually needs: one integer epoch plus the id of the node that claimed
    it, stored as JSON, updated via an exclusive lock file +
    write-temp-then-rename.  All replicas of one cluster point at the same
    path (shared disk in the drills; in production this is where a lock
    service or a DB row would slot in).

    The CAS is what makes promotion safe with any number of racing
    standbys: exactly one ``cas(E, E+1)`` wins; every loser stays a
    standby.
    """

    #: Seconds to wait for another process's lock before giving up.
    lock_timeout = 5.0

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock_path = self.path + ".lock"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)

    def _acquire_file_lock(self) -> None:
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                return
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"could not lock epoch store {self.path} within "
                        f"{self.lock_timeout}s"
                    ) from None
                time.sleep(0.005)

    def _release_file_lock(self) -> None:
        try:
            os.unlink(self._lock_path)
        except FileNotFoundError:
            pass

    def read(self) -> dict:
        """Current ``{"epoch": int, "owner": str | None}`` (0 when unset).
        Takes no lock: the file only ever changes by atomic rename."""
        try:
            with open(self.path, encoding="utf-8") as handle:
                state = json.load(handle)
        except (FileNotFoundError, ValueError):
            return {"epoch": 0, "owner": None}
        return {
            "epoch": int(state.get("epoch", 0)),
            "owner": state.get("owner"),
        }

    def epoch(self) -> int:
        return self.read()["epoch"]

    def cas(self, expected: int, new: int, owner: "str | None" = None) -> bool:
        """Atomically advance the epoch iff it still equals ``expected``.

        Returns True on success.  ``new`` must be strictly greater than
        ``expected`` — the token is monotonic by construction.
        """
        if new <= expected:
            raise ValueError(f"epoch must advance: expected={expected} new={new}")
        self._acquire_file_lock()
        try:
            current = self.read()
            if current["epoch"] != expected:
                return False
            tmp = f"{self.path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"epoch": int(new), "owner": owner}, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            return True
        finally:
            self._release_file_lock()


@dataclass
class ReplicationConfig:
    """How one `PredictionServer` participates in a replicated cluster.

    Attributes:
        epoch_store:        path of the shared fencing token (or an
                            :class:`EpochStore`); every replica of one
                            cluster must point at the same store.
        role:               ``"primary"`` (accepts writes, ships its WAL)
                            or ``"standby"`` (pulls + applies, refuses
                            client writes until promoted).
        primary_address:    ``(host, port)`` of the primary; required for
                            standbys.
        node_id:            owner label recorded in the epoch store on
                            promotion (defaults to ``host:pid``).
        poll_interval:      seconds a standby sleeps between pulls when
                            caught up (bounds replication lag).
        fetch_timeout:      socket timeout for one pull.
        auto_promote_after: seconds of consecutive failed pulls after which
                            a standby promotes itself (health-check
                            timeout); ``None`` leaves promotion to the
                            operator / harness calling ``promote()``.

    Two constants ride along: ``batch_limit``, the most records one pull
    asks for, and ``fence_check_interval``, how often (seconds) a live
    primary re-reads the epoch store on its write path to detect that it
    has been deposed.
    """

    epoch_store: "str | EpochStore"
    role: str = "primary"
    primary_address: "tuple[str, int] | None" = None
    node_id: str = ""
    poll_interval: float = 0.05
    fetch_timeout: float = 5.0
    auto_promote_after: "float | None" = None
    batch_limit: ClassVar[int] = 512
    fence_check_interval: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        if self.role not in ("primary", "standby"):
            raise ValueError(f"role must be 'primary' or 'standby', got {self.role!r}")
        if self.role == "standby" and self.primary_address is None:
            raise ValueError("standby replication requires primary_address")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {self.poll_interval}")
        if not self.node_id:
            self.node_id = f"node-{os.getpid()}"

    def store(self) -> EpochStore:
        if isinstance(self.epoch_store, EpochStore):
            return self.epoch_store
        return EpochStore(self.epoch_store)


class HttpReplicaLink:
    """The standby's pull transport: fetch committed WAL batches over HTTP.

    A tiny, dependency-free client for ``GET /replication/wal``.  Kept as
    its own object so the fault-injection harness can wrap it
    (:class:`repro.simulation.faults.FaultyReplicaLink`) with partitions,
    packet loss, and slow links without touching the replicator logic.
    """

    def __init__(self, address: tuple[str, int], timeout: float = 5.0) -> None:
        host, port = address
        self._base = f"http://{host}:{port}"
        self.timeout = timeout

    def fetch(self, after_seq: int, limit: int) -> dict:
        """One pull: ``{"epoch", "role", "last_seq", "records"}``.

        Raises ``OSError`` / ``urllib.error.URLError`` on transport
        failure and ``ValueError`` on an unusable body.
        """
        url = f"{self._base}/replication/wal?after_seq={after_seq}&limit={limit}"
        with urllib.request.urlopen(url, timeout=self.timeout) as response:
            body = json.loads(response.read())
        if not isinstance(body, dict) or "records" not in body:
            raise ValueError(f"malformed replication batch: {body!r}")
        return body


class StandbyReplicator:
    """The standby's pull loop: fetch, validate, apply, repeat.

    Runs as a daemon thread owned by a standby `PredictionServer`.  Every
    pulled batch is handed to the server's ``apply_shipped`` (sequence
    check, then the same log-and-apply commit the primary ran, under the
    ingest lock — the batch is one commit group, so one fsync), so standby
    state evolves exactly as the primary's did.
    Tracks replication lag (primary ``last_seq`` minus locally applied) and
    consecutive failed cycles; with ``auto_promote_after`` set, a primary
    silent for that long triggers self-promotion via the epoch CAS.
    """

    def __init__(self, server, config: ReplicationConfig, link=None) -> None:
        self._server = server
        self.config = config
        self.link = link if link is not None else HttpReplicaLink(
            config.primary_address, timeout=config.fetch_timeout
        )
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self.records_applied = 0
        self.lag_records: "int | None" = None
        self.last_fetch_ok: "float | None" = None
        self.consecutive_failures = 0
        self.last_error: "str | None" = None
        self.gap_detected = False

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="qos-standby-replicator", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is None:
            return
        if thread is threading.current_thread():
            # Auto-promotion stops the replicator from inside its own loop;
            # the loop exits right after, so there is nothing to join.
            self._thread = None
            return
        thread.join(timeout=timeout)
        self._thread = None

    # -- the pull loop -------------------------------------------------------
    def poll_once(self) -> int:
        """One synchronous fetch+apply cycle; returns records applied.

        Public so promotion can drain the primary's tail best-effort and
        tests can drive replication deterministically without the thread.
        """
        server = self._server
        batch = self.link.fetch(
            after_seq=server.wal_last_seq, limit=self.config.batch_limit
        )
        # The auto-promote timer measures the primary's silence and nothing
        # else: a batch this node then fails to apply (its own log is full,
        # its lifecycle setting differs) is this node's fault, and deposing
        # a primary that answers would turn it into a cluster-wide outage.
        self.last_fetch_ok = time.monotonic()
        epoch = int(batch.get("epoch", 0))
        if epoch < server.epoch:
            # A deposed primary still answering: never apply from a node
            # behind the epoch this standby has already witnessed.
            raise ValueError(
                f"refusing batch from stale epoch {epoch} < {server.epoch}"
            )
        if epoch > server.epoch:
            server.note_cluster_epoch(epoch)
        entries = [entry_from_wire(wire) for wire in batch["records"]]
        outcomes = server.apply_shipped(entries)
        applied = outcomes.count("applied")
        _APPLIED.inc(applied)
        self.records_applied += applied
        if "gap" in outcomes:
            self.gap_detected = True
            raise ReplicationGap(
                f"shipped seq {entries[len(outcomes) - 1][1]} leaves a hole "
                f"after local seq {server.wal_last_seq}"
            )
        self.lag_records = max(0, int(batch["last_seq"]) - server.wal_last_seq)
        _LAG.set(self.lag_records)
        self.consecutive_failures = 0
        self.last_error = None
        return applied

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                applied = self.poll_once()
            except ReplicationGap as exc:
                self.last_error = str(exc)
                _FETCH_ERRORS.inc()
                return  # unrecoverable by pulling; surfaced via status
            except Exception as exc:  # noqa: BLE001 — any pull failure counts
                self.consecutive_failures += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                _FETCH_ERRORS.inc()
                if self._should_auto_promote():
                    if self._server.promote():
                        return
                self._stop.wait(self.config.poll_interval)
                continue
            if applied == 0:
                self._stop.wait(self.config.poll_interval)

    def _should_auto_promote(self) -> bool:
        """Has the primary been silent for ``auto_promote_after`` seconds?
        Never before the first answer: a standby that has yet to hear from
        its primary has nothing to take over."""
        window, heard = self.config.auto_promote_after, self.last_fetch_ok
        if window is None or heard is None:
            return False
        return time.monotonic() - heard >= window

    def status(self) -> dict:
        return {
            "running": self.running,
            "records_applied": self.records_applied,
            "lag_records": self.lag_records,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "gap_detected": self.gap_detected,
        }


def note_shipped(count: int) -> None:
    """Primary-side tally of records served to standbys."""
    _SHIPPED.inc(count)


def note_stale_epoch() -> None:
    _STALE_EPOCH.inc()


def note_promotion(epoch: int) -> None:
    _PROMOTIONS.inc()
    _EPOCH.set(epoch)


def note_epoch(epoch: int) -> None:
    _EPOCH.set(epoch)
