"""The cluster router: one front door for a sharded fleet.

Data plane: observations and predictions are routed to the owning shard
(rendezvous placement over the version-stamped :class:`PlacementTable`)
through ordinary :class:`~repro.server.client.PredictionClient` instances
— one per shard, carrying the shard's full replica set, so fenced 409
replies from a shard's standby redirect *inside* the shard client exactly
as they do for a direct caller, without tripping any breaker.  Observes,
observe batches, batch predictions and credence reads travel as frames
on the shard clients' pooled binary connections (JSON/HTTP when a shard
offers no binary port), and one ranking's reads are all written before
any reply is awaited.  Callers reach the router the same two ways they
reach a shard: its JSON/HTTP listener, and a binary listener (advertised
in ``/status``) that answers a shard's opcodes plus ``PREDICT_ROUTED`` —
a ranking with everything ``POST /predictions/batch`` says here.

Control plane: ``GET /cluster/placement`` serves the current table so
clients can learn ownership and talk to shards directly; ``POST`` with a
strictly greater version installs a new table (drain, add, remove),
atomically swapping the routing state.

Fleet views: ``/metrics`` scrapes every shard and re-renders one
exposition with a ``shard`` label on every sample; ``/health`` rolls the
per-shard reports into ok / degraded / unavailable.

Error containment: a shard that cannot be reached surfaces as a
structured ``503 {"code": "shard_unavailable", "shard": ...}`` — a
*response*, not a transport failure, so callers' circuit breakers never
indict the router for a dead shard (the blast radius stays on the keys
the dead shard owns).

Live migration: ``POST /migration/start`` hands a target table to a
:class:`~repro.cluster.migration.MigrationCoordinator` that moves entity
state between shards batch by batch.  While a batch is in flight the
router write-blocks (and, inside the brief commit window, read-blocks)
exactly those entities — answered as a structured ``503
entity_migrating`` with ``Retry-After`` — and routes committed entities
through per-entity overrides until the target table is installed.  With
a ``data_dir``, the installed table and in-flight migration journal are
persisted via atomic temp-rename, so a restarted router keeps its drains
and resumes an interrupted migration.
"""

from __future__ import annotations

import json
import os
import threading

from repro.cluster.placement import PlacementTable
from repro.observability import get_registry, parse_prometheus_text
from repro.server.binary import (
    OP_CREDENCE,
    OP_OBSERVE,
    OP_OBSERVE_BATCH,
    OP_PING,
    OP_PREDICT_BATCH,
    OP_PREDICT_ROUTED,
    BinaryTransportServer,
)
from repro.server.client import (
    PredictionClient,
    PredictionServiceError,
)
from repro.server.http import BadRequest, HttpListener, ServiceError, check_id

_METRICS = get_registry()
_ROUTER_REQUESTS = _METRICS.counter(
    "qos_router_requests_total",
    "requests handled by the cluster router",
    labelnames=("route",),
)
_ROUTER_SHARD_ERRORS = _METRICS.counter(
    "qos_router_shard_errors_total",
    "shard requests that failed at the transport level",
    labelnames=("shard",),
)
_PLACEMENT_VERSION = _METRICS.gauge(
    "qos_cluster_placement_version", "current placement table version"
)
_MIGRATION_ACTIVE = _METRICS.gauge(
    "qos_cluster_migration_active", "1 while an entity migration is running"
)
_MIGRATION_ENTITIES = _METRICS.counter(
    "qos_cluster_migration_entities_total",
    "entities re-homed by committed migration batches",
)
_MIGRATION_BLOCKED = _METRICS.counter(
    "qos_cluster_migration_blocked_total",
    "requests answered 503 entity_migrating during a migration window",
)

#: A frame counts in ``qos_router_requests_total`` under the label of the
#: JSON route it stands for.
_FRAME_ROUTES = {
    OP_PING: "ping",
    OP_OBSERVE: "observations",
    OP_OBSERVE_BATCH: "observations/batch",
    OP_PREDICT_BATCH: "predictions/batch",
    OP_PREDICT_ROUTED: "predictions/batch",
    OP_CREDENCE: "credence",
}
_NAN = float("nan")


class _ShardUnavailable(ServiceError):
    """A structured answer, not a transport failure: the router is
    healthy, one shard is not.  The retry hint invites the caller back
    after the shard's supervisor has had a chance to act."""

    status = 503
    code = "shard_unavailable"

    def __init__(self, shard: str, cause: Exception) -> None:
        super().__init__(
            f"shard {shard!r} unavailable: {cause}", shard=shard, retry_after=1.0
        )
        self.shard = shard


class _EntityMigrating(ServiceError):
    """The entity is inside a migration window; the caller should retry
    shortly — the commit window per batch is a handful of shard calls."""

    status = 503
    code = "entity_migrating"

    def __init__(self, kind: str, ext_id: int) -> None:
        super().__init__(
            f"{kind} {ext_id} is migrating; retry shortly",
            entity=[kind, ext_id],
            retry_after=0.25,
        )
        self.retry_after = 0.25


class MigrationConflict(ServiceError):
    """A placement change cannot proceed: a migration is already active
    (``migration_active``), or the new table is not strictly newer than
    the installed one (``stale_placement``)."""

    status = 409


class ClusterRouter:
    """Routes a fleet of prediction-server shards behind one address.

    Args:
        placement:    initial :class:`PlacementTable`.
        port:         bind port on 127.0.0.1 (0 picks an ephemeral port).
        binary_port:  port of the binary listener on the same host (0, the
                      default, picks an ephemeral one; ``/status``
                      advertises whichever was bound).
        client_kwargs: extra :class:`PredictionClient` keyword arguments
                      applied to every shard client (breaker tuning,
                      transport selection, ...).
        data_dir:     directory for the persisted placement table and the
                      migration journal (atomic temp-rename).  When set,
                      a restart reloads whichever of the persisted and
                      boot tables has the higher version — drains and
                      committed rebalances survive the process — and an
                      interrupted migration resumes on :meth:`start`.

    Each shard client gets ``timeout`` seconds per attempt and
    ``shard_retries`` idempotent retries (writes are never retried without
    a key, same contract as a direct client).  ``handler_timeout`` is the
    socket timeout of the router's own HTTP handler (how long it will wait
    on a slow *caller*): at least the worst-case downstream budget, so
    drain-path reads that legitimately take a full shard-retry cycle are
    not cut off mid-answer.  ``max_body_bytes`` bounds a request body (413
    beyond it), as on a shard.
    """

    timeout = 5.0
    shard_retries = 0
    handler_timeout = 30.0
    max_body_bytes = 1 << 20

    def __init__(
        self,
        placement: PlacementTable,
        port: int = 0,
        binary_port: int = 0,
        client_kwargs: "dict | None" = None,
        data_dir: "str | None" = None,
    ) -> None:
        self._host = "127.0.0.1"
        self._port = port
        self._client_kwargs = dict(client_kwargs or {})
        self._lock = threading.Lock()  # placement + client-map swaps
        self._clients: dict[str, PredictionClient] = {}
        self._placement: "PlacementTable | None" = None
        # Migration routing state, all guarded by self._lock:
        self._blocked: dict[tuple[str, int], str] = {}  # key -> "w" | "rw"
        self._overrides: dict[tuple[str, int], str] = {}  # key -> dest shard
        self._write_freeze: "PlacementTable | None" = None
        self._extra_shards: dict[str, object] = {}  # target-only shards
        self._migration_lock = threading.Lock()
        self._migration = None  # active MigrationCoordinator
        self._last_migration: "dict | None" = None
        self.data_dir = data_dir
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            persisted = self._load_json(self._placement_path)
            if persisted is not None:
                table = PlacementTable.from_dict(persisted)
                if table.version >= placement.version:
                    placement = table
        self._install(placement)
        self._resume_state = (
            self._load_json(self._migration_path) if data_dir is not None else None
        )
        if self._resume_state is not None:
            # Committed overrides must route correctly before any
            # traffic is served; the coordinator itself restarts in
            # start().
            for kind, ext_id, dest in self._resume_state.get("overrides", ()):
                self._overrides[(str(kind), int(ext_id))] = str(dest)
        self._httpd: "HttpListener | None" = None
        self._binary = BinaryTransportServer(
            (self._host, binary_port),
            self._frames(),
            max_body_bytes=self.max_body_bytes,
            on_request=self._count_frame,
        )

    # -- persistence ----------------------------------------------------------
    @property
    def _placement_path(self) -> str:
        return os.path.join(self.data_dir, "placement.json")

    @property
    def _migration_path(self) -> str:
        return os.path.join(self.data_dir, "migration.json")

    @staticmethod
    def _load_json(path: str):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    @staticmethod
    def _persist_json(path: str, obj) -> None:
        """Atomic write: a crash leaves either the old file or the new
        one, never a torn mix."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # -- placement ------------------------------------------------------------
    @property
    def placement(self) -> PlacementTable:
        with self._lock:
            return self._placement

    def _install(self, table: PlacementTable) -> None:
        clients = {}
        with self._lock:
            old_clients = dict(self._clients)
            for shard in table.shards:
                if not shard.addresses:
                    raise ValueError(
                        f"shard {shard.name!r} has no addresses to route to"
                    )
                existing = old_clients.get(shard.name)
                if (
                    existing is not None
                    and tuple(existing.endpoints)
                    == tuple(
                        f"http://{h}:{p}" for h, p in shard.addresses
                    )
                ):
                    # Same endpoints: keep the client and its learned
                    # primary/breaker state across the version bump.
                    clients[shard.name] = existing
                else:
                    clients[shard.name] = PredictionClient(
                        list(shard.addresses),
                        timeout=self.timeout,
                        retries=self.shard_retries,
                        **self._client_kwargs,
                    )
            dropped = set(old_clients) - set(clients)
            self._placement = table
            self._clients = clients
            self._extra_shards = {}
            _PLACEMENT_VERSION.set(table.version)
        for name in dropped:
            old_clients[name].close()
        if self.data_dir is not None:
            self._persist_json(self._placement_path, table.to_dict())

    def update_placement(self, table: PlacementTable) -> None:
        """Install a new table; the version must strictly increase."""
        if table.version <= self._placement.version:
            raise MigrationConflict(
                f"placement version {table.version} is not newer than "
                f"{self._placement.version}",
                code="stale_placement",
                version=self._placement.version,
            )
        self._install(table)

    def _route(self, kind: str, ext_id: int, write: bool = False):
        key = (kind, int(ext_id))
        with self._lock:
            mode = self._blocked.get(key)
            if mode is not None and (write or mode == "rw"):
                _MIGRATION_BLOCKED.inc()
                raise _EntityMigrating(kind, ext_id)
            if write and self._write_freeze is not None:
                # Pre-commit freeze: a write whose owner differs between
                # the installed and target tables would land on a shard
                # about to lose the entity — refuse it for the short
                # convergence window instead.
                if (
                    self._write_freeze.owner_of(kind, ext_id).name
                    != self._placement.owner_of(kind, ext_id).name
                ):
                    _MIGRATION_BLOCKED.inc()
                    raise _EntityMigrating(kind, ext_id)
            dest = self._overrides.get(key)
            if dest is not None:
                shard = self._extra_shards.get(dest)
                if shard is None:
                    shard = self._placement.shard(dest)
                return shard, self._clients[dest]
            shard = self._placement.owner_of(kind, ext_id)
            return shard, self._clients[shard.name]

    def shard_client(self, name: str) -> PredictionClient:
        """The router's client for one shard (drain reads, migration,
        tests)."""
        with self._lock:
            return self._clients[name]

    # -- migration ------------------------------------------------------------
    def start_migration(
        self,
        target: PlacementTable,
        mid: "str | None" = None,
        on_phase=None,
        batch_entities: int = 64,
        state: "dict | None" = None,
    ):
        """Start (or resume, when ``state`` is a persisted journal) a
        live migration to ``target``.  Returns the running
        :class:`~repro.cluster.migration.MigrationCoordinator`."""
        from repro.cluster.migration import MigrationCoordinator

        with self._migration_lock:
            if self._migration is not None and self._migration.active:
                raise MigrationConflict(
                    f"migration {self._migration.mid!r} is already active",
                    code="migration_active",
                    version=self.placement.version,
                )
            if target.version <= self.placement.version:
                raise MigrationConflict(
                    f"target version {target.version} is not newer than "
                    f"installed version {self.placement.version}",
                    code="stale_placement",
                    version=self.placement.version,
                )
            self._ensure_shards(target)
            coordinator = MigrationCoordinator(
                self,
                target,
                mid=mid,
                on_phase=on_phase,
                batch_entities=batch_entities,
                state=state,
            )
            self._migration = coordinator
            if self.data_dir is not None and state is None:
                # Journal before the first action so a kill immediately
                # after start is resumable.
                self._persist_migration(coordinator.state_dict())
            _MIGRATION_ACTIVE.set(1)
            coordinator.start()
            return coordinator

    @property
    def migration(self):
        """The active (or most recently started) coordinator, if any."""
        with self._migration_lock:
            return self._migration

    def migration_status(self) -> dict:
        with self._migration_lock:
            coordinator = self._migration
            last = self._last_migration
        if coordinator is None:
            return {"active": False, "last": last}
        body = {
            "active": coordinator.active,
            "mid": coordinator.mid,
            "target_version": coordinator.target.version,
            "progress": coordinator.progress_snapshot(),
            "last": last,
        }
        if coordinator.error is not None:
            body["error"] = str(coordinator.error)
        return body

    def _ensure_shards(self, table: PlacementTable) -> None:
        """Make every shard of ``table`` reachable *now*: migration
        destinations may be new shards that are not in the installed
        table yet (scale-out), but overrides must route to them before
        the target table is committed."""
        with self._lock:
            for shard in table.shards:
                if shard.name in self._clients:
                    continue
                if not shard.addresses:
                    raise ValueError(
                        f"shard {shard.name!r} has no addresses to route to"
                    )
                self._clients[shard.name] = PredictionClient(
                    list(shard.addresses),
                    timeout=self.timeout,
                    retries=self.shard_retries,
                    **self._client_kwargs,
                )
                self._extra_shards[shard.name] = shard

    def _block_entities(self, entities, reads: bool) -> None:
        mode = "rw" if reads else "w"
        with self._lock:
            for kind, ext_id in entities:
                self._blocked[(kind, int(ext_id))] = mode

    def _unblock_entities(self, entities) -> None:
        with self._lock:
            for kind, ext_id in entities:
                self._blocked.pop((kind, int(ext_id)), None)

    def _add_overrides(self, entities, dest: str) -> None:
        with self._lock:
            for kind, ext_id in entities:
                self._overrides[(kind, int(ext_id))] = dest
        _MIGRATION_ENTITIES.inc(len(entities))

    def overrides_state(self) -> list:
        with self._lock:
            return [
                [kind, ext_id, dest]
                for (kind, ext_id), dest in sorted(self._overrides.items())
            ]

    def _set_write_freeze(self, target: "PlacementTable | None") -> None:
        with self._lock:
            self._write_freeze = target

    def _persist_migration(self, state: dict) -> None:
        if self.data_dir is not None:
            self._persist_json(self._migration_path, state)

    def _commit_migration(self, target: PlacementTable) -> None:
        """The final flip: install the target table, drop the overrides
        and freeze (the table now routes everything correctly), and
        retire the journal."""
        self._install(target)
        with self._lock:
            self._overrides.clear()
            self._write_freeze = None
        if self.data_dir is not None:
            try:
                os.remove(self._migration_path)
            except FileNotFoundError:
                pass

    def _migration_finished(self, coordinator) -> None:
        """Coordinator thread's exit hook (success, abort, or error)."""
        _MIGRATION_ACTIVE.set(0)
        with self._migration_lock:
            if coordinator.result is not None:
                self._last_migration = coordinator.result

    # -- lifecycle ------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("router is not running")
        return self._httpd.address

    @property
    def binary_address(self) -> "tuple[str, int] | None":
        """(host, port) of the binary listener; ``None`` unless running."""
        return self._binary.address if self._binary.running else None

    def start(self) -> None:
        if self._httpd is not None:
            return
        # The binary listener first, so the first /status already
        # advertises it.
        self._binary.start()
        try:
            self._httpd = HttpListener(
                (self._host, self._port),
                self._routes(),
                name="qos-cluster-router",
                max_body_bytes=self.max_body_bytes,
                timeout=self.handler_timeout,
                on_request=lambda path: _ROUTER_REQUESTS.labels(
                    route=path.lstrip("/")
                ).inc(),
            )
        except BaseException:
            self._binary.stop()
            raise
        if self._resume_state is not None:
            state, self._resume_state = self._resume_state, None
            self.start_migration(
                PlacementTable.from_dict(state["target"]),
                mid=state.get("mid"),
                batch_entities=int(state.get("batch_entities", 64)),
                state=state,
            )

    def stop(self) -> None:
        """Graceful stop: abort any running migration (its journal stays
        on disk, so a restarted router resumes it) and shut down."""
        with self._migration_lock:
            coordinator = self._migration
        if coordinator is not None:
            coordinator.abort()
            if threading.current_thread() is not coordinator._thread:
                coordinator.join(timeout=5.0)
        if self._httpd is not None:
            listener, self._httpd = self._httpd, None
            listener.stop()
        self._binary.stop()
        with self._lock:
            clients = list(self._clients.values())
        for client in clients:
            client.close()

    def kill(self) -> None:
        """Crash simulation for the chaos drill: abort the coordinator
        mid-action and drop both front ends without any graceful
        persistence — identical to SIGKILL as far as the journal is
        concerned (whatever was last atomically persisted is what a
        successor router sees)."""
        self.stop()

    def __enter__(self) -> "ClusterRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- shard call boundary --------------------------------------------------
    @staticmethod
    def _call(shard, fn):
        """Run one shard request, converting transport-level failures
        (no HTTP status: refused / reset / timed out) into
        :class:`_ShardUnavailable`.  Shard *answers* — including fenced
        409s that the shard client could not redirect away — pass
        through unchanged so the caller sees exactly what a direct
        client would."""
        try:
            return fn()
        except PredictionServiceError as exc:
            if getattr(exc, "status", None) is None:
                _ROUTER_SHARD_ERRORS.labels(shard=shard.name).inc()
                raise _ShardUnavailable(shard.name, exc) from exc
            raise

    # -- data plane -----------------------------------------------------------
    def _handle_observation(self, payload: dict) -> dict:
        user_id = check_id(payload.get("user_id"), "user_id")
        # The shard hop is a binary frame, which would truncate a bad id.
        check_id(payload.get("service_id"), "service_id")
        shard, client = self._route("user", user_id, write=True)
        body = self._call(shard, lambda: client.report_observation_detailed(payload))
        body["shard"] = shard.name
        return body

    def _handle_observation_batch(self, payload: dict) -> dict:
        observations = payload.get("observations")
        if not isinstance(observations, list):
            raise BadRequest("field 'observations' must be a list")
        # Split by owner, preserving each record's original index so the
        # merged reply reads exactly like a single shard's.
        groups: dict[str, tuple[object, list[tuple[int, dict]]]] = {}
        bad: list[dict] = []
        for index, record in enumerate(observations):
            try:
                if not isinstance(record, dict):
                    raise BadRequest("observation must be an object")
                user_id = check_id(record.get("user_id"), "user_id")
                # Checked here too: the shard hop is a frame (see above).
                check_id(record.get("service_id"), "service_id")
            except BadRequest as exc:
                bad.append({"index": index, "error": str(exc)})
                continue
            try:
                shard, _ = self._route("user", user_id, write=True)
            except _EntityMigrating as exc:
                bad.append(
                    {
                        "index": index,
                        "error": str(exc),
                        "code": "entity_migrating",
                        "retry_after": exc.retry_after,
                    }
                )
                continue
            groups.setdefault(shard.name, (shard, []))[1].append((index, record))
        accepted = 0
        rejected = list(bad)
        # Per-record order is preserved within a shard; across shards the
        # errors are grouped by (sorted) shard name — a shard also omits
        # entries for deduplicated/quarantined records, so a global
        # index-aligned list is not reconstructible here.
        sample_errors: list[float] = []
        shards_used = []
        for name, (shard, members) in sorted(groups.items()):
            client = self.shard_client(name)
            sub = [record for _, record in members]
            try:
                body = self._call(
                    shard,
                    lambda c=client, s=sub: c.report_observations_detailed(s),
                )
            except _ShardUnavailable as exc:
                rejected.extend(
                    {
                        "index": index,
                        "error": str(exc),
                        "code": "shard_unavailable",
                        "shard": name,
                    }
                    for index, _ in members
                )
                continue
            shards_used.append(name)
            accepted += int(body.get("accepted", 0))
            for item in body.get("rejected", []):
                rejected.append(
                    {**item, "index": members[item["index"]][0], "shard": name}
                )
            errors = body.get("sample_errors")
            if isinstance(errors, list):
                sample_errors.extend(errors)
        rejected.sort(key=lambda item: item["index"])
        return {
            "accepted": accepted,
            "rejected": rejected,
            "sample_errors": sample_errors,
            "shards": shards_used,
            "placement_version": self.placement.version,
        }

    def _handle_prediction(self, query: dict) -> dict:
        try:
            user_id = int(query["user_id"][0])
            service_id = int(query["service_id"][0])
        except (KeyError, ValueError, IndexError) as exc:
            raise BadRequest(
                "query must include integer user_id and service_id"
            ) from exc
        shard, client = self._route("user", user_id)
        body = self._call(
            shard, lambda: client.predict_detailed(user_id, service_id)
        )
        body["shard"] = shard.name
        return body

    def _credence_homes(self, service_ids: list[int]) -> list:
        """``(shard, ids)`` per home shard of ``service_ids``.  Routing
        comes before any frame is written, so an entity inside a
        migration window refuses the request with nothing in flight."""
        homes: dict[str, tuple[object, list[int]]] = {}
        for service_id in service_ids:
            shard, _ = self._route("service", service_id)
            homes.setdefault(shard.name, (shard, []))[1].append(service_id)
        return [homes[name] for name in sorted(homes)]

    def _begin_credence(self, homes: list, after: "dict | None" = None) -> list:
        """Ask each home shard for its services' credence without waiting
        for the answers; :meth:`_gather_credence` collects them.

        ``after`` maps a shard name to a read already begun on that
        shard's client — the credence frame follows it down the same
        connection.
        """
        after = after or {}
        return [
            (
                shard,
                ids,
                self.shard_client(shard.name).begin_credence(
                    ids, after.get(shard.name)
                ),
            )
            for shard, ids in homes
        ]

    def _gather_credence(self, pending: list) -> "tuple[dict[int, float], list[str]]":
        """Authoritative credence per service from its home shard.

        Returns ``(credence, unreachable_shards)`` — a dead home shard
        degrades the rank response (those services miss their credence)
        instead of failing it; the prediction itself came from the live
        user shard.
        """
        credence: dict[int, float] = {}
        unreachable: list[str] = []
        for shard, ids, call in pending:
            try:
                values = self._call(shard, call.result)
            except _ShardUnavailable:
                unreachable.append(shard.name)
                continue
            credence.update(zip(ids, values))
        return credence, unreachable

    def _predict_batch(self, user_id, raw_ids):
        """One routed ranking: the shared core of ``POST
        /predictions/batch`` and the ``PREDICT_BATCH`` / ``PREDICT_ROUTED``
        opcodes.  Returns ``(service_ids, values, sources, credence,
        unreachable, shard_name)`` — the first three aligned, ``credence``
        keyed by service id, ``unreachable`` as :meth:`_gather_credence`."""
        check_id(user_id, "user_id")
        if not isinstance(raw_ids, list) or not raw_ids:
            raise BadRequest("field 'service_ids' must be a non-empty list")
        service_ids = [check_id(raw, "service_ids") for raw in raw_ids]
        shard, client = self._route("user", user_id)
        # Scatter, then gather: the user's shard predicts while the home
        # shards look up credence, so the ranking waits for the slowest
        # shard rather than for each in turn.
        homes = self._credence_homes(list(dict.fromkeys(service_ids)))
        predict = client.begin_predict_batch(user_id, service_ids)
        pending = self._begin_credence(homes, {shard.name: predict})
        try:
            values, sources, _ = self._call(shard, predict.result)
        finally:
            credence, unreachable = self._gather_credence(pending)
        return service_ids, values, sources, credence, unreachable, shard.name

    def _handle_prediction_batch(self, payload: dict) -> dict:
        user_id = payload.get("user_id")
        service_ids, values, sources, credence, unreachable, shard = (
            self._predict_batch(user_id, payload.get("service_ids"))
        )
        keys = [str(service_id) for service_id in service_ids]
        body = {
            "user_id": user_id,
            "predictions": dict(zip(keys, values)),
            "sources": dict(zip(keys, sources)),
            "shard": shard,
            "credence": {str(s): value for s, value in credence.items()},
        }
        if unreachable:
            body["credence_partial"] = unreachable
        body["placement_version"] = self.placement.version
        return body

    def _handle_rank(self, payload: dict) -> dict:
        """Merged ranked candidates: predictions from the user's shard,
        credence from each service's home shard, ranked here."""
        body = self._handle_prediction_batch(payload)
        prefer = payload.get("prefer", "min")
        if prefer not in ("min", "max"):
            raise BadRequest("field 'prefer' must be 'min' or 'max'")
        k = payload.get("k")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
            raise BadRequest("field 'k' must be a positive integer")
        entries = [
            {
                "service_id": int(service_id),
                "prediction": value,
                "source": body.get("sources", {}).get(service_id),
                "credence": body["credence"].get(service_id),
            }
            for service_id, value in body["predictions"].items()
        ]
        entries.sort(
            key=lambda e: (e["prediction"], e["service_id"]),
            reverse=(prefer == "max"),
        )
        if k is not None:
            entries = entries[:k]
        return {
            "user_id": body["user_id"],
            "ranked": entries,
            "shard": body["shard"],
            "credence_partial": body.get("credence_partial", []),
            "placement_version": body["placement_version"],
        }

    def _credence(self, service_ids: list[int]) -> "tuple[dict[int, float], list[str]]":
        """Credence of ``service_ids`` from their home shards: the shared
        core of ``GET /credence`` and the ``CREDENCE`` opcode."""
        if not service_ids:
            raise BadRequest("service_ids must be non-empty")
        return self._gather_credence(
            self._begin_credence(
                self._credence_homes(list(dict.fromkeys(service_ids)))
            )
        )

    def _handle_credence(self, query: dict) -> dict:
        try:
            raw = query["service_ids"][0]
            service_ids = [int(part) for part in raw.split(",") if part != ""]
        except (KeyError, IndexError, ValueError) as exc:
            raise BadRequest(
                "query must include service_ids as comma-separated integers"
            ) from exc
        credence, unreachable = self._credence(service_ids)
        body = {
            "credence": {str(s): value for s, value in credence.items()},
            "placement_version": self.placement.version,
        }
        if unreachable:
            body["credence_partial"] = unreachable
        return body

    # -- binary front end -----------------------------------------------------
    @staticmethod
    def _count_frame(opcode: int) -> None:
        route = _FRAME_ROUTES.get(opcode)
        if route is not None:
            _ROUTER_REQUESTS.labels(route=route).inc()

    def _frame_predict_batch(self, user_id: int, service_ids: list[int]):
        """``PREDICT_BATCH`` as a shard answers it: ``(values, sources)``."""
        _, values, sources, *_ = self._predict_batch(user_id, service_ids)
        return values, sources

    def _frame_predict_routed(self, user_id: int, service_ids: list[int]):
        """``PREDICT_ROUTED``: the ranking plus what only the router knows
        — credence per id (NaN where its home shard was unreachable), the
        placement version, the answering shard, the unreachable shards."""
        service_ids, values, sources, credence, unreachable, shard = (
            self._predict_batch(user_id, service_ids)
        )
        return (
            values,
            sources,
            [credence.get(service_id, _NAN) for service_id in service_ids],
            self.placement.version,
            shard,
            unreachable,
        )

    def _frame_credence(self, service_ids: list[int]) -> list[float]:
        credence, _ = self._credence(service_ids)
        return [credence.get(service_id, _NAN) for service_id in service_ids]

    def _frames(self) -> dict:
        """The router's binary surface
        (:class:`~repro.server.binary.BinaryTransportServer` handlers): a
        shard's opcodes with a shard's meaning, answered by the methods
        behind the JSON routes, plus ``PREDICT_ROUTED``."""
        return {
            OP_OBSERVE: self._handle_observation,
            OP_OBSERVE_BATCH: self._handle_observation_batch,
            OP_PREDICT_BATCH: self._frame_predict_batch,
            OP_PREDICT_ROUTED: self._frame_predict_routed,
            OP_CREDENCE: self._frame_credence,
        }

    # -- fleet views ----------------------------------------------------------
    def _fanout(self, fn) -> dict:
        """Run ``fn(shard, client)`` against every shard; unreachable
        shards are reported, not raised."""
        with self._lock:
            pairs = [
                (shard, self._clients[shard.name])
                for shard in self._placement.shards
            ]
        results: dict[str, object] = {}
        for shard, client in pairs:
            try:
                results[shard.name] = self._call(
                    shard, lambda s=shard, c=client: fn(s, c)
                )
            except _ShardUnavailable as exc:
                results[shard.name] = exc
            except PredictionServiceError as exc:
                results[shard.name] = exc
        return results

    def _handle_health(self) -> tuple[int, dict]:
        results = self._fanout(
            lambda shard, client: client.health()
        )
        shards = {}
        ready = 0
        for name, result in sorted(results.items()):
            if isinstance(result, Exception):
                shards[name] = {"status": "unreachable", "error": str(result)}
            else:
                shards[name] = result
                if result.get("status") == "ok":
                    ready += 1
        total = len(shards)
        if ready == total:
            status, code = "ok", 200
        elif ready > 0:
            status, code = "degraded", 200
        else:
            status, code = "unavailable", 503
        return code, {
            "status": status,
            "shards_ready": ready,
            "shards_total": total,
            "placement_version": self.placement.version,
            "shards": shards,
        }

    def _handle_status(self) -> dict:
        results = self._fanout(lambda shard, client: client.status())
        shards = {}
        for name, result in sorted(results.items()):
            if isinstance(result, Exception):
                shards[name] = {"reachable": False, "error": str(result)}
            else:
                result["reachable"] = True
                shards[name] = result
        binary_address = self.binary_address
        return {
            "placement": self.placement.to_dict(),
            "shards": shards,
            "transport": {
                "binary_address": (
                    list(binary_address) if binary_address is not None else None
                ),
            },
        }

    def _handle_metrics(self) -> str:
        """One fleet-wide Prometheus exposition.

        Every shard's exposition is strictly parsed and re-rendered with
        a ``shard`` label injected into each sample, so per-shard series
        stay distinguishable while the family set (TYPE declarations)
        merges cleanly.  The router's own families ride along unlabeled.
        """
        results = self._fanout(lambda shard, client: client.metrics())
        families: dict[str, dict] = {}
        for name in sorted(results):
            result = results[name]
            if isinstance(result, Exception):
                continue  # dead shard: its series go stale, scrape survives
            for family_name, family in parse_prometheus_text(result).items():
                merged = families.setdefault(
                    family_name, {"type": family["type"], "samples": {}}
                )
                for (sample_name, labels), value in family["samples"].items():
                    labeled = tuple(sorted(labels + (("shard", name),)))
                    merged["samples"][(sample_name, labeled)] = value
        lines = []
        for family_name in sorted(families):
            family = families[family_name]
            lines.append(f"# TYPE {family_name} {family['type']}")
            for (sample_name, labels), value in sorted(
                family["samples"].items()
            ):
                if labels:
                    rendered = ",".join(
                        f'{label}="{text}"' for label, text in labels
                    )
                    lines.append(f"{sample_name}{{{rendered}}} {value}")
                else:
                    lines.append(f"{sample_name} {value}")
        return "\n".join(lines) + "\n"

    # -- control plane --------------------------------------------------------
    @staticmethod
    def _parse_table(raw) -> PlacementTable:
        try:
            return PlacementTable.from_dict(raw)
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc

    def _handle_placement(self, payload: dict) -> dict:
        table = self._parse_table(payload)
        active = self.migration
        if active is not None and active.active:
            # A bare table swap would race the coordinator's overrides —
            # rebalance through /migration/start while one is running.
            raise MigrationConflict(
                "a live migration is active; placement changes must go "
                "through it",
                code="migration_active",
                mid=active.mid,
            )
        self.update_placement(table)
        return self.placement.to_dict()

    def _handle_migration_start(self, payload: dict) -> dict:
        raw_target = payload.get("target")
        if not isinstance(raw_target, dict):
            raise BadRequest("field 'target' must be a placement table object")
        table = self._parse_table(raw_target)
        batch_entities = payload.get("batch_entities", 64)
        if not isinstance(batch_entities, int) or batch_entities < 1:
            raise BadRequest("field 'batch_entities' must be a positive integer")
        coordinator = self.start_migration(table, batch_entities=batch_entities)
        return {"mid": coordinator.mid, "target_version": table.version}

    def _routes(self) -> dict:
        """The router's HTTP surface
        (:class:`~repro.server.http.HttpListener` routes)."""
        return {
            ("GET", "/cluster/placement"): lambda query: self.placement.to_dict(),
            ("GET", "/migration/status"): lambda query: self.migration_status(),
            ("GET", "/predictions"): self._handle_prediction,
            ("GET", "/credence"): self._handle_credence,
            ("GET", "/health"): lambda query: self._handle_health(),
            ("GET", "/status"): lambda query: self._handle_status(),
            ("GET", "/metrics"): lambda query: self._handle_metrics(),
            ("POST", "/observations"): self._handle_observation,
            ("POST", "/observations/batch"): self._handle_observation_batch,
            ("POST", "/predictions/batch"): self._handle_prediction_batch,
            ("POST", "/rank/candidates"): self._handle_rank,
            ("POST", "/cluster/placement"): self._handle_placement,
            ("POST", "/migration/start"): self._handle_migration_start,
        }
