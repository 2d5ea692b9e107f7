"""Client for a sharded fleet, speaking to the cluster router.

A thin wrapper over :class:`~repro.server.client.PredictionClient` bound
to the router's address — the router's structured error bodies (including
``shard_unavailable`` 503s and passed-through fencing 409s) carry HTTP
statuses, so the inherited breaker/retry machinery treats a dead *shard*
as a server answer, never as a router transport failure.

Single observations and candidate rankings — the calls Section III's
loop makes per invocation — travel as frames on pooled persistent
connections to the router's binary listener, under the inherited
``transport`` rules (``"auto"`` by default; ``transport="json"`` pins
JSON/HTTP).  Calls whose replies carry per-item codes and shard lists no
frame has (batches, credence, rank, placement, migration, fleet views)
are always JSON.

The client also caches the fleet's placement table
(``GET /cluster/placement``) so callers can learn ownership — e.g. to
partition a load generator by home shard, or to talk to a shard directly
during a drain.  The cache refreshes on demand and whenever a response's
``placement_version`` is newer than the cached table.
"""

from __future__ import annotations

import math
import random
import threading
import time

from repro.cluster.placement import PlacementTable
from repro.server.binary import (
    OP_PREDICT_ROUTED,
    pack_predict_request,
    source_names,
    unpack_routed_response,
)
from repro.server.client import (
    PredictionClient,
    PredictionServiceError,
    _expect_count,
    _Frame,
)


def _routed_predict_frame(user_id: int, service_ids: "list[int]") -> _Frame:
    """``POST /predictions/batch`` on the router in both encodings; either
    reply becomes the dict :meth:`ClusterClient.predict_candidates_detailed`
    returns.  ``service_ids`` must be unique."""

    def from_binary(body: bytes) -> dict:
        values, codes, credence, version, shard, partial = unpack_routed_response(
            body
        )
        _expect_count(values, service_ids)
        return {
            "user_id": user_id,
            "predictions": dict(zip(service_ids, values)),
            "sources": dict(zip(service_ids, source_names(codes))),
            "credence": {
                s: value
                for s, value in zip(service_ids, credence)
                if not math.isnan(value)
            },
            "credence_partial": partial,
            "shard": shard,
            "placement_version": version,
        }

    def from_json(body: dict) -> dict:
        return {
            "user_id": user_id,
            "predictions": {
                int(k): float(v) for k, v in body["predictions"].items()
            },
            "sources": {int(k): v for k, v in body.get("sources", {}).items()},
            "credence": {
                int(k): float(v) for k, v in body.get("credence", {}).items()
            },
            "credence_partial": body.get("credence_partial", []),
            "shard": body.get("shard"),
            "placement_version": body.get("placement_version"),
        }

    return _Frame(
        lambda: pack_predict_request(user_id, service_ids, OP_PREDICT_ROUTED),
        OP_PREDICT_ROUTED,
        from_binary,
        from_json,
    )


class ClusterClient:
    """Fleet client bound to one cluster-router address.

    Keyword arguments are forwarded to the underlying
    :class:`PredictionClient` (timeouts, retries, breaker tuning,
    ``transport``...).

    Placement refreshes that keep failing during a rebalance back off
    exponentially with jitter (from ``_REFRESH_BACKOFF`` seconds up to
    ``_REFRESH_BACKOFF_MAX``): a fleet of clients that all notice a newer
    ``placement_version`` at once must not thundering-herd the router —
    each client keeps serving its cached table and retries the refresh
    at its own randomized cadence.
    """

    _REFRESH_BACKOFF = 0.25
    _REFRESH_BACKOFF_MAX = 5.0

    def __init__(self, router_address: tuple, **client_kwargs) -> None:
        self._router = PredictionClient(router_address, **client_kwargs)
        self._lock = threading.Lock()
        self._placement: "PlacementTable | None" = None
        self._refresh_failures = 0
        self._refresh_not_before = 0.0
        self._refresh_rng = random.Random()

    # -- placement ------------------------------------------------------------
    def placement(self, refresh: bool = False) -> PlacementTable:
        """The fleet's placement table (cached until a newer version is
        seen in a response, or ``refresh=True``)."""
        with self._lock:
            cached = self._placement
        if cached is not None and not refresh:
            return cached
        table = PlacementTable.from_dict(
            self._router._request("GET", "/cluster/placement")
        )
        with self._lock:
            if self._placement is None or table.version >= self._placement.version:
                self._placement = table
            return self._placement

    def _note_version(self, version) -> None:
        """Opportunistic refresh when a response advertises a newer
        table.  Refresh failures back off with jitter (the cached table
        keeps serving — at worst a request is routed by the router's
        newer table anyway); a success resets the backoff."""
        if not isinstance(version, int):
            return
        now = time.monotonic()
        with self._lock:
            stale = self._placement is not None and version > self._placement.version
            if not stale or now < self._refresh_not_before:
                return
        try:
            self.placement(refresh=True)
        except (PredictionServiceError, ValueError):
            with self._lock:
                self._refresh_failures += 1
                delay = min(
                    self._REFRESH_BACKOFF * (2.0 ** (self._refresh_failures - 1)),
                    self._REFRESH_BACKOFF_MAX,
                )
                self._refresh_not_before = now + delay * (
                    0.5 + self._refresh_rng.random()
                )
        else:
            with self._lock:
                self._refresh_failures = 0
                self._refresh_not_before = 0.0

    def owner_of(self, kind: str, ext_id: int):
        """Home shard of a key under the cached placement."""
        return self.placement().owner_of(kind, ext_id)

    def update_placement(self, table: PlacementTable) -> dict:
        """Install a new table on the router (drain / rebalance); the
        version must be strictly newer or the router answers 409."""
        body = self._router._request(
            "POST", "/cluster/placement", table.to_dict(), idempotent=False
        )
        with self._lock:
            self._placement = PlacementTable.from_dict(body)
        return body

    def start_migration(
        self, target: PlacementTable, batch_entities: "int | None" = None
    ) -> dict:
        """Kick off a live entity migration to ``target`` on the router
        (state moves with ownership; see :mod:`repro.cluster.migration`)."""
        payload: dict = {"target": target.to_dict()}
        if batch_entities is not None:
            payload["batch_entities"] = int(batch_entities)
        return self._router._request(
            "POST", "/migration/start", payload, idempotent=False
        )

    def migration_status(self) -> dict:
        return self._router._request("GET", "/migration/status")

    # -- data plane -----------------------------------------------------------
    def report_observation(
        self,
        user_id: int,
        service_id: int,
        value: float,
        timestamp: float,
        idempotency_key: "str | None" = None,
        deadline: "float | None" = None,
    ) -> float:
        return self._router.report_observation(
            user_id,
            service_id,
            value,
            timestamp,
            idempotency_key=idempotency_key,
            deadline=deadline,
        )

    def report_observations_detailed(self, observations: "list[dict]") -> dict:
        """Per-record outcomes with the router's ``code`` / ``shard`` on
        each rejection and the ``shards`` that took part — more than the
        ``OBSERVE_BATCH`` frame carries, so always JSON."""
        body = self._router._request(
            "POST", "/observations/batch", {"observations": observations}, write=True
        )
        self._note_version(body.get("placement_version"))
        return body

    def predict(self, user_id: int, service_id: int) -> float:
        return self._router.predict(user_id, service_id)

    def predict_candidates(self, user_id, service_ids) -> dict:
        return self.predict_candidates_detailed(user_id, service_ids)[
            "predictions"
        ]

    def predict_candidates_detailed(self, user_id, service_ids) -> dict:
        """Batch predictions plus merged per-service credence from each
        service's home shard (``credence`` map; ``credence_partial``
        lists home shards that could not be reached)."""
        user_id = int(user_id)
        unique_ids = list(dict.fromkeys(int(s) for s in service_ids))
        detail = self._router._request(
            "POST",
            "/predictions/batch",
            {"user_id": user_id, "service_ids": unique_ids},
            idempotent=True,
            binary=_routed_predict_frame(user_id, unique_ids),
        )
        self._note_version(detail["placement_version"])
        return detail

    def rank_candidates(
        self,
        user_id: int,
        service_ids,
        k: "int | None" = None,
        prefer: str = "min",
    ) -> dict:
        """Router-merged ranked candidates (see ``POST /rank/candidates``)."""
        payload = {
            "user_id": int(user_id),
            "service_ids": [int(s) for s in service_ids],
            "prefer": prefer,
        }
        if k is not None:
            payload["k"] = int(k)
        body = self._router._request(
            "POST", "/rank/candidates", payload, idempotent=True
        )
        self._note_version(body.get("placement_version"))
        return body

    def credence(self, service_ids) -> dict[int, float]:
        body = self._router._request(
            "GET",
            "/credence?service_ids="
            + ",".join(str(int(s)) for s in dict.fromkeys(service_ids)),
        )
        self._note_version(body.get("placement_version"))
        return {int(k): float(v) for k, v in body["credence"].items()}

    # -- fleet views ----------------------------------------------------------
    def health(self) -> dict:
        return self._router.health()

    def status(self) -> dict:
        return self._router.status()

    def metrics(self) -> str:
        return self._router.metrics()

    def close(self) -> None:
        self._router.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
