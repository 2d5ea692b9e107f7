"""Horizontal scale-out: shard the model across N servers behind a router.

The single-process :class:`~repro.server.app.PredictionServer` caps out at
one core's kernel throughput and one heap's worth of entities.  This
package shards *users* across a fleet of full prediction servers — each
shard keeps its own WAL, checkpoints, sanitizer gate, lifecycle tiering,
and metrics, entirely unchanged — and puts a router in front that:

* routes observation and prediction traffic to the owning shard
  (rendezvous-hash placement, version-stamped table);
* merges ranked-candidate results, attaching authoritative per-service
  credence fetched from each service's *home* shard;
* aggregates ``/metrics`` (one exposition, samples labeled by shard) and
  ``/health`` across the fleet.

Placement is pure data (:class:`PlacementTable`): clients can fetch it
from ``GET /cluster/placement`` and talk to shards directly, and an
operator drains or rebalances by POSTing a table with a higher version.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "ClusterClient": "repro.cluster.client",
        "MigrationCoordinator": "repro.cluster.migration",
        "PlacementTable": "repro.cluster.placement",
        "ShardSpec": "repro.cluster.placement",
        "rendezvous_score": "repro.cluster.placement",
        "ClusterRouter": "repro.cluster.router",
        "MigrationConflict": "repro.cluster.router",
    },
)

__all__ = [
    "ClusterClient",
    "ClusterRouter",
    "MigrationConflict",
    "MigrationCoordinator",
    "PlacementTable",
    "ShardSpec",
    "rendezvous_score",
]
