"""JSON-over-HTTP interface to the QoS prediction service (Fig. 3).

The paper's prediction module serves users "transparently through a
standard interface"; this package provides one: a threaded HTTP server
around a shared AMF model (:mod:`repro.server.app`), a matching resilient
Python client (:mod:`repro.server.client`), the durability layer —
write-ahead observation log plus atomic checkpoints — that lets the server
survive crashes (:mod:`repro.server.wal`), and the primary/standby
replication layer that lets the *deployment* survive node failures
(:mod:`repro.server.replication`)."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "PredictionServer": "repro.server.app",
        "BinaryConnection": "repro.server.binary",
        "BinaryServerError": "repro.server.binary",
        "ProtocolError": "repro.server.binary",
        "DeadlineExceeded": "repro.server.client",
        "PredictionClient": "repro.server.client",
        "PredictionServiceError": "repro.server.client",
        "RetryableServiceError": "repro.server.client",
        "TerminalServiceError": "repro.server.client",
        "EpochStore": "repro.server.replication",
        "FencedWrite": "repro.server.replication",
        "HttpReplicaLink": "repro.server.replication",
        "ReplicationConfig": "repro.server.replication",
        "StandbyReplicator": "repro.server.replication",
        "CheckpointStore": "repro.server.wal",
        "WalAppendError": "repro.server.wal",
        "WriteAheadLog": "repro.server.wal",
    },
)

__all__ = [
    "PredictionServer",
    "PredictionClient",
    "BinaryConnection",
    "BinaryServerError",
    "ProtocolError",
    "PredictionServiceError",
    "RetryableServiceError",
    "TerminalServiceError",
    "DeadlineExceeded",
    "WriteAheadLog",
    "WalAppendError",
    "CheckpointStore",
    "EpochStore",
    "FencedWrite",
    "HttpReplicaLink",
    "ReplicationConfig",
    "StandbyReplicator",
]
