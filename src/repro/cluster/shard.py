"""Shard process entrypoint: one full PredictionServer per OS process.

``python -m repro.cluster.shard --name s0 --port 8301 --data-dir /data/s0``
runs a complete single-node server — WAL, checkpoints, gate, admission,
lifecycle, metrics, binary transport — as one shard of a fleet.  The
router does not care how a shard is hosted; this module is the stock way
to get real process isolation (its own GIL, its own heap, its own disk
queue), which is what the scaling benchmark measures.

On startup the process prints one JSON line::

    {"ready": true, "name": "s0", "address": ["127.0.0.1", 8301], ...}

so a parent (bench harness, process supervisor) can wait for readiness
and learn the bound ports.  SIGTERM (or SIGINT) triggers a graceful stop:
final checkpoint, WAL close, exit 0.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro.server.app import PredictionServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.shard",
        description="Run one prediction-server shard in this process.",
    )
    parser.add_argument("--name", required=True, help="shard name (placement key)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="HTTP port (0=ephemeral)")
    parser.add_argument(
        "--binary-port",
        type=int,
        default=None,
        help="binary transport port (default: ephemeral; negative disables)",
    )
    parser.add_argument("--data-dir", default=None, help="durable WAL/checkpoint dir")
    parser.add_argument("--rng", type=int, default=0)
    parser.add_argument("--checkpoint-interval", type=int, default=1000)
    parser.add_argument(
        "--background-replay",
        action="store_true",
        help="enable the background replay trainer (off by default in shards "
        "so ingest determinism is driven by the stream alone)",
    )
    parser.add_argument(
        "--lifecycle",
        action="store_true",
        help="enable hot/cold lifecycle tiering — required for the shard to "
        "take part in live entity migration (/migration/* endpoints)",
    )
    parser.add_argument(
        "--hot-users",
        type=int,
        default=None,
        help="hot-tier user capacity (implies --lifecycle)",
    )
    parser.add_argument(
        "--hot-services",
        type=int,
        default=None,
        help="hot-tier service capacity (implies --lifecycle)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    binary_port = args.binary_port
    if binary_port is not None and binary_port < 0:
        binary_port = None  # disabled
    elif binary_port is None:
        binary_port = 0
    lifecycle = None
    if args.lifecycle or args.hot_users is not None or args.hot_services is not None:
        from repro.lifecycle import LifecycleConfig

        overrides = {}
        if args.hot_users is not None:
            overrides["hot_users"] = args.hot_users
        if args.hot_services is not None:
            overrides["hot_services"] = args.hot_services
        lifecycle = LifecycleConfig(**overrides)
    server = PredictionServer(
        rng=args.rng,
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        checkpoint_interval=args.checkpoint_interval,
        background_replay=args.background_replay,
        binary_port=binary_port,
        lifecycle=lifecycle,
    )
    server.start()
    stop = threading.Event()

    def _terminate(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    print(
        json.dumps(
            {
                "ready": True,
                "name": args.name,
                "address": list(server.address),
                "binary_address": (
                    list(server.binary_address)
                    if server.binary_address is not None
                    else None
                ),
                "durable": server.durable,
                "lifecycle": lifecycle is not None,
            }
        ),
        flush=True,
    )
    stop.wait()
    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
