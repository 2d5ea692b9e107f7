"""The cluster router as its own OS process: the public ``ClusterRouter``
behind a JSON ready line, like ``python -m repro.cluster.shard``.

The router's ``/metrics`` re-serves its shards' families only, so on
SIGTERM this process writes its own registry (the ``qos_router_*``
counters) to ``--metrics-out`` and exits without the 5 s graceful join.
"""

import argparse
import json
import os
import signal
import threading

from repro.cluster import ClusterRouter, PlacementTable, ShardSpec
from repro.observability import get_registry


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.router_proc")
    parser.add_argument("--shard", action="append", required=True, metavar="NAME=HOST:PORT")
    parser.add_argument("--metrics-out", required=True)
    args = parser.parse_args()
    specs = []
    for text in args.shard:
        name, _, hostport = text.partition("=")
        host, _, port = hostport.rpartition(":")
        specs.append(ShardSpec(name=name, addresses=((host, int(port)),)))
    router = ClusterRouter(PlacementTable(specs))
    router.start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    print(json.dumps({"ready": True, "name": "router", "address": list(router.address)}), flush=True)
    stop.wait()
    with open(args.metrics_out, "w", encoding="utf-8") as handle:
        handle.write(get_registry().render())
    os._exit(0)


if __name__ == "__main__":
    main()
