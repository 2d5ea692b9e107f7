#!/usr/bin/env python
"""Live 3→4 shard rebalance: migration throughput, read tail, MAE parity.

A 3-shard fleet ingests a QoS stream, then a fourth shard joins and a
live migration re-homes every entity whose rendezvous owner changes —
while reader threads keep hammering predictions through the router.
Three things are measured:

* **Migration throughput** — entities re-homed per second, end to end
  (export → idempotent import → delete → override), from the
  coordinator's own accounting.
* **Read tail during migration** — p50/p99 latency of router predictions
  issued concurrently with the migration, plus how many reads hit the
  brief ``entity_migrating`` 503 commit window and had to retry.
* **Accuracy parity** — the per-sample prediction-error stream (the
  pre-update error each observation reports) must be **bit-identical**
  to a single-shard server fed the exact same stream with no migration
  at all.  Windowed MAE is derived from those streams, so parity is
  checked at the strongest possible granularity: every float equal.

Parity is engineered, not hoped for: the stream's users are chosen so
the 3-shard table homes them all on one shard (same model, same RNG
draw order as the single-server baseline), and each user observes a
disjoint service set so service rows co-move with their one observer.
Writes pause during the migration window (reads do not); the stream
resumes — through the new 4-shard table — once the rebalance commits.

Results append to ``BENCH_cluster.json`` as ``{"drill": "migration"}``
records; ``validate_record`` here is their one schema, which
``validate_bench.py`` applies to the whole file.

Usage::

    PYTHONPATH=src python scripts/bench_migration.py            # full run -> BENCH_cluster.json
    PYTHONPATH=src python scripts/bench_migration.py --smoke    # tiny run, validate only
    PYTHONPATH=src python scripts/bench_migration.py --validate # schema-check existing file
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_cluster.json"
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster import ClusterRouter, PlacementTable, ShardSpec  # noqa: E402
from repro.server.app import PredictionServer  # noqa: E402
from repro.server.client import (  # noqa: E402
    PredictionClient,
    PredictionServiceError,
)

MAE_WINDOW = 100


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:  # noqa: BLE001 — benches must run outside git too
        return "unknown"


def pick_users(table: PlacementTable, home: str, n_users: int) -> list[int]:
    """First ``n_users`` ids the table homes on ``home``.

    Keeping every bench user on one shard makes that shard's model see
    the same entities in the same order as the single-server baseline,
    so both draw identical factor initializations — the precondition
    for bit-exact parity.
    """
    users, candidate = [], 0
    while len(users) < n_users:
        if table.owner_of("user", candidate).name == home:
            users.append(candidate)
        candidate += 1
        if candidate > 100 * n_users:
            raise RuntimeError(f"could not find {n_users} users on {home}")
    return users


def make_stream(
    users: list[int], services_per_user: int, rounds: int, seed: int
) -> list[tuple[int, int, float, float]]:
    """(user, service, value, timestamp) rows; disjoint services per user."""
    rng = random.Random(seed)
    rows, tick = [], 0.0
    for _ in range(rounds):
        for index, user_id in enumerate(users):
            base = index * services_per_user
            for service_id in range(base, base + services_per_user):
                tick += 1.0
                rows.append(
                    (user_id, service_id, round(rng.random() * 3 + 0.2, 3), tick)
                )
    return rows


def feed(client: PredictionClient, rows) -> list[float]:
    """Report each row; collect its pre-update error (the parity oracle)."""
    errors = []
    for user_id, service_id, value, timestamp in rows:
        errors.append(
            client.report_observation(user_id, service_id, value, timestamp)
        )
    return errors


def windowed_mae(errors: list[float], window: int = MAE_WINDOW) -> float:
    tail = [e for e in errors if e is not None][-window:]
    return sum(tail) / len(tail) if tail else 0.0


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[index]


def run_bench(
    n_users: int,
    services_per_user: int,
    rounds: int,
    seed: int,
    batch_entities: int,
    readers: int,
    join_timeout: float,
) -> dict:
    server_args = dict(
        background_replay=False,
        checkpoint_interval=1000,
        binary_port=None,
        lifecycle=True,
    )
    with tempfile.TemporaryDirectory(prefix="qos-bench-migration-") as root:
        # --- 3-shard fleet + single-server baseline --------------------------
        names = ["s0", "s1", "s2"]
        servers = {}
        for index, name in enumerate(names):
            server = PredictionServer(
                rng=seed + index,
                data_dir=os.path.join(root, name),
                **server_args,
            )
            server.start()
            servers[name] = server
        table = PlacementTable(
            [
                ShardSpec(name=name, addresses=(servers[name].address,))
                for name in names
            ]
        )
        baseline_server = PredictionServer(
            rng=seed, data_dir=os.path.join(root, "baseline"), **server_args
        )
        baseline_server.start()

        users = pick_users(table, "s0", n_users)
        half = len(users) * services_per_user * max(1, rounds // 2)
        rows = make_stream(users, services_per_user, rounds, seed)
        phase1, phase2 = rows[:half], rows[half:]

        router = ClusterRouter(table, data_dir=os.path.join(root, "router"))
        router.start()
        client = PredictionClient(router.address, retries=0)
        baseline_client = PredictionClient(baseline_server.address, retries=0)
        try:
            fleet_errors = feed(client, phase1)
            baseline_errors = feed(baseline_client, phase1)

            # --- 4th shard joins; live migration under read traffic ---------
            joining = PredictionServer(
                rng=seed + len(names),
                data_dir=os.path.join(root, "s3"),
                **server_args,
            )
            joining.start()
            servers["s3"] = joining
            target = table.with_shard(
                ShardSpec(name="s3", addresses=(joining.address,))
            )
            movers = sum(
                1 for u in users if target.owner_of("user", u).name != "s0"
            )

            stop_readers = threading.Event()
            latencies_by_reader: list[list[float]] = [[] for _ in range(readers)]
            blocked = [0] * readers
            read_pairs = [
                (user_id, index * services_per_user)
                for index, user_id in enumerate(users)
            ]

            def read_loop(slot: int) -> None:
                reader = PredictionClient(router.address, retries=0)
                try:
                    while not stop_readers.is_set():
                        for user_id, service_id in read_pairs:
                            if stop_readers.is_set():
                                return
                            started = time.perf_counter()
                            try:
                                reader.predict(user_id, service_id)
                            except PredictionServiceError as exc:
                                blocked[slot] += 1
                                hint = getattr(exc, "retry_after", None)
                                time.sleep(hint if hint else 0.05)
                            else:
                                latencies_by_reader[slot].append(
                                    time.perf_counter() - started
                                )
                finally:
                    reader.close()

            threads = [
                threading.Thread(target=read_loop, args=(slot,), daemon=True)
                for slot in range(readers)
            ]
            for thread in threads:
                thread.start()
            coordinator = router.start_migration(
                target, batch_entities=batch_entities
            )
            coordinator.join(timeout=join_timeout)
            stop_readers.set()
            for thread in threads:
                thread.join(timeout=10.0)
            if coordinator.active:
                raise RuntimeError("migration did not finish in time")
            if coordinator.error is not None:
                raise RuntimeError(f"migration errored: {coordinator.error}")
            result = coordinator.result

            # --- stream resumes through the 4-shard table -------------------
            fleet_errors += feed(client, phase2)
            baseline_errors += feed(baseline_client, phase2)
        finally:
            client.close()
            baseline_client.close()
            router.stop()
            for server in servers.values():
                server.stop()
            baseline_server.stop()

    latencies = sorted(lat for slot in latencies_by_reader for lat in slot)
    parity_ok = fleet_errors == baseline_errors
    seconds = float(result["seconds"]) if result else 0.0
    moved = int(result["entities_moved"]) if result else 0
    return {
        "shards_before": len(names),
        "shards_after": len(names) + 1,
        "users": len(users),
        "users_rehomed": movers,
        "entities_moved": moved,
        "batches": int(result["batches"]) if result else 0,
        "sweeps": int(result["sweeps"]) if result else 0,
        "migration_seconds": round(seconds, 4),
        "entities_per_sec": round(moved / seconds, 2) if seconds else 0.0,
        "reads": {
            "count": len(latencies),
            "blocked": sum(blocked),
            "p50_ms": round(percentile(latencies, 0.50) * 1000.0, 3),
            "p99_ms": round(percentile(latencies, 0.99) * 1000.0, 3),
        },
        "mae": {
            "window": MAE_WINDOW,
            "fleet_windowed": windowed_mae(fleet_errors),
            "baseline_windowed": windowed_mae(baseline_errors),
        },
        "samples": len(fleet_errors),
        "parity_ok": parity_ok,
    }


def validate_record(record: dict) -> list[str]:
    """Schema check for one ``{"drill": "migration"}`` record."""
    problems: list[str] = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    require(record.get("drill") == "migration", "drill must be 'migration'")
    require(isinstance(record.get("timestamp"), str), "missing timestamp")
    require(isinstance(record.get("revision"), str), "missing revision")
    require(isinstance(record.get("pass"), bool), "missing pass")
    config = record.get("config")
    require(isinstance(config, dict), "missing config")
    if isinstance(config, dict):
        for key in ("n_users", "services_per_user", "rounds", "seed",
                    "batch_entities", "readers"):
            require(key in config, f"config.{key} missing")
    for key in ("shards_before", "shards_after", "entities_moved",
                "migration_seconds", "entities_per_sec", "samples"):
        require(
            isinstance(record.get(key), (int, float)), f"{key} missing"
        )
    reads = record.get("reads")
    require(isinstance(reads, dict), "missing reads")
    if isinstance(reads, dict):
        for key in ("count", "blocked", "p50_ms", "p99_ms"):
            require(
                isinstance(reads.get(key), (int, float)),
                f"reads.{key} missing",
            )
    mae = record.get("mae")
    require(isinstance(mae, dict), "missing mae")
    if isinstance(mae, dict):
        for key in ("window", "fleet_windowed", "baseline_windowed"):
            require(
                isinstance(mae.get(key), (int, float)), f"mae.{key} missing"
            )
    require(isinstance(record.get("parity_ok"), bool), "missing parity_ok")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-users", type=int, default=48)
    parser.add_argument("--services-per-user", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=4,
                        help="passes over the (user, service) grid; the "
                             "first half stream before the migration, the "
                             "rest after (default 4)")
    parser.add_argument("--batch-entities", type=int, default=16)
    parser.add_argument("--readers", type=int, default=2,
                        help="concurrent reader threads during migration")
    parser.add_argument("--join-timeout", type=float, default=300.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--note", default="")
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run; validate the record, do not append")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the existing results file and exit")
    args = parser.parse_args()

    if args.validate:
        import validate_bench

        return validate_bench.validate_file(
            args.output or RESULTS_PATH, validate_record
        )

    if args.smoke:
        args.n_users = min(args.n_users, 16)
        args.services_per_user = min(args.services_per_user, 3)
        args.rounds = min(args.rounds, 2)
        args.batch_entities = min(args.batch_entities, 8)

    print(
        f"3->4 shard rebalance: {args.n_users} users x "
        f"{args.services_per_user} services, {args.rounds} rounds...",
        flush=True,
    )
    measurement = run_bench(
        args.n_users,
        args.services_per_user,
        args.rounds,
        args.seed,
        args.batch_entities,
        args.readers,
        args.join_timeout,
    )
    passed = bool(
        measurement["parity_ok"]
        and measurement["entities_moved"] > 0
        and measurement["reads"]["count"] > 0
    )
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "revision": git_revision(),
        "note": args.note or ("smoke" if args.smoke else ""),
        "drill": "migration",
        "config": {
            "n_users": args.n_users,
            "services_per_user": args.services_per_user,
            "rounds": args.rounds,
            "seed": args.seed,
            "batch_entities": args.batch_entities,
            "readers": args.readers,
        },
        "pass": passed,
        **measurement,
    }
    problems = validate_record(record)
    if problems:
        for problem in problems:
            print(f"invalid record: {problem}")
        return 1

    reads = measurement["reads"]
    print(
        f"moved {measurement['entities_moved']} entities "
        f"({measurement['users_rehomed']} users re-homed) in "
        f"{measurement['migration_seconds']}s -> "
        f"{measurement['entities_per_sec']} entities/s"
    )
    print(
        f"reads during migration: {reads['count']} ok, {reads['blocked']} "
        f"briefly blocked; p50 {reads['p50_ms']} ms, p99 {reads['p99_ms']} ms"
    )
    print(
        f"windowed MAE (last {MAE_WINDOW}): fleet "
        f"{measurement['mae']['fleet_windowed']:.6f} vs baseline "
        f"{measurement['mae']['baseline_windowed']:.6f} -> parity "
        f"{'OK (bit-identical error stream)' if measurement['parity_ok'] else 'BROKEN'}"
    )
    if not passed:
        print("FAIL: migration bench did not meet its gates")
        return 1
    if args.smoke and args.output is None:
        print("smoke OK (record validated, not appended)")
        return 0
    path = args.output or RESULTS_PATH
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"recorded to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
