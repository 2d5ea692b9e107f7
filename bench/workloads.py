"""The six workloads: what is started, what is sent, what is measured.

Each workload starts its servers as real processes with the shipped
defaults, sends time-bounded phases whose lengths are fixed shares of
``--seconds``, SIGKILLs one shard and restarts it on the same data
directory, and then feeds every acknowledged request to an in-process
:class:`~bench.layers.Mirror` to check the replies.  Why each workload
exists is recorded beside its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from bench import probes, streams
from bench.layers import (
    Mirror, NullTracer, Scraper, Tracer, delta, flat_samples, p50, self_times_us,
)
from bench.loadgen import (
    LADDER_QPS,
    Phase,
    binary_sender,
    closed_loop,
    json_sender,
    merged,
    open_loop,
    percentiles,
    rung_result,
    side_by_side,
    sustained_rate,
)
from bench.procs import Fleet, Server
from repro.cluster import ClusterClient, PlacementTable, ShardSpec
from repro.server.binary import BinaryConnection
from repro.server.client import PredictionClient

SETUPS = 3  # set-ups per untraced run; setup_s is their median
RESTARTS = 3  # crash/restart cycles per untraced run; recovery_s is their median
CHECKPOINT_INTERVAL = 1000  # the shipped ``--checkpoint-interval``
RECOVERY_TAIL = 500  # observes a restart replays (see crash_and_recover)
BATCH = 50
CHECK_EVERY = 100  # share of wire predictions checked against the mirror: 1 %
HOT_USERS, HOT_SERVICES = 512, 1024  # tiered_churn's hot-tier capacity
# Requests generated per second of phase: well above what this box serves,
# so a phase ends on time, not because its stream ran dry.
OBSERVES_PER_S, PREDICTS_PER_S = 8_000, 20_000
BATCHES_PER_S = 200
SLOW_PER_S = 1_500  # JSON through the router, and anything with the trainer on
REPLAY_OBSERVE_RATE, REPLAY_PREDICT_RATE = 200.0, 64.0  # open loop, trainer on
KIND = {"o": "observe", "p": "predict", "b": "batch"}


class Run:
    """One run of one workload: its options, what it measured and checked."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool, workdir: str):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.truth = streams.Truth(seed)
        self.tracer = Tracer() if traced else NullTracer()
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}  # requests behind each latency metric
        self.notes: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.scored: list[list[float]] = []  # relative errors, one list per connection
        self.late_ms: list[float] = []
        self.rungs: list[dict] = []
        self.next_op_id = 0
        # Past this wall time phases stop sending and count one failure each.
        self.give_up_at = time.perf_counter() + 6.0 * seconds + 60.0
        self.fleet: "Fleet | None" = None
        # The servers' last /metrics and /status, taken just before the kill.
        self.final_metrics: dict[str, float] = {}
        self.final_statuses: list[dict] = []

    def seconds_for(self, share: float) -> float:
        """Seconds a phase may take: its share of ``--seconds``, cut short
        by the workload's wall cap."""
        left = self.give_up_at - time.perf_counter()
        if left <= 0:
            self.attempted += 1
            self.failed += 1
            self.notes.append("wall cap reached: a phase was skipped and counted as failed")
            return 0.0
        return min(share * self.seconds, left)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def account(self, ops: list, phase: Phase, log: list) -> dict:
        """Count a phase's requests, record their wire spans, append the
        acknowledged ones to ``log`` and return latencies (ms) by kind."""
        self.attempted += phase.attempted
        self.failed += phase.failed
        self.late_ms += phase.late_ms
        by_kind: dict[str, list[float]] = {"o": [], "p": [], "b": []}
        for op, start, latency, reply in zip(
            ops, phase.starts_s, phase.latencies_ms, phase.replies
        ):
            if latency is None:
                continue
            by_kind[op[0]].append(latency)
            op_id = self.next_op_id
            self.next_op_id += 1
            self.tracer.add(f"wire.{KIND[op[0]]}", op_id, start, start + latency / 1e3)
            if op[0] == "b":  # one request, fifty commits
                log.extend((op_id, ("o", as_observe(row)), "admit") for row in op[1])
            else:
                log.append((op_id, op, reply))
        return by_kind

    def latency(self, prefix: str, latencies: list) -> None:
        """Set ``<prefix>_p50_ms`` and ``tail.<prefix>_p99_ms`` from one
        phase's latencies."""
        stats = percentiles(latencies)
        self.values[f"{prefix}_p50_ms"] = stats["p50"]
        self.values[f"tail.{prefix}_p99_ms"] = stats["tail_value"]
        if stats["tail"] != "p99":
            self.notes.append(
                f"tail.{prefix}_p99_ms is {stats['tail']}: only {stats['samples']} samples"
            )
        self.samples[prefix] = stats["samples"]

    def score(self, ops: list, phase: Phase) -> None:
        """Relative error of the first candidate of every answered
        ranking query of one connection, in send order."""
        errors = [
            abs(reply[0][0] - op[1][2]) / op[1][2]
            for op, reply in zip(ops, phase.replies)
            if op[0] == "p" and reply is not None
        ]
        self.scored.append(errors)

    def finish_scores(self) -> None:
        """``prequential_mre``: median relative error over the last half of
        each connection's scored queries."""
        late = [e for errors in self.scored for e in errors[len(errors) // 2:]]
        self.values["prequential_mre"] = float(np.median(late)) if late else 0.0
        self.check("predictions scored", bool(late), f"{len(late)} scored")
        self.check(
            "predictions finite and in range",
            all(math.isfinite(e) for errors in self.scored for e in errors),
        )


def as_observe(row: dict) -> tuple:
    return (row["timestamp"], row["user_id"], row["service_id"], row["value"],
            row["idempotency_key"])


def as_row(body: tuple) -> dict:
    timestamp, user, service, value, key = body
    return {"timestamp": timestamp, "user_id": user, "service_id": service,
            "value": value, "idempotency_key": key}


def tagged(kind: str, bodies: list) -> list:
    return [(kind, body) for body in bodies]


# -- starting, crashing, recovering ---------------------------------------------------


@dataclass
class Node:
    """One running shard, with what is needed to restart it."""

    server: Server
    data_dir: str
    flags: tuple


def timed_setups(run: Run, start) -> object:
    """Start the system under test from nothing — ``SETUPS`` times in an
    untraced run, on fresh data directories, keeping the last — and set
    ``setup_s`` to the median time from first spawn to first reply."""
    times = []
    system = None
    for attempt in range(1 if run.traced else SETUPS):
        for server in run.fleet.servers:
            server.kill()
        began = time.perf_counter()
        system = start(attempt)
        times.append(time.perf_counter() - began)
    run.values["setup_s"] = statistics.median(times)
    run.fleet.wake()
    return system


def start_node(run: Run, attempt: int, name: str, flags: tuple) -> Node:
    data_dir = os.path.join(run.workdir, f"{name}-{attempt}")
    return Node(run.fleet.shard(name, data_dir, *flags), data_dir, flags)


def connect(node: Node, connections: int) -> list[BinaryConnection]:
    node.server.wait_ready()
    conns = [BinaryConnection(node.server.binary_address, timeout=30.0)
             for _ in range(connections)]
    for conn in conns:
        conn.connect()
        conn.ping()
    return conns


def single_shard(run: Run, flags: tuple = (), connections: int = 1):
    """Set up one shard; returns ``(node, [connections])``."""

    def start(attempt: int):
        node = start_node(run, attempt, "s0", flags)
        return node, connect(node, connections)

    return timed_setups(run, start)


def crash_and_recover(run: Run, node: Node, scraper: Scraper, send, log: list,
                      flat: bool, trainer_off: bool = True) -> Node:
    """SIGKILL ``node`` and restart it on the same data directory —
    ``RESTARTS`` times in an untraced run — set ``recovery_s`` to the median
    and check that every acknowledged observation survived.

    Phases end on the clock, so the shard could be anywhere in its
    1 000-observe checkpoint cycle.  A few untimed observes over ``send``
    first bring it to exactly :data:`RECOVERY_TAIL` past a checkpoint, so
    every run's restart replays the same length of log; they repeat the
    (user, service) pairs of the run's latest observes, which are hot on a
    tiered shard.  A tiered shard is first taken through one more
    checkpoint: its log since the last one is full of revive events, each
    replayed with its own sqlite commit, and that made ``recovery_s``
    either 0.3 s or 1.4 s from run to run.
    Also closes the books on the servers' counters, which die with the
    process: peak RSS and the final ``/metrics`` scrape are taken here.
    """
    handled = scraper.statuses()[0]["observations_handled"]
    pad = (RECOVERY_TAIL - handled) % CHECKPOINT_INTERVAL
    if not flat:
        pad += CHECKPOINT_INTERVAL
    recent = [op[1][1:3] for _, op, _ in log if op[0] == "o"][-200:]
    ops = tagged("o", streams.pad_observes(run.seed, run.truth, run.name, recent, pad))
    run.account(ops, closed_loop(ops, send, 60.0), log)
    admitted = count_replies(log, "admit")
    run.fleet.rest()
    run.values["server_rss_mb"] = run.fleet.peak_rss_mb()
    run.final_metrics = scraper.metrics()
    run.final_statuses = scraper.statuses()
    server, times = node.server, []
    for _ in range(1 if run.traced else RESTARTS):
        # A restart writes nothing, so each one replays the same log.
        server.kill()
        began = time.perf_counter()
        server = run.fleet.shard(server.info["name"], node.data_dir, *node.flags)
        server.wait_ready()
        times.append(time.perf_counter() - began)
    run.values["recovery_s"] = statistics.median(times)
    status = PredictionClient(server.address, transport="json", timeout=30.0).status()
    durability = status["durability"]
    recovery = durability["recovery"]
    appended = run.final_statuses[0]["durability"]["wal_last_seq"]
    run.values["server.app.recovery_replayed"] = recovery["wal_replayed"]
    run.check(
        f"restart: log is whole, {RECOVERY_TAIL} observes past the last checkpoint",
        durability["wal_last_seq"] == appended
        and recovery["checkpoint_seq"] + recovery["wal_replayed"] == appended
        and recovery["wal_replayed"] >= RECOVERY_TAIL
        and recovery["torn_lines"] == 0,
        f"wal_last_seq {durability['wal_last_seq']} of {appended} appended, {recovery}",
    )
    # A tiered shard also logs revive events, so its log is longer than
    # the observations it admitted.
    run.check(
        "restart: every acknowledged observation is in the log",
        appended == admitted if flat else appended >= admitted,
        f"{appended} log entries, {admitted} admitted",
    )
    if trainer_off:
        run.check(
            "restart: every acknowledged observation is in the model",
            status["updates_applied"] == admitted,
            f"updates_applied {status['updates_applied']}, admitted {admitted}",
        )
    else:
        run.check(
            "restart: model holds at least the acknowledged observations",
            status["updates_applied"] >= admitted,
            f"updates_applied {status['updates_applied']}, admitted {admitted}",
        )
    return Node(server, node.data_dir, node.flags)


def count_replies(log: list, action: str) -> int:
    return sum(1 for _, op, reply in log if op[0] == "o" and reply == action)


def check_ingest_counters(run: Run, before: dict, log: list, resent: int, flat: bool) -> None:
    """Acknowledged observes must equal WAL appends plus deduplicated
    resends, and the shard must have deduplicated exactly the resends."""
    final = run.final_metrics
    acked = sum(1 for _, op, _ in log if op[0] == "o")
    deduped = delta(before, final, "qos_ingest_deduped_total")
    appends = delta(before, final, "qos_wal_appends_total")
    revivals = delta(before, final, "qos_lifecycle_revivals_total")
    run.values["robustness.dedup.deduped"] = deduped
    run.check(
        "acked observes == WAL appends + deduped",
        acked == appends - (0 if flat else revivals) + deduped,
        f"acked {acked}, appends {appends}, revive events {revivals}, deduped {deduped}",
    )
    run.check(
        "deduped == resends sent",
        deduped == resent == count_replies(log, "deduplicated"),
        f"deduped {deduped}, resent {resent}",
    )


def make_mirror(run: Run, slot_space: bool = False) -> Mirror:
    """The reference for one shard; in a traced run its observes also pay
    the durable WAL append, like the shard's."""
    wal_dir = os.path.join(run.workdir, "mirror-wal") if run.traced else None
    return Mirror(wal_dir=wal_dir, slot_space=slot_space)


def replay_log(run: Run, mirror: Mirror, log: list, headline: str, strict: bool = True,
               check_fallback: bool = True, compare: bool = True) -> dict:
    """Feed one shard's acknowledged requests to its mirror, in order, and
    check the replies: every observe's action, and a sample of the ranking
    queries value for value (every 100th; every 10th in a traced run,
    which also needs their timings).

    In a traced run the mirror's tracer is switched on and off in blocks
    of 32 requests and each ``headline`` call is timed from outside; the
    two medians are returned for ``bench.trace_overhead_share``.
    """
    every = 10 if run.traced else CHECK_EVERY
    real, null = run.tracer, NullTracer()
    timed = {True: [], False: []}
    clock = time.perf_counter
    problems: list[str] = []
    predicts = checked = 0
    for position, (op_id, op, reply) in enumerate(log):
        on = run.traced and (position // 32) % 2 == 0
        mirror.tracer = real if on else null
        kind, body = op
        if kind == "o":
            began = clock()
            action = mirror.observe(body, op_id)
            if headline == "o":
                timed[on].append(clock() - began)
            if compare and action != reply:
                problems.append(f"observe {body[4]}: shard said {reply}, mirror {action}")
            continue
        predicts += 1
        if predicts % every != 1:
            continue
        checked += 1
        began = clock()
        if compare:
            problem = mirror.mismatch(body, reply, op_id, strict, check_fallback)
            if problem:
                problems.append(problem)
        else:
            mirror.predict(body, op_id)
        if headline == "p":
            timed[on].append(clock() - began)
    mirror.close()  # its WAL; the model stays usable for the probes
    if compare:
        run.check(
            f"replies equal the in-process reference ({len(log)} requests, "
            f"{checked} rankings compared)",
            not problems,
            "; ".join(problems[:3]),
        )
    return timed


def layer_times(run: Run, timed: dict, headline: str, wire_p50_ms: float,
                codec_us: float) -> None:
    """Per-layer times of a traced run, from the mirror's spans, and the
    part of the wire median they leave unexplained."""
    times = self_times_us(run.tracer.spans)
    span = lambda name: p50(times.get(name, []))  # noqa: E731
    values = run.values
    values["server.wal.append_us"] = span("server.wal.append")
    values["robustness.dedup.seen_add_us"] = span("robustness.dedup.seen") + span(
        "robustness.dedup.add"
    )
    values["core.amf.observe_us"] = span("core.amf.observe")
    values["core.online.cached_predict_us"] = span("core.online.cached_predict")
    if headline == "o":
        direct = sum(
            span(name)
            for name in (
                "robustness.dedup.seen", "server.wal.append", "robustness.dedup.add",
                "core.daemon.predict_known", "core.amf.observe", "core.fallback.observe",
            )
        )
    else:
        direct = span("core.online.cached_predict")
    values["server.binary.codec_us"] = codec_us
    values["server.app.handler_residual_us"] = wire_p50_ms * 1e3 - direct - codec_us
    if timed[True] and timed[False]:
        values["bench.trace_overhead_share"] = p50(timed[True]) / p50(timed[False]) - 1.0


def common_layers(run: Run, scraper: Scraper, before: dict) -> None:
    """Counts every workload reads off ``/metrics`` and ``/status``."""
    final, values = run.final_metrics, run.values
    count = lambda name: delta(before, final, name)  # noqa: E731
    values["server.wal.appends"] = count("qos_wal_appends_total")
    values["server.wal.fsyncs"] = count("qos_wal_fsync_seconds_count")
    values["server.wal.fsync_s_sum"] = count("qos_wal_fsync_seconds_sum")
    values["server.wal.segments"] = sum(
        status["durability"]["wal_segments"] for status in run.final_statuses
    )
    values["server.app.checkpoint_saves"] = count("qos_checkpoint_saves_total")
    values["server.app.checkpoint_save_s_sum"] = count("qos_checkpoint_save_seconds_sum")
    values["server.binary.requests"] = count('qos_transport_requests_total{transport="binary"}')
    values["core.amf.observations"] = count("qos_amf_observations_total")
    values["core.amf.replay_steps"] = count("qos_amf_replay_steps_total")
    hits = count("qos_predict_cache_hits_total")
    misses = count("qos_predict_cache_misses_total")
    values["core.online.cache_hits"] = hits
    values["core.online.cache_misses"] = misses
    values["core.online.cache_evictions"] = count("qos_predict_cache_evictions_total")
    values["core.online.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["robustness.admission.shed"] = count("qos_requests_shed_total")
    values["lifecycle.tiered.demotions"] = count("qos_lifecycle_demotions_total")
    values["lifecycle.tiered.revivals"] = count("qos_lifecycle_revivals_total")
    values["lifecycle.tiered.hot_entities"] = final.get("qos_lifecycle_hot_entities", 0.0)
    values["lifecycle.tiered.resident_bytes"] = final.get("qos_lifecycle_resident_bytes", 0.0)
    values["observability.scrape_ms"] = p50(scraper.scrape_ms)
    values["observability.families"] = scraper.families
    values["env.nproc"] = os.cpu_count() or 0
    values["bench.generator_late_ms_p99"] = (
        float(np.percentile(run.late_ms, 99)) if run.late_ms else 0.0
    )
    run.check("no request was shed", values["robustness.admission.shed"] == 0)


def stop_gracefully(run: Run, node: Node) -> None:
    """SIGTERM once per traced run: ``server.app.stop_s`` is what a
    graceful stop costs (the accept-thread join alone is 5 s today)."""
    if run.traced:
        run.values["server.app.stop_s"] = node.server.terminate()


# -- the workloads -------------------------------------------------------------------


def ingest_flat(run: Run) -> None:
    (node, (conn,)) = single_shard(run)
    send = binary_sender(conn)
    scraper = Scraper([node.server.address])
    before = scraper.metrics()
    log: list = []

    # (A) keyed single observes on one connection, 1 % resends.
    seconds = run.seconds_for(0.50)
    bodies, resend = streams.ingest_observes(
        run.seed, run.truth, int(seconds * OBSERVES_PER_S), 0, "A"
    )
    ops = tagged("o", bodies)
    phase = closed_loop(ops, send, seconds)
    observe_ms = run.account(ops, phase, log)["o"]
    run.values["observe_ops_per_s"] = phase.per_second()
    run.latency("observe", observe_ms)
    resent = sum(resend[: phase.attempted])

    # (B) the same layer used differently: one JSON request, fifty commits.
    seconds = run.seconds_for(0.30)
    client = PredictionClient(node.server.address, transport="json", timeout=30.0)
    bodies, _ = streams.ingest_observes(
        run.seed, run.truth, int(seconds * BATCHES_PER_S) * BATCH, len(ops), "B"
    )
    rows = [as_row(body) for body in bodies]
    ops = tagged("b", [rows[i:i + BATCH] for i in range(0, len(rows) - BATCH + 1, BATCH)])
    phase = closed_loop(ops, json_sender(client), seconds)
    run.account(ops, phase, log)
    run.values["batch_obs_per_s"] = BATCH * phase.per_second()
    if run.traced:
        probes.wire(run, conn, client, log)

    # (C) SIGKILL, restart on the same data directory.
    node = crash_and_recover(run, node, scraper, send, log, flat=True)
    (conn,) = connect(node, 1)
    run.fleet.wake()

    # (D) rankings served by the recovered shard.
    seconds = run.seconds_for(0.15)
    ops = tagged("p", streams.ingest_predicts(run.seed, run.truth, int(seconds * PREDICTS_PER_S)))
    phase = closed_loop(ops, binary_sender(conn), seconds)
    predict_ms = run.account(ops, phase, log)["p"]
    run.values["predict_ops_per_s"] = phase.per_second()
    run.latency("predict", predict_ms)
    run.score(ops, phase)
    run.fleet.rest()
    stop_gracefully(run, node)

    check_ingest_counters(run, before, log, resent, flat=True)
    mirror = make_mirror(run)
    # The restart re-seeded the shard's running means from retained samples
    # only, so after it only model answers are held to the mirror.
    timed = replay_log(run, mirror, log, "o", check_fallback=False)
    common_layers(run, scraper, before)
    if run.traced:
        codec = probes.direct(run, mirror, log)
        layer_times(run, timed, "o", p50(observe_ms), codec["o"])


def rank(run: Run) -> None:
    """``rank_hot`` and ``rank_wide``: the same phases over a population
    that fits the prediction cache, or one a hundred times its size."""
    (node, conns) = single_shard(run, connections=2)
    sends = [binary_sender(conn) for conn in conns]
    scraper = Scraper([node.server.address])
    before = scraper.metrics()
    log: list = []

    # Preload, measured: closed-loop observes that walk the population.
    seconds = run.seconds_for(0.20)
    ops = tagged("o", streams.rank_observes(
        run.seed, run.truth, run.name, int(seconds * OBSERVES_PER_S), 0, "P"))
    phase = closed_loop(ops, sends[0], seconds)
    observe_ms = run.account(ops, phase, log)["o"]
    run.values["observe_ops_per_s"] = phase.per_second()
    run.latency("observe", observe_ms)
    loaded = phase.attempted
    reads_before = scraper.metrics()

    # Closed loop on one connection: rankings, one observe per 100 reads.
    seconds = run.seconds_for(0.25)
    reads = tagged("p", streams.rank_predicts(
        run.seed, run.truth, run.name, int(seconds * PREDICTS_PER_S), "C"))
    writes = tagged("o", streams.rank_observes(
        run.seed, run.truth, run.name, len(reads) // 100 + 1, loaded, "C"))
    ops = []
    for index, read in enumerate(reads):
        ops.append(read)
        if index % 100 == 99:
            ops.append(writes[index // 100])
    phase = closed_loop(ops, sends[0], seconds)
    closed_ms = run.account(ops, phase, log)["p"]
    run.values["predict_ops_per_s"] = len(closed_ms) / phase.elapsed_s
    run.score(ops, phase)

    # Open-loop ladder on two connections, reads only (so the model is
    # frozen and every reply checkable whatever the two threads' order);
    # it stops at the first rung that misses.
    rung_seconds = run.seconds_for(0.10)
    for rate in LADDER_QPS:
        ops = tagged("p", streams.rank_predicts(
            run.seed, run.truth, run.name, int(rate * rung_seconds), f"L{rate}"))
        halves = [ops[0::2], ops[1::2]]
        start_at = time.perf_counter() + 0.05
        phases = side_by_side([
            lambda k=k: open_loop(halves[k], sends[k], rate / 2.0, rung_seconds,
                                  start_at + k / rate)
            for k in range(2)
        ])
        latencies = []
        for half, half_phase in zip(halves, phases):
            run.score(half, half_phase)
            latencies += run.account(half, half_phase, log)["p"]
        run.rungs.append(rung_result(rate, merged(phases), rung_seconds))
        if rate == LADDER_QPS[0]:
            run.latency("predict", latencies)
        if not run.rungs[-1]["passed"]:
            break
    run.values["predict_sustained_qps"] = sustained_rate(run.rungs)
    if run.traced:
        probes.wire(run, conns[0], None, log)

    node = crash_and_recover(run, node, scraper, sends[0], log, flat=True)
    stop_gracefully(run, node)
    check_ingest_counters(run, before, log, 0, flat=True)
    mirror = make_mirror(run)
    timed = replay_log(run, mirror, log, "p")
    common_layers(run, scraper, reads_before)
    if run.traced:
        codec = probes.direct(run, mirror, log)
        layer_times(run, timed, "p", p50(closed_ms), codec["p"])


def tiered_churn(run: Run) -> None:
    flags = ("--hot-users", str(HOT_USERS), "--hot-services", str(HOT_SERVICES))
    (node, (conn,)) = single_shard(run, flags)
    send = binary_sender(conn)
    scraper = Scraper([node.server.address])
    before = scraper.metrics()
    log: list = []

    seconds = run.seconds_for(0.60)
    bodies, introduced = streams.churn_observes(
        run.seed, run.truth, int(seconds * OBSERVES_PER_S), 0)
    ops = tagged("o", bodies)
    phase = closed_loop(ops, send, seconds)
    observe_ms = run.account(ops, phase, log)["o"]
    run.values["observe_ops_per_s"] = phase.per_second()
    run.latency("observe", observe_ms)
    known_users = int(introduced[max(phase.attempted, 1) - 1])

    seconds = run.seconds_for(0.40)
    ops = tagged("p", streams.churn_predicts(
        run.seed, run.truth, int(seconds * PREDICTS_PER_S), known_users, HOT_USERS))
    phase = closed_loop(ops, send, seconds)
    predict_ms = run.account(ops, phase, log)["p"]
    run.values["predict_ops_per_s"] = phase.per_second()
    run.latency("predict", predict_ms)
    run.score(ops, phase)
    if run.traced:
        probes.wire(run, conn, None, log)

    spill_path = os.path.join(node.data_dir, "spill.sqlite")
    node = crash_and_recover(run, node, scraper, send, log, flat=False)
    stop_gracefully(run, node)
    check_ingest_counters(run, before, log, 0, flat=False)
    # The tiering-parity contract: demoting and reviving entities changes
    # no answer the model gives.
    mirror = make_mirror(run, slot_space=True)
    timed = replay_log(run, mirror, log, "o", strict=False)
    common_layers(run, scraper, before)
    lifecycle = run.final_statuses[0]["lifecycle"]
    spilled = lifecycle["spilled_users"] + lifecycle["spilled_services"]
    run.values["lifecycle.spill.file_bytes"] = os.path.getsize(spill_path)
    run.values["lifecycle.spill.bytes_per_entity"] = (
        os.path.getsize(spill_path) / spilled if spilled else 0.0
    )
    if known_users > 2 * HOT_USERS:  # not at smoke scale
        run.check("users were demoted and revived",
                  run.values["lifecycle.tiered.demotions"] > 0
                  and run.values["lifecycle.tiered.revivals"] > 0,
                  f"{lifecycle}")
    if run.traced:
        codec = probes.direct(run, mirror, log)
        probes.tiered(run, [op[1] for _, op, _ in log if op[0] == "o"],
                      HOT_USERS, HOT_SERVICES)
        layer_times(run, timed, "o", p50(observe_ms), codec["o"])


def cluster_prequential(run: Run) -> None:
    names = ["s0", "s1"]

    def start(attempt: int):
        nodes = [start_node(run, attempt, name, ()) for name in names]
        for node in nodes:
            node.server.wait_ready()
        router = run.fleet.router(
            [node.server for node in nodes], os.path.join(run.workdir, f"router-{attempt}.prom"))
        router.wait_ready()
        clients = [ClusterClient(router.address, timeout=30.0) for _ in names]
        for client in clients:
            client.health()
        return nodes, router, clients

    nodes, router, clients = timed_setups(run, start)
    sends = [json_sender(client) for client in clients]
    table = PlacementTable([ShardSpec(name=name, addresses=(("127.0.0.1", 1),))
                            for name in names])
    owned = {name: [] for name in names}
    for user in range(streams.CLUSTER_USERS):
        owned[table.owner_of("user", user).name].append(user)
    scraper = Scraper([node.server.address for node in nodes])
    before = scraper.metrics()
    logs: list[list] = [[], []]
    sent = [0, 0]

    def two_threads(make_ops, share: float):
        """Each thread drives its own shard's users, closed loop."""
        seconds = run.seconds_for(share)
        ops = [make_ops(k, seconds) for k in range(2)]
        phases = side_by_side([
            lambda k=k: closed_loop(ops[k], sends[k], seconds) for k in range(2)
        ])
        by_kind = {"o": [], "p": []}
        for k in range(2):
            for kind, latencies in run.account(ops[k], phases[k], logs[k]).items():
                if kind in by_kind:
                    by_kind[kind] += latencies
            sent[k] += sum(1 for op in ops[k][: phases[k].attempted] if op[0] == "o")
        return ops, phases, by_kind

    def warm_ops(k: int, seconds: float):
        return tagged("o", streams.owned_observes(
            run.seed, run.truth, run.name, f"W{k}", owned[names[k]],
            streams.CLUSTER_SERVICES, int(seconds * SLOW_PER_S), k * 10_000_000))

    def event_ops(k: int, seconds: float):
        """predict -> (score) -> observe, as consecutive requests."""
        queries = streams.owned_predicts(
            run.seed, run.truth, run.name, f"E{k}", owned[names[k]],
            streams.CLUSTER_SERVICES, int(seconds * SLOW_PER_S) // 2)
        ops = []
        for index, (user, service_ids, actual) in enumerate(queries):
            number = k * 10_000_000 + sent[k] + index
            ops.append(("p", (user, service_ids, actual)))
            ops.append(("o", ((number + 1) * streams.TICK, user, service_ids[0], actual,
                              f"{run.name}-E{k}-{index}")))
        return ops

    def read_ops(k: int, seconds: float):
        return tagged("p", streams.owned_predicts(
            run.seed, run.truth, run.name, f"R{k}", owned[names[k]],
            streams.CLUSTER_SERVICES, int(seconds * SLOW_PER_S)))

    _, phases, _ = two_threads(warm_ops, 0.25)
    run.values["observe_ops_per_s"] = sum(p.succeeded for p in phases) / max(
        p.elapsed_s for p in phases)

    ops, phases, by_kind = two_threads(event_ops, 0.50)
    run.values["events_per_s"] = len(by_kind["o"]) / max(p.elapsed_s for p in phases)
    run.latency("observe", by_kind["o"])
    run.latency("predict", by_kind["p"])
    for k in range(2):
        run.score(ops[k], phases[k])

    _, phases, by_kind = two_threads(read_ops, 0.25)
    run.values["predict_ops_per_s"] = sum(p.succeeded for p in phases) / max(
        p.elapsed_s for p in phases)
    if run.traced:
        probes.router_hop(run, clients[0], nodes[0], owned[names[0]], logs[0])

    (conn,) = connect(nodes[0], 1)  # the pad goes straight to the shard
    crash_and_recover(run, nodes[0], scraper, binary_sender(conn), logs[0], flat=True)
    admitted = [count_replies(log, "admit") for log in logs]
    check_ingest_counters(run, before, logs[0] + logs[1], 0, flat=True)
    handled = [status["observations_handled"] for status in run.final_statuses[:2]]
    run.check("each shard handled exactly its own users' observations",
              handled == admitted, f"handled {handled}, admitted {admitted}")
    timed = {True: [], False: []}
    mirrors = [make_mirror(run), Mirror()]
    for mirror, log in zip(mirrors, logs):
        for on, samples in replay_log(run, mirror, log, "o").items():
            timed[on] += samples
    common_layers(run, scraper, before)
    router.terminate()  # writes the router's own counters, then exits
    with open(router.metrics_out, "r", encoding="utf-8") as handle:
        routed = flat_samples(handle.read())
    run.values["cluster.router.requests"] = routed.get("qos_router_requests_total", 0.0)
    run.values["cluster.router.shard_errors"] = routed.get("qos_router_shard_errors_total", 0.0)
    run.values["cluster.router.shard_skew"] = (
        max(handled) / (sum(handled) / len(handled)) if sum(handled) else 0.0)
    run.check("the router reached every shard every time",
              run.values["cluster.router.shard_errors"] == 0)
    if run.traced:
        probes.direct(run, mirrors[0], logs[0])
        probes.placement(run, table)
        layer_times(run, timed, "o", run.values["observe_p50_ms"], 0.0)
        stop_gracefully(run, nodes[1])


def replay_on(run: Run) -> None:
    (node, conns) = single_shard(run, ("--background-replay",), connections=2)
    sends = [binary_sender(conn) for conn in conns]
    scraper = Scraper([node.server.address])
    before = scraper.metrics()
    scraped_at = time.perf_counter()
    users = list(range(streams.REPLAY_USERS))
    log: list = []

    def observes(phase: str, count: int, start: int):
        return tagged("o", streams.owned_observes(
            run.seed, run.truth, run.name, phase, users, streams.REPLAY_SERVICES,
            count, start))

    def rankings(phase: str, count: int):
        return tagged("p", streams.owned_predicts(
            run.seed, run.truth, run.name, phase, users, streams.REPLAY_SERVICES, count))

    # (B) closed-loop observes while the trainer replays; they also fill
    # the store the trainer replays from.
    seconds = run.seconds_for(0.30)
    ops = observes("B1", int(seconds * OBSERVES_PER_S), 0)
    phase = closed_loop(ops, sends[0], seconds)
    run.account(ops, phase, log)
    run.values["observe_ops_per_s"] = phase.per_second()

    # (A) open loop: observes on one connection, rankings on the other.
    seconds = run.seconds_for(0.40)
    writes = observes("A", int(seconds * REPLAY_OBSERVE_RATE), phase.attempted)
    reads = rankings("A", int(seconds * REPLAY_PREDICT_RATE))
    start_at = time.perf_counter() + 0.05
    write_phase, read_phase = side_by_side([
        lambda: open_loop(writes, sends[0], REPLAY_OBSERVE_RATE, seconds, start_at),
        lambda: open_loop(reads, sends[1], REPLAY_PREDICT_RATE, seconds, start_at),
    ])
    run.latency("observe", run.account(writes, write_phase, log)["o"])
    run.latency("predict", run.account(reads, read_phase, log)["p"])
    run.score(reads, read_phase)

    # (B) closed-loop rankings.
    seconds = run.seconds_for(0.30)
    ops = rankings("B2", int(seconds * PREDICTS_PER_S))
    phase = closed_loop(ops, sends[0], seconds)
    run.account(ops, phase, log)
    run.values["predict_ops_per_s"] = phase.per_second()
    run.score(ops, phase)
    if run.traced:
        probes.wire(run, conns[0], None, log)

    node = crash_and_recover(run, node, scraper, sends[0], log, flat=True,
                             trainer_off=False)
    elapsed = time.perf_counter() - scraped_at
    stop_gracefully(run, node)
    check_ingest_counters(run, before, log, 0, flat=True)
    common_layers(run, scraper, before)
    run.values["core.daemon.replay_steps_per_s"] = run.values["core.amf.replay_steps"] / elapsed
    run.values["core.daemon.replay_lag_s"] = run.final_metrics.get(
        "qos_background_replay_lag_seconds", 0.0)
    run.check("the trainer replayed", run.values["core.amf.replay_steps"] > 0)
    if run.traced:
        # The trainer makes the shard's state depend on thread timing, so
        # the mirror here only times the calls; it cannot check values.
        mirror = make_mirror(run)
        timed = replay_log(run, mirror, log, "o", compare=False)
        codec = probes.direct(run, mirror, log)
        probes.replay_step(run, mirror)
        layer_times(run, timed, "o", run.values["observe_p50_ms"], codec["o"])


# Each workload and the server processes it starts (one core each).
WORKLOADS = {
    "ingest_flat": (ingest_flat, ["s0"]),
    "rank_hot": (rank, ["s0"]),
    "rank_wide": (rank, ["s0"]),
    "tiered_churn": (tiered_churn, ["s0"]),
    "cluster_prequential": (cluster_prequential, ["s0", "s1", "router"]),
    "replay_on": (replay_on, ["s0"]),
}


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: str) -> Run:
    """Run one workload to the end; servers are gone when this returns."""
    run = Run(name, seed, seconds, traced, workdir)
    workload, servers = WORKLOADS[name]
    with Fleet(workdir, servers) as fleet:
        run.fleet = fleet
        workload(run)
        run.finish_scores()
    run.values["failed_share"] = run.failed / run.attempted if run.attempted else 1.0
    run.check("no request failed", run.failed == 0, f"{run.failed} of {run.attempted}")
    return run
