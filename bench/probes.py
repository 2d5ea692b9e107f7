"""Small traced-run probes: one layer each, timed from the generator process.

:func:`wire` and :func:`router_hop` send a few extra requests to the real
servers; everything else calls a layer's public functions directly, on
the requests the run actually sent.  Each probe sets its metrics in
``run.values``; a workload that does not use a layer leaves it at 0.
"""

from __future__ import annotations

import os
import time

import numpy as np

from bench import streams
from bench.layers import p50
from bench.loadgen import closed_loop, json_sender
from repro.datasets.schema import QoSRecord
from repro.lifecycle import LifecycleConfig, SpillStore, TieredAMF
from repro.core.amf import AdaptiveMatrixFactorization
from repro.robustness import GateConfig, SanitizerGate
from repro.server import binary
from repro.server.client import PredictionClient
from repro.server.wal import WriteAheadLog

PINGS = 200
HTTP_PROBES = 30
DIRECT_SAMPLE = 2000
PROBE_KEYS = 20_000_000  # request numbers no phase reaches


def timed_us(call, items, mean: bool = False) -> float:
    """Median (or mean) microseconds of ``call(item)`` over ``items``."""
    clock = time.perf_counter
    samples = []
    for item in items:
        began = clock()
        call(item)
        samples.append((clock() - began) * 1e6)
    if mean:
        return float(np.mean(samples)) if samples else 0.0
    return p50(samples)


def probe_observes(run, name: str, users, count: int, start: int) -> list:
    return [("o", body) for body in streams.owned_observes(
        run.seed, run.truth, run.name, name, users, streams.CLUSTER_SERVICES, count, start)]


def wire(run, conn, client: "PredictionClient | None", log: list) -> None:
    """Round trips that do no model work: the transport floor under every
    request.  With a JSON client, also a few real JSON observes, which are
    logged like any other acknowledged request."""
    run.values["server.binary.ping_rtt_us"] = timed_us(lambda _: conn.ping(), range(PINGS))
    if client is None:
        return
    run.values["server.client.health_rtt_us"] = timed_us(
        lambda _: client.health(), range(HTTP_PROBES))
    ops = probe_observes(run, "probe", range(streams.INGEST_USERS), HTTP_PROBES, PROBE_KEYS)
    phase = closed_loop(ops, json_sender(client), 30.0)
    run.values["server.client.json_observe_rtt_us"] = 1e3 * p50(run.account(ops, phase, log)["o"])


def router_hop(run, cluster_client, node, users, log: list) -> None:
    """What the router adds: the same kind of request sent through the
    router and straight to the owning shard, alternately."""
    direct = PredictionClient(node.server.address, transport="json", timeout=30.0)
    via_router, to_shard = json_sender(cluster_client), json_sender(direct)
    writes = probe_observes(run, "hop", users, 2 * HTTP_PROBES, PROBE_KEYS)
    reads = [("p", body) for body in streams.owned_predicts(
        run.seed, run.truth, run.name, "hop", users, streams.CLUSTER_SERVICES,
        2 * HTTP_PROBES)]
    for kind, ops in (("observe", writes), ("predict", reads)):
        medians = []
        for sender, half in ((via_router, ops[0::2]), (to_shard, ops[1::2])):
            phase = closed_loop(half, sender, 30.0)
            medians.append(1e3 * p50(run.account(half, phase, log)[ops[0][0]]))
        run.values[f"cluster.router.{kind}_hop_us"] = medians[0] - medians[1]
        if kind == "observe":
            run.values["server.client.json_observe_rtt_us"] = medians[1]
    run.values["server.client.health_rtt_us"] = timed_us(
        lambda _: direct.health(), range(HTTP_PROBES))


def placement(run, table) -> None:
    run.values["cluster.placement.owner_of_us"] = timed_us(
        lambda user: table.owner_of("user", user), range(DIRECT_SAMPLE))


def direct(run, mirror, log: list) -> dict:
    """Layers called directly on a sample of the run's own requests.
    Returns the binary codec's median cost per observe and per predict."""
    observes = [op[1] for _, op, _ in log if op[0] == "o"][:DIRECT_SAMPLE]
    predicts = [(op[1], reply) for _, op, reply in log if op[0] == "p"][-DIRECT_SAMPLE:]
    values = run.values
    model = mirror.raw_model

    head = len(binary.pack_frame(binary.OP_PING))  # pack_* return whole frames

    def observe_codec(body):
        binary.unpack_observe_request(binary.pack_observe_request(*body)[head:])

    def predict_codec(item):
        (user, service_ids, _), (answers, _) = item
        binary.unpack_predict_request(binary.pack_predict_request(user, service_ids)[head:])
        binary.unpack_predict_response(
            binary.pack_predict_response(answers, [0] * len(answers))[head:])

    codec = {"o": timed_us(observe_codec, observes), "p": timed_us(predict_codec, predicts)}

    known = [
        (user, np.asarray([s for s in ids if model.knows_service(s)], dtype=np.intp))
        for (user, ids, _), _ in predicts if model.knows_user(user)
    ]
    known = [(user, ids) for user, ids in known if len(ids)]
    values["core.amf.predict_for_user_us"] = timed_us(
        lambda item: model.predict_for_user(*item), known)
    values["core.daemon.predict_batch_known_us"] = timed_us(
        lambda item: mirror.model.predict_batch_known(item[0][0], item[0][1]), predicts)

    records = [QoSRecord(timestamp=t, user_id=u, service_id=s, value=v)
               for t, u, s, v, _ in observes]
    gate = SanitizerGate(GateConfig(), model.normalize_value, model.denormalize_value)
    values["robustness.gate.process_us"] = timed_us(gate.process, records)

    wal_dir = os.path.join(run.workdir, "probe-wal")
    with WriteAheadLog(wal_dir, fsync=False) as wal:
        values["server.wal.append_nofsync_us"] = timed_us(wal.append, records)
    if records:
        size = sum(os.path.getsize(os.path.join(wal_dir, f)) for f in os.listdir(wal_dir))
        values["server.wal.bytes_per_append"] = size / len(records)
        began = time.perf_counter()
        with WriteAheadLog(wal_dir, fsync=False) as wal:
            replayed = sum(1 for _ in wal.replay_entries(after_seq=0))
        values["server.wal.replay_records_per_s"] = replayed / (time.perf_counter() - began)

    path = os.path.join(run.workdir, "fsync-probe")
    with open(path, "wb") as handle:
        def write_and_sync(_):
            handle.write(b"x" * 128)
            handle.flush()
            os.fsync(handle.fileno())
        values["env.fsync_probe_us"] = timed_us(write_and_sync, range(PINGS))
    return codec


def tiered(run, observes: list, hot_users: int, hot_services: int) -> None:
    """``lifecycle.tiered`` and ``lifecycle.spill`` on the run's own
    observe stream: a hot tier of the shard's size over an sqlite file."""
    store = SpillStore(os.path.join(run.workdir, "probe-spill.sqlite"))
    model = TieredAMF.from_model(
        AdaptiveMatrixFactorization(None, rng=0),
        LifecycleConfig(hot_users=hot_users, hot_services=hot_services), store)
    records = [QoSRecord(timestamp=t, user_id=u, service_id=s, value=v)
               for t, u, s, v, _ in observes[: 4 * DIRECT_SAMPLE]]
    # The mean, not the median: demotion happens in batches, so the cost of
    # tiering sits in the few observes that trigger one.
    run.values["lifecycle.tiered.observe_us"] = timed_us(
        model.observe_reviving, records, mean=True)
    keys = [("user", key) for key in store.keys("user")[:DIRECT_SAMPLE // 4]]
    payloads = []
    run.values["lifecycle.spill.get_us"] = timed_us(
        lambda key: payloads.append(store.get(*key)), keys)

    # The tiered model commits once per demotion batch, so a put is timed alone.
    run.values["lifecycle.spill.put_us"] = timed_us(
        lambda item: store.put(item[0][0], item[0][1], item[1]), list(zip(keys, payloads)))
    store.commit()
    store.close()


def replay_step(run, mirror) -> None:
    """One background-replay step of Algorithm 1 on the mirror's model."""
    model = mirror.raw_model
    now = mirror.model.latest_timestamp
    samples = []
    for _ in range(20):
        began = time.perf_counter()
        steps = model.replay_many(now, 256)[0]
        if steps:
            samples.append((time.perf_counter() - began) * 1e6 / steps)
    run.values["core.amf.replay_step_us"] = p50(samples)
