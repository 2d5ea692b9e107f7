"""Chaos drills: each bit-exact contract of the serving stack, proved by one
scenario over one small runner.

The paper's predictor is consulted precisely when the environment is
misbehaving, so every guarantee the serving stack makes is checked *while*
something is being killed, partitioned, squeezed or migrated — and checked
as an equality against a run where nothing went wrong, never as a
tolerance.  The runner is three things:

* :class:`Fleet` — every server, router and client a drill starts: start a
  node, ``kill -9`` it, restart it on the same data dir and port, put N
  shards behind a router, and leave nothing running afterwards.
* :func:`feed` — the one loop that posts observations and returns each
  one's pre-update error (the *error stream*).
* the oracle — :func:`snapshot` / :func:`diff_state` compare two servers
  part by part (counts, factors, gate, dedup ledger, drift window,
  lifecycle tiers, spill rows, error stream); :func:`diff_checkpoints`
  compares the archives two data dirs ended with.  Every drill ends in
  one :class:`DrillReport`.

The fault *sources* (hostile streams, the faulty replication link, the
flood) live in :mod:`repro.simulation.faults`.  The scenarios, as
``scripts/chaos_check.py <scenario>`` runs them (``--all`` runs all but
``memory-cap``):

==================  =========================================================
``crash-recovery``  kill -9 mid-stream, restart from checkpoint + WAL tail:
                    bit-exact against an uninterrupted run (hostile, clean
                    and tiered streams)
``poison-flood``    NaN/inf payloads bounce with 400, a 4-thread flood is
                    shed with Retry-After, predictions never fail, accuracy
                    holds
``failover``        partition the replication link, kill the primary: the
                    auto-promoted standby equals a never-failed server and
                    the revived primary is fenced
``memory-pressure`` an allocation ceiling below the hot tier: caps tighten,
                    cold and hot reads answer from the model and the hot
                    tier does not grow, restart is bit-exact
``shard-kill``      kill one (tiered) shard behind the router: survivors
                    untouched, victim traffic fails as 503
                    shard_unavailable, victim recovers bit-exact
``migration-kill``  kill source, destination or router at each migration
                    phase: the resumed drain equals an unkilled one
``migration-live``  3 -> 4 shard rebalance under reader threads: the error
                    stream equals a single server that never migrated
``memory-cap``      the bounded (tiered) model finishes under an RLIMIT_AS
                    that kills the unbounded one; same error stream
==================  =========================================================
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import get_context

import numpy as np

from repro.cluster.placement import PlacementTable, ShardSpec
from repro.cluster.router import ClusterRouter
from repro.core.serialization import archive_digest
from repro.datasets.schema import QoSRecord
from repro.lifecycle import LifecycleConfig, SpillStore, TieredAMF
from repro.metrics.errors import mae
from repro.robustness import AdmissionConfig
from repro.server.app import PredictionServer
from repro.server.binary import TRANSPORT_BINARY_REQUESTS
from repro.server.client import (
    PredictionClient,
    PredictionServiceError,
    RetryableServiceError,
    TerminalServiceError,
)
from repro.server.replication import HttpReplicaLink, ReplicationConfig
from repro.server.wal import CheckpointStore
from repro.simulation.faults import (
    FaultConfig,
    FaultInjector,
    FaultyReplicaLink,
    LinkFaultConfig,
    check_metrics_exposition,
    drive_client,
    run_flood,
)


# -- the report ---------------------------------------------------------------
@dataclass
class DrillReport:
    """Outcome of any drill, filled in as the scenario runs.

    ``matches`` is the verdict: every oracle diff came back empty and every
    scenario check held (``detail["mismatches"]`` lists what did not).
    ``metrics_ok`` reports whether the ``/metrics`` scrape taken mid-drill
    parsed as valid Prometheus exposition with every
    :data:`~repro.simulation.faults.CORE_METRIC_FAMILIES` entry.  ``detail``
    carries the scenario's name and what it measured along the way.
    """

    matches: bool = True
    metrics_ok: bool = True
    detail: dict = field(default_factory=dict)

    @classmethod
    def begin(cls, scenario: str, **detail) -> "DrillReport":
        return cls(detail={"scenario": scenario, **detail})

    def expect(self, ok, mismatch: str) -> None:
        """Hold the drill to one check: record ``mismatch`` unless ``ok``."""
        if not ok:
            self.matches = False
            self.detail.setdefault("mismatches", []).append(mismatch)

    def add(self, mismatches: "list[str]", prefix: str = "") -> None:
        """Record what the oracle found (nothing, in a passing drill)."""
        for mismatch in mismatches:
            self.expect(False, prefix + mismatch)

    def scrape(self, client) -> None:
        """Validate ``client``'s ``/metrics`` where an operator's monitoring
        would hit it: mid-drill, on whatever is serving right now."""
        ok, self.detail["metrics"] = check_metrics_exposition(client.metrics())
        self.metrics_ok = self.metrics_ok and ok

    def summary(self) -> str:
        detail = dict(self.detail)
        lines = [
            f"{detail.pop('scenario', 'drill')}: "
            + ("MATCHES" if self.matches else "DIVERGES"),
            f"metrics exposition {'OK' if self.metrics_ok else 'INVALID'}",
        ]
        mismatches = detail.pop("mismatches", [])
        lines += [f"  {key}: {value}" for key, value in detail.items()]
        lines += [f"  MISMATCH {mismatch}" for mismatch in mismatches]
        return "\n".join(lines)


# -- the fleet ----------------------------------------------------------------
class Fleet:
    """Every process-equivalent a drill starts, and the one place a
    :class:`PredictionServer` is constructed.

    ``server_args`` apply to every node; :meth:`start` takes per-node
    overrides.  All nodes run ``background_replay=False`` so model state is
    a deterministic function of the observation sequence — which is what
    makes "faulted == never faulted" a checkable equality rather than a
    statistical claim.  Use as a context manager: whatever is still running
    on exit (also on an exception mid-drill) is stopped.
    """

    def __init__(self, **server_args) -> None:
        self._server_args = {"background_replay": False, **server_args}
        self._specs: dict[str, dict] = {}
        self.nodes: dict[str, PredictionServer] = {}
        self._routers: list[ClusterRouter] = []
        self._clients: list[PredictionClient] = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(
        self, name: str, data_dir: "str | None" = None, serve: bool = True, **overrides
    ) -> PredictionServer:
        """Bring up node ``name``; ``serve=False`` recovers it from its
        data dir without opening its listeners."""
        spec = {**self._server_args, "data_dir": data_dir, **overrides}
        server = PredictionServer(**spec)
        self._specs[name] = spec
        self.nodes[name] = server
        if serve:
            server.start()
        return server

    def kill(self, name: str) -> None:
        """``kill -9``: stop serving with no final checkpoint.  The node
        stays restartable on the port it held."""
        server = self.nodes.pop(name)
        self._specs[name]["port"] = server.address[1]
        server.kill()

    def restart(self, name: str, serve: bool = True) -> PredictionServer:
        """Recover a killed node from its own checkpoint + WAL tail, with
        the arguments and on the port it had."""
        return self.start(name, serve=serve, **self._specs[name])

    def replicate(
        self,
        primary_dir: str,
        standby_dir: str,
        epoch_store: str,
        link_faults: "LinkFaultConfig | None" = None,
        auto_promote_after: "float | None" = None,
        rng: int = 0,
    ):
        """A durable ``primary`` and a WAL-shipping ``standby`` around one
        epoch store, and a client that knows both endpoints.  The standby
        pulls through a :class:`~repro.simulation.faults.FaultyReplicaLink`
        and polls every 10 ms, and the client backs off for at most 0.25 s,
        so lag, promotion and failover are measured in milliseconds rather
        than poll intervals.  Returns ``(primary, standby, link, client)``."""
        primary = self.start(
            "primary",
            data_dir=primary_dir,
            replication=ReplicationConfig(
                epoch_store, role="primary", node_id="drill-primary"
            ),
        )
        link = FaultyReplicaLink(
            HttpReplicaLink(primary.address, timeout=2.0), link_faults, rng=rng
        )
        standby = self.start(
            "standby",
            data_dir=standby_dir,
            replication=ReplicationConfig(
                epoch_store,
                role="standby",
                primary_address=primary.address,
                node_id="drill-standby",
                poll_interval=0.01,
                fetch_timeout=2.0,
                auto_promote_after=auto_promote_after,
            ),
            replication_link=link,
        )
        client = self.client(
            [primary.address, standby.address],
            retries=4,
            backoff=0.02,
            backoff_max=0.25,
            jitter=0.1,
        )
        return primary, standby, link, client

    def route(self, names, data_dir: "str | None" = None) -> ClusterRouter:
        """Put the named nodes behind a new router.  With ``data_dir`` the
        router journals placement and migrations there, so a successor over
        the same directory resumes what a killed one left."""
        table = PlacementTable(
            [
                ShardSpec(name=name, addresses=(self.nodes[name].address,))
                for name in names
            ]
        )
        router = ClusterRouter(table, data_dir=data_dir)
        router.start()
        self._routers.append(router)
        return router

    def client(self, address, **kwargs) -> PredictionClient:
        client = PredictionClient(address, **kwargs)
        self._clients.append(client)
        return client

    def stop(self, name: "str | None" = None) -> None:
        """Gracefully stop node ``name`` (its final checkpoint is what
        :func:`diff_checkpoints` reads) — or, with no name, everything that
        is still running."""
        if name is not None:
            self.nodes.pop(name).stop()
            return
        for client in self._clients:
            client.close()
        for router in self._routers:
            router.stop()
        for server in self.nodes.values():
            server.stop()
        self._clients, self._routers, self.nodes = [], [], {}


def feed(client, records, keys=None) -> "list[float]":
    """Post ``records`` in order through ``client`` and return each one's
    pre-update error — NaN where the server acknowledged without a model
    update (a deduplicated retry, a quarantined sample).

    This is the drills' one observation-posting loop.  ``keys`` optionally
    supplies an idempotency key per record, which also switches the client
    into its retrying at-least-once mode.
    """
    keys = itertools.repeat(None) if keys is None else keys
    return [
        client.report_observation(
            record.user_id,
            record.service_id,
            record.value,
            record.timestamp,
            idempotency_key=key,
        )
        for record, key in zip(records, keys)
    ]


def wait_until(condition, timeout: float, poll: float = 0.005) -> bool:
    """Poll ``condition`` until it holds; ``False`` if ``timeout`` passed."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(poll)
    return True


# -- the oracle ---------------------------------------------------------------
#: What :func:`snapshot` captures and :func:`diff_state` compares, in
#: report order.
STATE_PARTS: tuple[str, ...] = (
    "updates_applied",
    "stored_samples",
    "user_factors",
    "service_factors",
    "gate",
    "ledger",
    "drift",
    "lifecycle",
    "spill",
    "errors",
)


def spill_part(server) -> "dict | None":
    """The spill file as ``server``'s own connection sees it (``None``
    without tiering): ``rows`` — ``[kind, id, sha256(payload)]`` in key
    order — and ``strays``, every ``[kind, id]`` that has a row but is not
    in the model's spilled set, or the reverse.  *Row present iff spilled*
    makes ``strays`` empty on any correct server."""
    if server.lifecycle is None:
        return None

    def read(model) -> dict:
        rows = model._spill.rows()
        spilled = {
            (side.kind, ext) for side in model._sides.values() for ext in side.spilled
        }
        return {
            "rows": [
                [kind, ext, hashlib.sha256(payload).hexdigest()]
                for kind, ext, payload in rows
            ],
            "strays": sorted(
                map(list, spilled ^ {(kind, ext) for kind, ext, __ in rows})
            ),
        }

    return server.model.with_model(read)


def snapshot(server, errors: "list[float] | None" = None) -> dict:
    """Everything the oracle compares about one server: model counts and
    factor matrices, the outlier gate's full state and decision counts, the
    dedup ledger, the windowed-accuracy (drift) monitor, the hot/cold tier
    assignment, the spill file's rows (:func:`spill_part`) — and
    ``errors``, the error stream :func:`feed` returned while driving it."""
    model, gate = server.model, server.gate
    return {
        "updates_applied": model.updates_applied,
        "stored_samples": model.n_stored_samples,
        "user_factors": model.user_factors(),
        "service_factors": model.service_factors(),
        "gate": None
        if gate is None
        else {"state": gate.state_dict(), "counts": dict(gate.counts)},
        "ledger": server.ledger.state_dict(),
        "drift": server.drift.snapshot(),
        "lifecycle": None
        if server.lifecycle is None
        else model.with_model(lambda m: m.lifecycle_state()),
        "spill": spill_part(server),
        "errors": errors,
    }


def _same(ours, theirs) -> bool:
    """Exact equality, except that NaN equals NaN (an empty drift window
    and a deduplicated error are NaN on both sides of a correct drill)."""
    if isinstance(ours, np.ndarray) or isinstance(theirs, np.ndarray):
        return (
            isinstance(ours, np.ndarray)
            and isinstance(theirs, np.ndarray)
            and ours.shape == theirs.shape
            and np.array_equal(ours, theirs)
        )
    if isinstance(ours, dict) and isinstance(theirs, dict):
        return ours.keys() == theirs.keys() and all(
            _same(value, theirs[key]) for key, value in ours.items()
        )
    if isinstance(ours, (list, tuple)) and isinstance(theirs, (list, tuple)):
        return len(ours) == len(theirs) and all(map(_same, ours, theirs))
    if isinstance(ours, float) and isinstance(theirs, float):
        return ours == theirs or (math.isnan(ours) and math.isnan(theirs))
    return ours == theirs


def _where(ours, theirs) -> str:
    """Where two unequal parts differ, short enough for a report line."""
    if isinstance(ours, np.ndarray) and isinstance(theirs, np.ndarray):
        if ours.shape != theirs.shape:
            return f"shape {ours.shape} vs {theirs.shape}"
        return f"max abs divergence {float(np.max(np.abs(ours - theirs))):.3e}"
    if isinstance(ours, dict) and isinstance(theirs, dict):
        keys = [
            key
            for key in {**ours, **theirs}
            if key not in ours
            or key not in theirs
            or not _same(ours[key], theirs[key])
        ]
        return f"differs at {keys[:5]}"
    if isinstance(ours, (list, tuple)) and isinstance(theirs, (list, tuple)):
        if len(ours) != len(theirs):
            return f"length {len(ours)} vs {len(theirs)}"
        index = next(
            i for i, pair in enumerate(zip(ours, theirs)) if not _same(*pair)
        )
        return f"first differs at [{index}]: {ours[index]!r} vs {theirs[index]!r}"
    return f"{ours!r} vs {theirs!r}"


def _diff(part: str, ours, theirs) -> "list[str]":
    """No line if the two values are the same, else one naming ``part``."""
    return [] if _same(ours, theirs) else [f"{part}: {_where(ours, theirs)}"]


def _diff_spill(part: str, ours, theirs) -> "list[str]":
    """Two :func:`spill_part` results: equal to each other, and each side's
    file agreeing with its own model about who is spilled."""
    return _diff(part, ours, theirs) + [
        f"{part}: row present iff spilled fails for {spill['strays'][:5]}"
        for spill in (ours, theirs)
        if spill is not None and spill["strays"]
    ]


def diff_state(ours: dict, theirs: dict, ignore: "tuple[str, ...]" = ()) -> "list[str]":
    """Compare two :func:`snapshot` results part by part; one mismatch line
    per differing part, each starting with the part's name.

    ``ignore`` names parts a scenario cannot compare — the drift window
    only covers what a *process* ingested live, so a restarted node's
    legitimately differs from a never-restarted baseline's.
    """
    return [
        mismatch
        for part in STATE_PARTS
        if part not in ignore
        for mismatch in (_diff_spill if part == "spill" else _diff)(
            part, ours[part], theirs[part]
        )
    ]


def diff_checkpoints(
    dir_a: str, dir_b: str, ignore_extra: "tuple[str, ...]" = ()
) -> "tuple[list[str], tuple[str, str]]":
    """Compare the checkpoint archives two data dirs ended with, by content
    (:func:`~repro.core.serialization.archive_digest`: zip-member bytes,
    not archive timestamps) — equal digests mean the fault left no trace at
    all in the persisted state.  ``ignore_extra`` excludes control-plane
    extras that *must* differ (the fencing epoch after a promotion, the
    batch numbering of a resumed migration).

    Returns ``(mismatches, (digest_a, digest_b))``.
    """
    digest_a, digest_b = (
        archive_digest(CheckpointStore(data_dir).path, ignore_extra=ignore_extra)
        for data_dir in (dir_a, dir_b)
    )
    if digest_a == digest_b:
        return [], (digest_a, digest_b)
    return (
        [f"checkpoint: archives differ ({digest_a[:12]} vs {digest_b[:12]})"],
        (digest_a, digest_b),
    )


def never_faulted(
    fleet: Fleet, records, keys=None, reads=(), data_dir=None, **overrides
) -> dict:
    """The other half of every equality: a server fed the same logical
    stream (and the same ``reads`` — with tiering on a read can revive a
    cold entity, which is a state mutation) with no fault injected.
    Returns its :func:`snapshot`, error stream included, after a graceful
    stop so ``data_dir`` holds its final checkpoint."""
    server = fleet.start("baseline", data_dir=data_dir, **overrides)
    client = fleet.client(server.address)
    errors = feed(client, records, keys)
    for user_id, service_id in reads:
        client.predict(user_id, service_id)
    state = snapshot(server, errors)
    fleet.stop("baseline")
    return state


def diff_never_faulted(
    report: DrillReport,
    fleet: Fleet,
    state: dict,
    data_dir: str,
    baseline_dir: "str | None",
    records,
    keys=None,
    reads=(),
    ignore: "tuple[str, ...]" = (),
    ignore_extra: "tuple[str, ...]" = (),
    prefix: str = "",
):
    """The oracle's whole verdict on one drilled node — ``state`` is its
    snapshot, ``data_dir`` holds its final checkpoint: every state part
    must equal a :func:`never_faulted` server's fed ``records``, and, when
    the baseline is durable (``baseline_dir``), so must the checkpoint
    archives.  Mismatches go to ``report``; returns ``(baseline snapshot,
    (digest, baseline digest) or None)``."""
    baseline = never_faulted(fleet, records, keys, reads, data_dir=baseline_dir)
    report.add(diff_state(state, baseline, ignore), prefix)
    digests = None
    if baseline_dir is not None:
        mismatches, digests = diff_checkpoints(data_dir, baseline_dir, ignore_extra)
        report.add(mismatches, prefix)
    return baseline, digests


# -- streams ------------------------------------------------------------------
def uniform_stream(
    n: int, seed: int, n_users: int = 20, n_services: int = 40
) -> "list[QoSRecord]":
    """``n`` records over uniformly drawn (user, service) pairs."""
    rng = np.random.default_rng(seed)
    return [
        QoSRecord(
            timestamp=float(k),
            user_id=int(rng.integers(n_users)),
            service_id=int(rng.integers(n_services)),
            value=float(rng.uniform(0.05, 5.0)),
        )
        for k in range(n)
    ]


def disjoint_stream(
    users, per_user: int = 3, rounds: int = 2, seed: int = 0
) -> "list[QoSRecord]":
    """``rounds`` passes in which each user observes its own ``per_user``
    services, so every sample edge stays inside one migration unit — the
    setup under which live migration is provably bit-exact (a service
    shared across shards collapses two per-shard views into one, which is
    convergent but not byte-equal)."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(rounds):
        for index, user_id in enumerate(users):
            for service_id in range(index * per_user, (index + 1) * per_user):
                records.append(
                    QoSRecord(
                        timestamp=float(len(records) + 1),
                        user_id=user_id,
                        service_id=service_id,
                        value=float(rng.uniform(0.05, 5.0)),
                    )
                )
    return records


#: A hot tier far below the drill streams' populations (16-60 users, 24-48
#: services): every run demotes and revives, so the spill file the oracle
#: reads is never empty.
SMALL_TIER = LifecycleConfig(hot_users=8, hot_services=12)


# -- scenarios ----------------------------------------------------------------
def run_crash_recovery(
    records: "list[QoSRecord]",
    crash_after: int,
    data_dir: str,
    rng: int = 0,
    faults: "FaultConfig | None" = None,
    server_kwargs: "dict | None" = None,
) -> DrillReport:
    """Kill a durable server mid-stream, recover it, and diff against an
    uninterrupted baseline.

    The server ingests ``records[:crash_after]`` over HTTP, dies with no
    final checkpoint (the state a ``kill -9`` leaves), restarts from
    checkpoint + WAL tail, finishes the stream and answers one read and a
    ``/metrics`` scrape; the baseline sees the same stream and the same
    read.  ``faults`` optionally mangles the stream first (both runs then
    see the *same* mangled stream).

    ``server_kwargs`` reaches every server in the drill — pass ``gate=``
    or ``lifecycle=`` to drill those layers (their state joins the
    equality), or a ``checkpoint_interval`` other than 50.  The baseline is
    durable too, in ``<data_dir>-baseline``, and the final checkpoint
    *contents* of both runs must be equal.
    """
    if not (0 <= crash_after <= len(records)):
        raise ValueError(
            f"crash_after must be within [0, {len(records)}], got {crash_after}"
        )
    if faults is not None:
        records = list(FaultInjector(records, faults, rng=rng))
        crash_after = min(crash_after, len(records))
    reads = [(record.user_id, record.service_id) for record in records[:1]]
    report = DrillReport.begin(
        "crash-recovery", records=len(records), crash_after=crash_after
    )
    detail = report.detail

    with Fleet(rng=rng, **{"checkpoint_interval": 50, **(server_kwargs or {})}) as fleet:
        server = fleet.start("node", data_dir=data_dir)
        errors = feed(fleet.client(server.address), records[:crash_after])
        fleet.kill("node")

        recovered = fleet.restart("node")
        detail["recovery"] = dict(recovered.recovery)
        client = fleet.client(recovered.address)
        errors += feed(client, records[crash_after:])
        for user_id, service_id in reads:
            client.predict(user_id, service_id)
        report.scrape(client)
        recovered_state = snapshot(recovered, errors)
        fleet.stop("node")

        baseline_state, digests = diff_never_faulted(
            report,
            fleet,
            recovered_state,
            data_dir,
            os.path.normpath(data_dir) + "-baseline",
            records,
            reads=reads,
            ignore=("drift",),
        )
    detail["updates_applied"] = baseline_state["updates_applied"]
    if recovered_state["gate"] is not None:
        detail["gate_counts"] = recovered_state["gate"]["counts"]
    detail["checkpoint_digests"] = dict(zip(("recovered", "baseline"), digests))
    return report


def run_poison_flood(seed: int = 0) -> DrillReport:
    """Poison, then flood, a gated and admission-controlled server.

    The server is warmed over a stream in which 8% of the payloads are
    NaN / ±inf / negative — every one must bounce with a 400, and every
    valid keyed sample must land despite the rate limiter (the keyed client
    retries shed requests, honouring ``Retry-After``).  It is then flooded
    from four threads with four times the warm-up volume: the excess must
    be shed with a ``Retry-After`` hint while a prober's predictions never
    fail, and accuracy against the (rank-1) ground truth after the flood
    must match accuracy before it — the flood is in-distribution, so what
    is admitted can only refine the model.
    """
    rng = np.random.default_rng(seed)
    n_users, n_services = 12, 16
    truth = np.outer(
        rng.uniform(0.5, 2.0, size=n_users), rng.uniform(0.4, 2.5, size=n_services)
    )

    def sample(k: int) -> QoSRecord:
        u, s = int(rng.integers(n_users)), int(rng.integers(n_services))
        noisy = float(truth[u, s] * (1.0 + rng.normal(0.0, 0.03)))
        return QoSRecord(
            timestamp=float(k), user_id=u, service_id=s, value=max(noisy, 1e-3)
        )

    records = 300
    warm = [sample(k) for k in range(records)]
    flood_records = [sample(records + k) for k in range(records * 4)]
    pairs = [(u, s) for u in range(n_users) for s in range(n_services)]
    report = DrillReport.begin("poison-flood")

    with Fleet(
        rng=seed,
        gate=True,
        admission=AdmissionConfig(rate=400.0, burst=60.0, max_pending=16, deadline=1.0),
    ) as fleet:
        server = fleet.start("node")
        client = fleet.client(server.address, retries=4, backoff=0.05)

        def probe_mae() -> float:
            return mae(
                [client.predict(u, s) for u, s in pairs],
                [float(truth[u, s]) for u, s in pairs],
            )

        warmup = drive_client(
            client,
            FaultInjector(warm, FaultConfig(poison_rate=0.08), rng=seed),
            idempotency_prefix="warmup",
        )
        pre_mae = probe_mae()
        flood = run_flood(server.address, flood_records, threads=4, predict_pairs=pairs)
        post_mae = probe_mae()
        report.scrape(client)

    report.detail.update(
        warmup=warmup,
        flood=flood,
        pre_flood_mae=round(pre_mae, 4),
        post_flood_mae=round(post_mae, 4),
    )
    report.expect(warmup["poisoned"], "drill bug: no poison events were injected")
    report.expect(
        not warmup["poison_accepted"],
        f"{warmup['poison_accepted']} poisoned payloads were accepted",
    )
    report.expect(
        not warmup["rejected"],
        f"{warmup['rejected']} valid keyed warm-up samples lost despite retries",
    )
    report.expect(flood["shed"], "flood was never shed (admission control inert)")
    report.expect(
        flood["retry_after_hints"] >= flood["shed"],
        f"only {flood['retry_after_hints']}/{flood['shed']} shed responses "
        "carried a Retry-After hint",
    )
    report.expect(
        not flood["errors"], f"{flood['errors']} transport errors during flood"
    )
    report.expect(flood["predictions_ok"], "no predictions served during the flood")
    report.expect(
        not flood["predictions_failed"],
        f"{flood['predictions_failed']} predictions failed during the flood",
    )
    report.expect(
        post_mae <= pre_mae * 1.25 + 0.05,
        f"post-flood MAE {post_mae:.4f} degraded from {pre_mae:.4f}",
    )
    return report


def _probe_fence(fleet: Fleet, report: DrillReport, data_dir, epoch_store, record):
    """Revive a deposed primary from its untouched data dir and probe it
    with a write.  The epoch store outranks the node's own checkpoint, so
    it must come up fenced and refuse with a structured 409
    ``stale_epoch``."""
    revived = fleet.start(
        "revived",
        data_dir=data_dir,
        replication=ReplicationConfig(
            epoch_store, role="primary", node_id="drill-primary-revived"
        ),
    )
    try:
        feed(fleet.client(revived.address, retries=0), [record])
        report.expect(False, "fencing: deposed primary accepted a write")
    except TerminalServiceError as exc:
        body = exc.body or {}
        probe = report.detail["fence_probe"] = {
            "status": exc.status,
            "code": body.get("code"),
            "cluster_epoch": body.get("cluster_epoch"),
        }
        report.expect(
            (probe["status"], probe["code"]) == (409, "stale_epoch"),
            f"fencing: expected 409 stale_epoch, got {probe}",
        )
    fleet.kill("revived")


#: Seconds of primary silence after which the failover drill's standby
#: promotes itself.
_AUTO_PROMOTE_AFTER = 0.25
#: How long a drill waits for a state it expects (a standby caught up,
#: pressure sustained) before it reports the miss.
_WAIT_TIMEOUT = 30.0


def run_failover(
    records: "list[QoSRecord]",
    kill_after: int,
    primary_dir: str,
    standby_dir: str,
    baseline_dir: str,
    epoch_store: str,
    rng: int = 0,
    server_kwargs: "dict | None" = None,
    link_faults: "LinkFaultConfig | None" = None,
) -> DrillReport:
    """Kill the primary mid-stream and prove the promoted standby is exact.

    The drill, in order:

    1. A durable **primary** and a WAL-shipping **standby** come up around
       a shared ``epoch_store``; a multi-endpoint client posts the first
       half of ``records[:kill_after]`` (each with an idempotency key).
    2. The replication link is **partitioned** (plus whatever
       ``link_faults`` adds — packet loss, slow link) while the primary
       keeps ingesting.  It **heals** when the rest of the pre-kill records
       are posted *or* half the auto-promote window has passed, whichever
       comes first — a partition that outlasts the window reads, to the
       standby, exactly like a dead primary, so on a slow disk it would
       promote before the drill kills anything.  What was not posted by
       then is posted after the heal; the drill waits for lag to reach 0.
    3. The primary is killed (no final checkpoint).  After
       :data:`_AUTO_PROMOTE_AFTER` seconds of silence the standby promotes
       itself via the epoch CAS (the measured **time to promote**, clocked
       from just before the kill: the standby's silence timer runs from its
       last successful fetch).
    4. The *same* client resends the last pre-kill record (same key — it
       must deduplicate on the new primary, proving at-least-once across
       promotion), then fails over and posts the remaining records.
    5. The old primary is revived from its untouched data dir and probed
       with a write: it must refuse with a structured 409 ``stale_epoch``.
    6. A never-failed baseline ingests the identical logical stream, the
       resend included; the promoted standby must match it in every
       :func:`snapshot` part, and its final checkpoint must be
       byte-identical with the ``replication`` extra (the necessarily
       higher epoch) excluded.

    ``server_kwargs`` reaches every server, as in
    :func:`run_crash_recovery` (``checkpoint_interval`` 50 by default).
    """
    if not (1 <= kill_after <= len(records)):
        raise ValueError(
            f"kill_after must be within [1, {len(records)}], got {kill_after}"
        )
    # The logical stream: every record once, plus the resend after the kill.
    stream = records[:kill_after] + records[kill_after - 1 :]
    keys = [f"failover:{index}" for index in range(len(records))]
    keys = keys[:kill_after] + keys[kill_after - 1 :]
    report = DrillReport.begin("failover", records=len(records), kill_after=kill_after)
    detail = report.detail

    with Fleet(rng=rng, **{"checkpoint_interval": 50, **(server_kwargs or {})}) as fleet:
        primary, standby, link, client = fleet.replicate(
            primary_dir, standby_dir, epoch_store, link_faults, _AUTO_PROMOTE_AFTER, rng
        )

        def caught_up() -> bool:
            return standby.wal_last_seq >= primary.wal_last_seq

        posted = max(1, kill_after // 2)
        errors = feed(client, stream[:posted], keys)
        wait_until(caught_up, _WAIT_TIMEOUT)
        link.partition()
        heal_by = time.monotonic() + _AUTO_PROMOTE_AFTER / 2
        while posted < kill_after and time.monotonic() < heal_by:
            errors += feed(client, [stream[posted]], [keys[posted]])
            posted += 1
        detail["lag_during_partition"] = primary.wal_last_seq - standby.wal_last_seq
        link.heal()
        errors += feed(client, stream[posted:kill_after], keys[posted:])
        healed = time.perf_counter()
        report.expect(
            wait_until(caught_up, _WAIT_TIMEOUT),
            f"replication: standby never caught up (seq {standby.wal_last_seq} < "
            f"primary {primary.wal_last_seq}: {standby._replicator.status()})",
        )
        detail["catchup_seconds_after_heal"] = round(time.perf_counter() - healed, 4)
        detail["link_counts"] = dict(link.counts)

        killed = time.perf_counter()
        fleet.kill("primary")
        wait_until(
            lambda: standby.role == "primary", _AUTO_PROMOTE_AFTER + _WAIT_TIMEOUT
        )
        detail["time_to_promote"] = time.perf_counter() - killed
        detail["promoted_epoch"] = standby.epoch

        report.expect(
            standby.role == "primary" and standby.epoch >= 2,
            f"promotion: standby is {standby.role} at epoch {standby.epoch}, not "
            f"primary past 1 (lost the CAS, or {standby._replicator.status()})",
        )
        if standby.role == "primary":
            # The dead primary's endpoint trips the client's breaker; the
            # resend and the rest of the stream land on the new primary.
            errors += feed(client, stream[kill_after:], keys[kill_after:])
            report.expect(
                math.isnan(errors[kill_after]),
                "dedup: retried key re-applied an SGD step across promotion",
            )
            client.predict(records[0].user_id, records[0].service_id)
            report.scrape(client)
            detail["client_failovers"] = client.failovers_performed
            detail["replication_status"] = client.replication_status()
        else:
            report.metrics_ok, detail["metrics"] = False, {"skipped": "no promotion"}
        _probe_fence(fleet, report, primary_dir, epoch_store, records[0])

        promoted_state = snapshot(standby, errors)
        fleet.stop("standby")  # final checkpoint carries the post-promotion epoch
        __, digests = diff_never_faulted(
            report,
            fleet,
            promoted_state,
            standby_dir,
            baseline_dir,
            stream,
            keys,
            ignore_extra=("replication",),
        )
    detail["windowed_accuracy"] = promoted_state["drift"]
    detail["checkpoint_digests"] = dict(zip(("promoted", "baseline"), digests))
    return report


def _unreachable_ceiling(rng: int, caps: dict):
    """The memory-pressure fault: a watchdog limit at half of
    what a full hot tier costs (measured by filling a throwaway
    :class:`TieredAMF` to the caps) — unreachable, so pressure is sustained.
    ``min_hot`` is floored at 70% of the caps so one tighten step exhausts
    the shrink headroom and the server sits in ``critical`` from then on.
    Returns ``(lifecycle config, full-tier bytes)``."""
    probe = TieredAMF(
        rng=rng, lifecycle=LifecycleConfig(**caps), spill=SpillStore(":memory:")
    )
    for k in range(max(caps.values())):
        probe.observe(
            QoSRecord(
                timestamp=float(k),
                user_id=k % caps["hot_users"],
                service_id=k % caps["hot_services"],
                value=1.0,
            )
        )
    full_resident = probe.resident_bytes()
    lifecycle = LifecycleConfig(
        **caps,
        memory_limit_bytes=max(1, int(full_resident * 0.5)),
        watchdog_interval=0.02,
        sustain_polls=2,
        shrink_factor=0.7,
        min_hot=max(2, int(caps["hot_users"] * 0.7)),
    )
    return lifecycle, full_resident


def _expect_cold_read(report: DrillReport, client, user_id: int, service_id: int) -> None:
    """A read of a spilled entity answers from the model — its row read
    through the spill store — however squeezed the server is, and leaves
    the hot tier exactly as it found it."""
    before = client.status()["lifecycle"]
    source = client.predict_detailed(user_id, service_id)["source"]
    after = client.status()["lifecycle"]
    hot = [before["hot_users"], after["hot_users"]]
    report.detail["cold_read"] = {"source": source, "hot_users": hot}
    report.expect(
        source == "model", f"cold read: expected a model answer, got {source!r}"
    )
    report.expect(
        hot[0] == hot[1] and before["spilled_users"] == after["spilled_users"],
        f"cold read: the read moved the hot tier ({hot[0]} -> {hot[1]} hot users)",
    )


def run_memory_pressure(
    records: "list[QoSRecord]",
    data_dir: str,
    rng: int = 0,
    checkpoint_interval: int = 200,
    hot_users: int = 48,
    hot_services: int = 48,
) -> DrillReport:
    """Squeeze a tiered server under an allocation ceiling and prove it
    degrades instead of dying, then recovers bit-exactly.

    The ceiling is fault-injected: the watchdog limit is set to half of
    what a full hot tier costs — guaranteed unreachable, so sustained
    pressure is certain.

    The drill then asserts the degradation contract from the outside:

    1. the watchdog escalates to ``critical``, logs pressure events and
       tightens the caps all the way to the ``min_hot`` floor — after
       which the tier assignment is static, so the entities probed next
       cannot move underneath the probes;
    2. a prediction for a *spilled* entity answers from the model and the
       hot tier is the same size before and after (reads never write);
    3. a prediction for a *hot* entity still answers from the model;
    4. ``/metrics`` stays a valid exposition mid-squeeze;
    5. after a few spilled users are observed (so revive events sit in the
       WAL past the last checkpoint) and the server is killed, a restart
       reproduces the squeezed state — factors, counts, tier assignment,
       caps, pressure level — bit-exactly from checkpoint + WAL, and keeps
       answering hot reads from the model.
    """
    if not records:
        raise ValueError("memory-pressure drill needs a non-empty stream")
    caps = dict(hot_users=hot_users, hot_services=hot_services)
    lifecycle, full_resident = _unreachable_ceiling(rng, caps)
    report = DrillReport.begin(
        "memory-pressure",
        records=len(records),
        memory_limit_bytes=lifecycle.memory_limit_bytes,
        full_tier_resident_bytes=full_resident,
    )
    detail = report.detail
    sample = records[0]
    ticks = itertools.count(int(max(record.timestamp for record in records)) + 1)

    with Fleet(
        rng=rng, checkpoint_interval=checkpoint_interval, lifecycle=lifecycle
    ) as fleet:
        server = fleet.start("node", data_dir=data_dir)
        client = fleet.client(server.address, retries=0)
        feed(client, records)
        status: dict = {}

        def squeezed() -> bool:
            status.update(client.status()["lifecycle"])
            if (
                status["pressure_level"] == "critical"
                and status["capacity_users"] <= lifecycle.min_hot
            ):
                return True
            # Keep the hot tier warm so resident bytes stay above the ceiling.
            feed(client, [replace(sample, timestamp=float(next(ticks)))])
            return False

        wait_until(squeezed, _WAIT_TIMEOUT, poll=0.01)
        detail["lifecycle_status"] = dict(status)
        report.expect(
            status["pressure_level"] == "critical",
            f"pressure: watchdog never reached critical ({status})",
        )
        report.expect(status["pressure_events"], "pressure: no pressure events applied")
        report.expect(
            status["capacity_users"] < hot_users,
            "pressure: hot-user cap was never tightened",
        )
        spilled = server.model.with_model(lambda m: sorted(m._spilled_users))
        hot_user = server.model.with_model(lambda m: sorted(m._u_slot_of))[0]
        service = server.model.with_model(lambda m: sorted(m._s_slot_of))[0]
        report.expect(spilled, "tiering: squeeze produced no spilled users")
        if spilled:
            _expect_cold_read(report, client, spilled[0], service)
        detail["hot_read_source"] = client.predict_detailed(hot_user, service)["source"]
        report.expect(
            detail["hot_read_source"] == "model",
            f"hot path: expected a model answer, got {detail['hot_read_source']!r}",
        )
        report.scrape(client)

        for uid in spilled[:7]:
            revive = replace(sample, user_id=uid, service_id=service)
            feed(client, [replace(revive, timestamp=float(next(ticks)))])
        squeezed_state = snapshot(server)
        fleet.kill("node")
        restarted = fleet.restart("node", serve=False)
        detail["recovery"] = dict(restarted.recovery)
        report.add(
            diff_state(squeezed_state, snapshot(restarted), ignore=("drift",)),
            prefix="recovery: ",
        )
        restarted.start()
        survivor = fleet.client(restarted.address, retries=0)
        report.expect(
            survivor.predict_detailed(hot_user, service)["source"] == "model",
            "recovery: hot prediction degraded after restart",
        )
    return report


def _drive_outage(send, read, owners, victim: str, start: int):
    """Drive records ``start`` onward at a fleet whose shard ``victim`` is
    dead.  A victim-owned write must be refused with a structured 503
    ``shard_unavailable``; every other shard must accept its write *and*
    answer a read.  Returns ``(orphaned, failures)``: the indices refused
    as the contract asks, in order, and a line for anything else."""
    orphaned: list[int] = []
    failures: list[str] = []
    for index in range(start, len(owners)):
        dead = owners[index] == victim
        try:
            send(index)
            if not dead:
                read(index)
        except Exception as exc:  # noqa: BLE001 — anything else breaks containment
            code = (getattr(exc, "body", None) or {}).get("code")
            if (
                dead
                and isinstance(exc, RetryableServiceError)
                and code == "shard_unavailable"
            ):
                orphaned.append(index)
            else:
                failures.append(f"record {index} ({owners[index]}): {exc!r}")
        else:
            if dead:
                failures.append(f"record {index}: dead {victim} acknowledged a write")
    return orphaned, failures


def run_shard_kill(
    records: "list[QoSRecord]",
    data_root: str,
    rng: int = 0,
    server_kwargs: "dict | None" = None,
) -> DrillReport:
    """Kill one shard of a routed fleet mid-stream; prove the blast
    radius is bounded.

    Three durable shards sit behind a
    :class:`~repro.cluster.router.ClusterRouter`; the stream goes through
    the router one observation at a time, and the shard owning the record
    halfway through (so the outage is guaranteed to intersect live
    traffic) is killed.  While it is down:

    * requests for its users must fail with a structured
      ``503 shard_unavailable`` (counted, later replayed);
    * every surviving shard must keep accepting writes *and* answering
      predictions — one hard failure fails the drill.

    The victim then restarts from its own checkpoint + WAL tail on the
    same port, the orphaned records are re-sent in their original order,
    and the fleet must report healthy with a valid aggregated ``/metrics``.
    The shards listen on JSON only, so every binary frame counted during
    the drill was answered by the router: fewer than one per observation
    means the default client-to-router hop was not binary.  Finally every
    shard is diffed against a never-faulted baseline fed exactly the
    records that shard accepted, in order: state, per-sample error stream
    (so windowed MAE is untouched) and checkpoint archive must all match.
    ``server_kwargs`` reaches every shard and baseline (``lifecycle=`` puts
    the spill file, rolled back by the kill and replayed, in the equality).
    """
    kill_after = len(records) // 2
    if kill_after == 0:
        raise ValueError("shard-kill drill needs at least two records")
    names = [f"shard-{index}" for index in range(3)]
    report = DrillReport.begin(
        "shard-kill", records=len(records), shards=len(names), kill_after=kill_after
    )
    detail = report.detail

    with Fleet(
        rng=rng, checkpoint_interval=50, binary_port=None, **(server_kwargs or {})
    ) as fleet:
        for name in names:
            fleet.start(name, data_dir=os.path.join(data_root, name))
        router = fleet.route(names)
        client = fleet.client(router.address, retries=0)
        framed = TRANSPORT_BINARY_REQUESTS.value
        owners = [
            router.placement.owner_of("user", record.user_id).name
            for record in records
        ]
        victim = detail["victim"] = owners[kill_after]
        detail["substream_sizes"] = dict(Counter(owners))
        errors: dict[str, list[float]] = {name: [] for name in names}
        accepted: dict[str, list[QoSRecord]] = {name: [] for name in names}

        def send(index: int) -> None:
            errors[owners[index]] += feed(client, [records[index]])
            accepted[owners[index]].append(records[index])

        for index in range(kill_after):
            send(index)
        fleet.kill(victim)

        def read(index: int) -> None:
            client.predict(records[index].user_id, records[index].service_id)

        orphaned, failures = _drive_outage(send, read, owners, victim, kill_after)
        report.expect(
            not failures,
            f"availability: {len(failures)} failures, first: {failures[:1]}",
        )
        report.expect(
            orphaned,
            "no victim-owned traffic during the outage; increase the stream length",
        )
        detail["outage_requests_shed"] = len(orphaned)

        detail["recovery"] = dict(fleet.restart(victim).recovery)
        for index in orphaned:
            send(index)
        # On a tiered shard this read can revive, so its owner's baseline
        # must make it too.
        last_read = (records[0].user_id, records[0].service_id)
        client.predict(*last_read)
        report.scrape(client)
        health = client.health().get("status")
        report.expect(health == "ok", f"fleet health after recovery: {health}")
        frames = detail["router_binary_frames"] = int(
            TRANSPORT_BINARY_REQUESTS.value - framed
        )
        report.expect(
            frames >= len(records),
            f"the router answered {frames} binary frames for {len(records)} "
            "observations: the default client-to-router hop was not binary",
        )
        states = {name: snapshot(fleet.nodes[name], errors[name]) for name in names}
        fleet.stop()

        for name in names:
            __, digests = diff_never_faulted(
                report,
                fleet,
                states[name],
                os.path.join(data_root, name),
                os.path.join(data_root, f"baseline-{name}"),
                accepted[name],
                reads=[last_read] if name == owners[0] else (),
                ignore=("drift",),
                prefix=f"{name}: ",
            )
            if name == victim:
                detail["victim_checkpoint_digests"] = dict(
                    zip(("shard", "baseline"), digests)
                )
    return report


def _tiered_fleet(fleet: Fleet, root: str, names, rng: int):
    """Durable tiered shards (seeded ``rng``, ``rng + 1``, ...) behind a
    router that journals to ``root/router``.  Returns ``(router, client)``."""
    for index, name in enumerate(names):
        fleet.start(name, data_dir=os.path.join(root, name), rng=rng + index)
    router = fleet.route(names, data_dir=os.path.join(root, "router"))
    return router, fleet.client(router.address, retries=0)


def _expect_migrated(report: DrillReport, label: str, router, coordinator, target):
    """What every finished migration must show, whoever finished it."""
    done = coordinator is not None and not coordinator.active
    report.expect(done, f"{label}: migration did not finish in time")
    error = coordinator.error if coordinator is not None else None
    report.expect(error is None, f"{label}: migration errored: {error}")
    installed = router.placement.version
    report.expect(
        installed == target.version,
        f"{label}: target table not installed (at version {installed})",
    )


#: How long a drill waits for a migration coordinator to finish.
_MIGRATION_TIMEOUT = 120.0


def _drain_s0(
    report: DrillReport,
    label: str,
    data_root: str,
    records,
    rng: int,
    kill_phase: "str | None" = None,
    victim: "str | None" = None,
    restart_delay: float = 0.0,
) -> dict:
    """Ingest ``records`` into a 2-shard tiered fleet under
    ``data_root/label``, then drain ``s0`` through a live migration.  With
    ``kill_phase`` set, node ``victim`` (``None``: the router) is killed
    with no warning at the first such phase and restarted ``restart_delay``
    later.  Checks what one drain can show by itself and returns what the
    two fleets are compared on."""
    names, entity_kinds = ("s0", "s1"), ("user", "service")
    root = os.path.join(data_root, label)
    pairs = sorted({(record.user_id, record.service_id) for record in records})
    with Fleet(checkpoint_interval=50, binary_port=None, lifecycle=SMALL_TIER) as fleet:
        router, client = _tiered_fleet(fleet, root, names, rng)
        feed(client, records)
        pre = [client.predict(*pair) for pair in pairs]
        inventory = fleet.nodes["s0"].model.with_model(
            lambda m: [(kind, e) for kind in entity_kinds for e in m.entity_ids(kind)]
        )
        fired = threading.Event()

        def on_phase(progress: dict) -> None:
            if fired.is_set() or progress["phase"] != kill_phase:
                return
            fired.set()
            if victim is None:
                router.kill()
                return
            fleet.kill(victim)
            # The coordinator retries against the dead shard meanwhile.
            restart = threading.Timer(restart_delay, fleet.restart, (victim,))
            restart.daemon = True
            restart.start()

        target = router.placement.draining_shard("s0")
        coordinator = router.start_migration(
            target,
            on_phase=on_phase if kill_phase else None,
            batch_entities=6,
        )
        coordinator.join(timeout=_MIGRATION_TIMEOUT)
        if kill_phase and victim is None:
            # The dead router's journal is the contract: a successor over
            # the same directory resumes the migration on start.
            router = fleet.route(names, data_dir=os.path.join(root, "router"))
            client = fleet.client(router.address, retries=0)
            coordinator = router.migration
            if coordinator is not None:
                coordinator.join(timeout=_MIGRATION_TIMEOUT)
        _expect_migrated(report, label, router, coordinator, target)
        report.expect(
            not kill_phase or fired.is_set(),
            f"kill at phase {kill_phase!r} never fired — the migration finished "
            "without reaching it (stream too small?)",
        )
        post = [client.predict(*pair) for pair in pairs]
        report.expect(
            _same(pre, post), f"{label}: predictions changed across the migration"
        )
        for name in names:  # the reads above named every spilled entity
            tier = fleet.nodes[name]._lifecycle_status()
            report.expect(
                tier["hot_users"] <= tier["capacity_users"]
                and tier["hot_services"] <= tier["capacity_services"],
                f"{label}: reads left {name}'s hot tier over its cap ({tier})",
            )
        report.scrape(client)
        stranded = fleet.nodes["s0"].model.with_model(
            lambda m: sum(len(m.entity_ids(kind)) for kind in entity_kinds)
        )
        report.expect(
            not stranded,
            f"{label}: source not empty after drain ({stranded} stranded entities)",
        )

        # Canonical export payloads of everything the source held, as the
        # destination serves them now: the byte-equality oracle.
        def exports(model) -> dict:
            held = {kind: set(model.entity_ids(kind)) for kind in entity_kinds}
            return {
                entity: model.export_payload(*entity)
                for entity in inventory
                if entity[1] in held[entity[0]]
            }

        moved = fleet.nodes["s1"].model.with_model(exports)
        report.expect(
            len(moved) == len(inventory),
            f"{label}: destination holds {len(moved)} of the source's "
            f"{len(inventory)} entities (lost entities)",
        )
        spill = {name: spill_part(fleet.nodes[name]) for name in names}
    result = coordinator.result if coordinator is not None else None
    return {
        "result": result,
        "inventory": inventory,
        "exports": moved,
        "post": post,
        "spill": spill,
    }


def run_migration_kill(
    records: "list[QoSRecord]",
    data_root: str,
    kill_target: str = "source",
    kill_phase: str = "transfer",
    rng: int = 0,
) -> DrillReport:
    """Kill anything mid-migration; prove the resumed migration converges.

    Two identical 2-shard fleets (lifecycle tiering on, durable WALs,
    router journal on disk) ingest ``records`` and then drain shard
    ``s0`` through a live migration.  The *baseline* fleet migrates
    uninterrupted.  The *faulted* fleet has ``kill_target`` (``source``,
    ``dest``, or ``router``) killed — no graceful shutdown, no final
    checkpoint — at the first occurrence of ``kill_phase`` (``export``,
    ``transfer``, ``commit``, or ``pre-commit``), then restarted 0.25 s
    later: a shard restarts from its own checkpoint + WAL on the same port while the
    coordinator retries against it; a killed router is replaced by a
    successor over the same journal, which resumes the migration on start.

    Both fleets must finish the migration, leave the source empty and the
    destination holding every entity exactly once, and answer every
    prediction bit-identically before and after it.  Against the baseline,
    each re-homed entity's canonical export payload (factor row, EMA error,
    samples, gate stats) must be byte-equal, post-migration predictions
    equal, both shards' spill files row-equal, and both shards' final
    checkpoint archives digest-equal — ignoring only the migration ledger,
    whose batch sequence numbers may skip after a resume.
    """
    if kill_target not in ("source", "dest", "router"):
        raise ValueError(f"kill_target must be source/dest/router, got {kill_target!r}")
    if kill_phase not in ("export", "transfer", "commit", "pre-commit"):
        raise ValueError(
            f"kill_phase must be export/transfer/commit/pre-commit, got {kill_phase!r}"
        )
    if not records:
        raise ValueError("records must be non-empty")
    victim = {"source": "s0", "dest": "s1", "router": None}[kill_target]
    report = DrillReport.begin(
        "migration-kill",
        kill_target=kill_target,
        kill_phase=kill_phase,
        records=len(records),
    )
    baseline = _drain_s0(report, "baseline", data_root, records, rng)
    faulted = _drain_s0(
        report, "faulted", data_root, records, rng, kill_phase, victim, 0.25
    )

    report.expect(
        baseline["inventory"] == faulted["inventory"],
        "fleets diverged before the migration started (setup bug)",
    )
    differing = [
        entity
        for entity, payload in baseline["exports"].items()
        if faulted["exports"].get(entity) != payload
    ]
    report.expect(
        not differing,
        f"{differing[:1]}: re-homed payload differs from baseline "
        "(factor row / samples / gate not byte-equal)",
    )
    report.expect(
        baseline["post"] == faulted["post"],
        "post-migration predictions differ between baseline and faulted fleets",
    )
    digests = {}
    for name in ("s0", "s1"):
        mismatches, pair = diff_checkpoints(
            os.path.join(data_root, "faulted", name),
            os.path.join(data_root, "baseline", name),
            ignore_extra=("migration",),
        )
        report.add(mismatches, prefix=f"{name}: ")
        report.add(
            _diff_spill("spill", faulted["spill"][name], baseline["spill"][name]),
            prefix=f"{name}: ",
        )
        digests[name] = dict(zip(("faulted", "baseline"), pair))
    report.detail.update(
        baseline_result=baseline["result"],
        faulted_result=faulted["result"],
        entities_moved=(baseline["result"] or {}).get("entities_moved"),
        checkpoint_digests=digests,
    )
    return report


@contextmanager
def _readers(fleet: Fleet, address, pairs, count: int):
    """``count`` threads predicting ``pairs`` round-robin through
    ``address`` for as long as the block runs.  Yields their tallies once
    each has completed a read, so whatever the block does happens under
    live reads.  A refused read (the brief ``entity_migrating`` commit
    window) backs off by its ``Retry-After`` and is tallied ``blocked``."""
    tallies = [{"ok": 0, "blocked": 0} for _ in range(count)]
    stop = threading.Event()

    def read_loop(reader, tally: dict) -> None:
        for pair in itertools.cycle(pairs):
            if stop.is_set():
                return
            try:
                reader.predict(*pair)
                tally["ok"] += 1
            except PredictionServiceError as exc:
                tally["blocked"] += 1
                time.sleep(getattr(exc, "retry_after", None) or 0.05)

    threads = [
        threading.Thread(
            target=read_loop,
            args=(fleet.client(address, retries=0), tally),
            daemon=True,
        )
        for tally in tallies
    ]
    for thread in threads:
        thread.start()
    try:
        wait_until(lambda: all(tally["ok"] for tally in tallies), 10.0)
        yield tallies
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)


def run_migration_live(data_root: str, rng: int = 0) -> DrillReport:
    """Rebalance 3 -> 4 shards under live reads; prove accuracy never
    noticed.

    A 3-shard tiered fleet (the unkilled fleet of
    :func:`run_migration_kill`) ingests the first half of a stream, a
    fourth shard joins, and a live migration re-homes every entity whose
    rendezvous owner changed while two reader threads keep requesting
    predictions through the router.  Writes pause for the migration; the
    second half of the stream then flows through the 4-shard table.

    The per-sample error stream must equal, float for float, that of a
    single tiered server fed the same stream with no migration at all —
    windowed MAE is derived from it, so this is parity at the strongest
    granularity.  That is engineered, not hoped for: the stream's users are
    the first 16 ids the 3-shard table homes on ``s0`` (same
    entities in the same order as the single server, hence the same
    factor-initialisation draws), and each observes a disjoint service set
    so service rows co-move with their one observer.  The drill also
    requires that entities actually moved and that reads completed while
    they did.
    """
    names = ["s0", "s1", "s2"]
    n_users, per_user, rounds = 16, 3, 2
    report = DrillReport.begin("migration-live", users=n_users)
    with Fleet(checkpoint_interval=50, binary_port=None, lifecycle=True) as fleet:
        router, client = _tiered_fleet(fleet, data_root, names, rng)
        table = router.placement
        homed_on_s0 = (
            u for u in itertools.count() if table.owner_of("user", u).name == "s0"
        )
        users = list(itertools.islice(homed_on_s0, n_users))
        records = disjoint_stream(users, per_user, rounds, seed=rng)
        half = n_users * per_user * max(1, rounds // 2)
        errors = feed(client, records[:half])

        joining = fleet.start(
            "s3", data_dir=os.path.join(data_root, "s3"), rng=rng + len(names)
        )
        target = table.with_shard(ShardSpec(name="s3", addresses=(joining.address,)))
        pairs = [(user_id, index * per_user) for index, user_id in enumerate(users)]
        with _readers(fleet, router.address, pairs, 2) as tallies:
            before = sum(tally["ok"] for tally in tallies)
            coordinator = router.start_migration(target, batch_entities=8)
            coordinator.join(timeout=_MIGRATION_TIMEOUT)
            during = sum(tally["ok"] for tally in tallies) - before
        _expect_migrated(report, "fleet", router, coordinator, target)
        result = coordinator.result or {}
        report.expect(result.get("entities_moved"), "rebalance moved no entities")
        report.expect(during, "no read completed while the migration ran")

        errors += feed(client, records[half:])
        report.scrape(client)
        fleet.stop()
        single = never_faulted(
            fleet, records, data_dir=os.path.join(data_root, "never-migrated"), rng=rng
        )
    report.add(
        _diff("errors", errors, single["errors"]),
        prefix="fleet vs a never-migrated server: ",
    )
    report.detail.update(
        users_rehomed=sum(target.owner_of("user", u).name != "s0" for u in users),
        samples=len(records),
        migration=result,
        reads_during_migration=during,
        reads_blocked=sum(tally["blocked"] for tally in tallies),
    )
    return report


# -- memory-cap: the one scenario that needs real processes -------------------
def churn_phase(
    observations: int,
    seed: int,
    hot_users: int,
    hot_services: int,
    spill_path: str,
    cap_bytes: "int | None" = None,
) -> dict:
    """One pass of a high-churn stream through a :class:`TieredAMF`; meant
    to run in a child interpreter (:func:`run_memory_cap`) so the peak it
    reports is its own and ``cap_bytes`` — an ``RLIMIT_AS`` — can kill it
    without taking the drill down.

    Four observations in five introduce a never-seen user; the rest revisit
    a user a Zipf-distributed distance back in introduction order, so
    recently introduced users are revisited while hot and older ones only
    after they were demoted — the revive traffic.  Services are
    Zipf-weighted over a fixed catalogue.
    """
    import resource

    if cap_bytes:
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
    rng = np.random.default_rng(seed)
    fresh = rng.random(observations) < 0.8
    fresh[0] = True
    introduced = np.cumsum(fresh)
    back = rng.zipf(1.3, size=observations)
    users = np.where(fresh, introduced - 1, np.maximum(introduced - back, 0))
    n_services = max(observations // 25, 16)
    weights = 1.0 / np.arange(1, n_services + 1) ** 1.1
    services = rng.choice(n_services, size=observations, p=weights / weights.sum())
    values = rng.uniform(0.05, 5.0, size=observations)

    spill = SpillStore(spill_path)
    model = TieredAMF(
        rng=seed,
        lifecycle=LifecycleConfig(hot_users=hot_users, hot_services=hot_services),
        spill=spill,
    )
    window_errors: list[float] = []
    total = 0.0
    for k in range(observations):
        __, error = model.observe_reviving(
            QoSRecord(
                timestamp=float(k),
                user_id=int(users[k]),
                service_id=int(services[k]),
                value=float(values[k]),
            )
        )
        total += error
        if (k + 1) % 10_000 == 0 or k + 1 == observations:
            window_errors.append(total)
            total = 0.0
    status = model.lifecycle_status()
    spill.close()
    with open("/proc/self/status") as proc_status:
        vm_peak = next(
            int(line.split()[1]) * 1024
            for line in proc_status
            if line.startswith("VmPeak:")
        )
    return {
        "window_errors": window_errors,
        "vm_peak_bytes": vm_peak,
        "demotions": status["demoted_users"] + status["demoted_services"],
        "revivals": status["revived_users"] + status["revived_services"],
    }


def run_memory_cap(data_root: str, seed: int = 0) -> DrillReport:
    """The bounded model finishes under an address-space cap that kills
    the unbounded one — and loses no accuracy for it.

    Three :func:`churn_phase` runs, each in its own spawned interpreter
    (Linux only: the peak is read from ``/proc``):

    1. **bounded, uncapped** — small hot caps over an on-disk spill store;
       its ``VmPeak`` times 1.25 becomes the cap;
    2. **unbounded, capped** — the *same* tiered code path with caps above
       the population (nothing ever demotes), under ``RLIMIT_AS`` = the
       cap: it must die;
    3. **unbounded, uncapped** — must finish, must have peaked above the
       cap, and its per-window error sums must equal the bounded run's
       exactly.  Using the tiered model for the unbounded side keeps the
       factor-init draws aligned 1:1 with entity first-touches, which is
       what makes that an equality rather than a tolerance.

    Minutes, not seconds, and dependent on the host's address-space
    headroom — which is why ``chaos_check.py --all`` leaves it out.
    """
    os.makedirs(data_root, exist_ok=True)
    observations, hot_users, hot_services = 300_000, 4_000, 1_500
    unbounded = dict(
        hot_users=observations + 1, hot_services=observations + 1, spill_path=":memory:"
    )

    def in_child(**kwargs) -> dict:
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            return pool.submit(churn_phase, observations, seed, **kwargs).result()

    bounded = in_child(
        hot_users=hot_users,
        hot_services=hot_services,
        spill_path=os.path.join(data_root, "spill.sqlite"),
    )
    cap_bytes = int(bounded["vm_peak_bytes"] * 1.25)
    try:
        in_child(**unbounded, cap_bytes=cap_bytes)
        died_of = None
    except (MemoryError, BrokenProcessPool) as exc:
        died_of = type(exc).__name__
    free = in_child(**unbounded)

    report = DrillReport.begin(
        "memory-cap",
        observations=observations,
        cap_bytes=cap_bytes,
        bounded_vm_peak_bytes=bounded["vm_peak_bytes"],
        unbounded_vm_peak_bytes=free["vm_peak_bytes"],
        capped_unbounded_died_of=died_of,
        demotions=bounded["demotions"],
        revivals=bounded["revivals"],
    )
    report.expect(bounded["demotions"], "bounded run never demoted (caps too large?)")
    report.expect(died_of, f"unbounded model survived a {cap_bytes} B cap")
    report.expect(
        free["vm_peak_bytes"] > cap_bytes,
        f"unbounded peak {free['vm_peak_bytes']} B is under the cap",
    )
    report.add(
        _diff("errors", bounded["window_errors"], free["window_errors"]),
        prefix="bounded vs unbounded: ",
    )
    return report


# -- the registry -------------------------------------------------------------
#: The hostile stream of the ``crash-recovery`` scenario's faulted half.
HOSTILE = FaultConfig(
    drop_rate=0.08,
    duplicate_rate=0.05,
    reorder_rate=0.05,
    corrupt_rate=0.03,
    corrupt_factor=1e4,
)


def _crash_recovery(root: str, seed: int):
    for label, faults, stream_seed, server_kwargs in (
        ("hostile stream", HOSTILE, seed, None),
        ("clean stream", None, seed + 3, None),
        ("tiered stream", None, seed + 5, {"lifecycle": SMALL_TIER}),
    ):
        yield label, run_crash_recovery(
            uniform_stream(300, stream_seed),
            crash_after=180,
            data_dir=os.path.join(root, label.split()[0]),
            rng=stream_seed,
            faults=faults,
            server_kwargs=server_kwargs,
        )


def _poison_flood(root: str, seed: int):
    yield "", run_poison_flood(seed)


def _failover(root: str, seed: int):
    yield "", run_failover(
        uniform_stream(300, seed),
        kill_after=180,
        primary_dir=os.path.join(root, "primary"),
        standby_dir=os.path.join(root, "standby"),
        baseline_dir=os.path.join(root, "baseline"),
        epoch_store=os.path.join(root, "epoch.json"),
        rng=seed,
        server_kwargs={"gate": True},
        link_faults=LinkFaultConfig(loss_rate=0.1),
    )


def _memory_pressure(root: str, seed: int):
    # Many more entities than the hot caps, so the stream itself churns
    # the tiers before the watchdog ever tightens them.
    yield "", run_memory_pressure(
        uniform_stream(300, seed, n_users=120, n_services=60),
        data_dir=root,
        rng=seed,
        checkpoint_interval=50,
        hot_users=32,
        hot_services=32,
    )


def _shard_kill(root: str, seed: int):
    # Enough distinct users that every shard owns a live substream.
    yield "", run_shard_kill(
        uniform_stream(300, seed, n_users=60, n_services=24),
        root,
        rng=seed,
        server_kwargs={"lifecycle": SMALL_TIER},
    )


def _migration_kill(root: str, seed: int):
    stream = disjoint_stream(range(16), seed=seed)
    for kill_target in ("source", "dest", "router"):
        for kill_phase in ("export", "transfer", "pre-commit"):
            label = f"kill {kill_target} at {kill_phase}"
            yield label, run_migration_kill(
                stream,
                os.path.join(root, label.replace(" ", "-")),
                kill_target=kill_target,
                kill_phase=kill_phase,
                rng=seed,
            )


def _migration_live(root: str, seed: int):
    yield "", run_migration_live(root, rng=seed)


def _memory_cap(root: str, seed: int):
    yield "", run_memory_cap(root, seed=seed)


#: Scenario name -> ``run(scratch_dir, seed)``, yielding ``(label,
#: DrillReport)`` for each run the scenario makes at the scale CI uses.
#: ``scripts/chaos_check.py`` is a loop over this table.
SCENARIOS = {
    "crash-recovery": _crash_recovery,
    "poison-flood": _poison_flood,
    "failover": _failover,
    "memory-pressure": _memory_pressure,
    "shard-kill": _shard_kill,
    "migration-kill": _migration_kill,
    "migration-live": _migration_live,
    "memory-cap": _memory_cap,
}

#: Left out of ``chaos_check.py --all``: minutes long, and whether the
#: capped child dies depends on the host's address-space headroom.
NOT_IN_ALL = frozenset({"memory-cap"})
