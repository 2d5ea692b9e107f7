"""The load generator: closed loops, open loops and the rate ladder.

One generator process drives the servers with at most two threads, one
connection each (the box has two cores and the servers need one).  A
closed loop sends a client's next request only after the previous reply,
so it measures capacity with nothing queued; an open loop sends on a
fixed schedule regardless of replies and times each request from the
moment it was *due*, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.server.binary import BinaryServerError, ProtocolError
from repro.server.client import PredictionServiceError

# What a request can raise when the system under test fails it.
REQUEST_ERRORS = (OSError, BinaryServerError, ProtocolError, PredictionServiceError)

LADDER_QPS = (1000, 2000, 3000, 4000, 6000)
LIMIT_P99_MS = 5.0
MIN_OK_SHARE = 0.99
MIN_ACHIEVED_SHARE = 0.97
FULL_TAIL_SAMPLES = 1000  # below this a p99 has under ten samples beyond it


@dataclass
class Phase:
    """What one phase sent: a latency (ms) and a reply per request, in
    send order; a failed request has latency ``None`` and reply ``None``."""

    latencies_ms: list = field(default_factory=list)
    replies: list = field(default_factory=list)
    starts_s: list = field(default_factory=list)  # send time; due time in an open loop
    late_ms: list = field(default_factory=list)  # open loop: send minus due time
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return sum(1 for latency in self.latencies_ms if latency is None)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def ok_latencies(self) -> list:
        return [latency for latency in self.latencies_ms if latency is not None]

    def per_second(self) -> float:
        return self.succeeded / self.elapsed_s if self.elapsed_s > 0 else 0.0


def merged(phases: list[Phase]) -> Phase:
    """Phases that ran side by side on separate connections, as one."""
    out = Phase(elapsed_s=max(phase.elapsed_s for phase in phases))
    for phase in phases:
        out.latencies_ms += phase.latencies_ms
        out.replies += phase.replies
        out.starts_s += phase.starts_s
        out.late_ms += phase.late_ms
    return out


def binary_sender(conn):
    """Requests over one persistent binary connection.  An observe replies
    with its action, a predict with ``(values, sources)``."""
    observe, predict = conn.observe, conn.predict_batch

    def send(op):
        if op[0] == "o":
            return observe(*op[1])["action"]
        return predict(op[1][0], op[1][1])

    return send


def json_sender(client):
    """Requests as JSON over HTTP through a ``PredictionClient`` or a
    ``ClusterClient``; replies shaped like :func:`binary_sender`'s."""

    def send(op):
        kind, body = op
        if kind == "o":
            timestamp, user, service, value, key = body
            error = client.report_observation(
                user, service, value, timestamp, idempotency_key=key
            )
            return "deduplicated" if math.isnan(error) else "admit"
        if kind == "b":
            reply = client.report_observations_detailed(body)
            if reply["accepted"] != len(body):
                raise PredictionServiceError(f"batch of {len(body)}: {reply}")
            return "admit"
        user, service_ids, _ = body
        reply = client.predict_candidates_detailed(user, service_ids)
        return (
            [reply["predictions"][s] for s in service_ids],
            [reply["sources"][s] for s in service_ids],
        )

    return send


def closed_loop(ops, send, seconds: float) -> Phase:
    """Send ``ops`` one at a time for ``seconds`` (or until they run out)."""
    phase = Phase()
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    for op in ops:
        begin = clock()
        if begin >= deadline:
            break
        phase.starts_s.append(begin)
        try:
            reply = send(op)
        except REQUEST_ERRORS:
            phase.latencies_ms.append(None)
            phase.replies.append(None)
            continue
        phase.latencies_ms.append((clock() - begin) * 1e3)
        phase.replies.append(reply)
    phase.elapsed_s = clock() - started
    return phase


def open_loop(ops, send, rate: float, seconds: float, start_at: float) -> Phase:
    """Send ``ops[i]`` at ``start_at + i / rate`` whatever the replies do.

    A generator that falls behind sends at once, so the backlog shows as
    latency from the due time.  Requests still unsent when the phase's
    time is up are dropped rather than sent late into the next phase; the
    shortfall shows as an achieved rate below the offered one.
    """
    phase = Phase()
    clock = time.perf_counter
    interval = 1.0 / rate
    end_at = start_at + seconds
    for index in range(min(len(ops), int(rate * seconds))):
        due = start_at + index * interval
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        begin = clock()
        if begin >= end_at:
            break
        phase.starts_s.append(due)
        phase.late_ms.append((begin - due) * 1e3)
        try:
            reply = send(ops[index])
        except REQUEST_ERRORS:
            phase.latencies_ms.append(None)
            phase.replies.append(None)
            continue
        phase.latencies_ms.append((clock() - due) * 1e3)
        phase.replies.append(reply)
    phase.elapsed_s = max(clock(), end_at) - start_at
    return phase


def side_by_side(jobs) -> list:
    """Run up to two callables on their own threads; return their results
    in order, re-raising the first exception any of them hit."""
    if len(jobs) > 2:
        raise ValueError("the generator is limited to two threads")
    results = [None] * len(jobs)
    errors: list[BaseException] = []

    def run(slot: int, job) -> None:
        try:
            results[slot] = job()
        except BaseException as exc:  # noqa: BLE001 — re-raised by the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(slot, job), name=f"bench-gen-{slot}")
        for slot, job in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def percentiles(latencies_ms: list) -> dict:
    """Median and tail of one phase's latencies, with the sample count.

    The tail is p99 when the phase has at least 1 000 samples and p95
    otherwise (``tail`` says which), so it always has samples beyond it.
    """
    if not latencies_ms:
        return {"p50": 0.0, "tail_value": 0.0, "tail": "p99", "samples": 0}
    values = np.asarray(latencies_ms, dtype=float)
    tail = 99 if len(values) >= FULL_TAIL_SAMPLES else 95
    return {
        "p50": float(np.percentile(values, 50)),
        "tail_value": float(np.percentile(values, tail)),
        "tail": f"p{tail}",
        "samples": int(len(values)),
    }


def rung_result(rate: float, phase: Phase, seconds: float) -> dict:
    """One ladder rung: offered vs achieved rate, tail latency, pass/fail."""
    offered = int(rate * seconds)
    stats = percentiles(phase.ok_latencies())
    ok_share = phase.succeeded / phase.attempted if phase.attempted else 0.0
    achieved = phase.succeeded / seconds
    return {
        "rate": rate,
        "offered": offered,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "achieved_qps": achieved,
        "p50_ms": stats["p50"],
        "tail_ms": stats["tail_value"],
        "tail": stats["tail"],
        "samples": stats["samples"],
        "passed": bool(
            stats["samples"] > 0
            and stats["tail_value"] <= LIMIT_P99_MS
            and ok_share >= MIN_OK_SHARE
            and achieved >= MIN_ACHIEVED_SHARE * rate
        ),
    }


def sustained_rate(rungs: list[dict]) -> float:
    """The highest rate of the unbroken run of passing rungs from the
    bottom of the ladder; 0 when the first rung already misses."""
    best = 0.0
    for rung in rungs:
        if not rung["passed"]:
            break
        best = float(rung["rate"])
    return best
