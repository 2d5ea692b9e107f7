"""Per-layer measurement from outside the program: spans, a mirror, scrapes.

Nothing in ``src/`` is instrumented.  Layer *counts* are deltas of the
public ``/metrics`` and ``/status`` endpoints.  Layer *times* come from
:class:`Mirror`: in this process, it makes the sequence of public calls a
shard's handlers make for the same ordered requests — dedup ledger, WAL
append, model observe, cached batch predict — each call inside a span
under that request's root span.  Because it is fed the same stream, the
mirror is also the reference every wire reply is checked against.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.daemon import ConcurrentModel
from repro.core.fallback import FallbackPredictor
from repro.core.online import PredictionCache
from repro.datasets.schema import QoSRecord
from repro.lifecycle import LifecycleConfig, SpillStore, TieredAMF
from repro.observability import parse_prometheus_text
from repro.robustness import DedupLedger, apply_observation
from repro.server.client import PredictionClient
from repro.server.wal import WriteAheadLog

MODEL_SEED = 0  # ``python -m repro.cluster.shard`` seeds its model with --rng 0
# Relative; float64 noise is ~1e-13 here, one missed SGD step ~1e-3.
MODEL_TOLERANCE = 1e-9
UNBOUNDED = 1 << 40  # a hot-tier capacity no run reaches
WAL_SPAN_BUDGET = 1500  # mirror appends that pay a real fsync, per run


# -- spans ----------------------------------------------------------------------


class _OpenSpan:
    __slots__ = ("_span",)

    def __init__(self, span: list) -> None:
        self._span = span

    def __enter__(self) -> int:
        return self._span[5]

    def __exit__(self, *exc_info) -> None:
        self._span[2] = time.perf_counter_ns()


class _NoSpan:
    def __enter__(self) -> int:
        return -1

    def __exit__(self, *exc_info) -> None:
        pass


class Tracer:
    """Spans kept in memory as ``[name, start_ns, end_ns, parent, op_id, index]``;
    ``parent`` is the index of the span that caused this one, -1 for a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def span(self, name: str, op_id: int, parent: int = -1) -> _OpenSpan:
        span = [name, time.perf_counter_ns(), 0, parent, op_id, len(self.spans)]
        self.spans.append(span)
        return _OpenSpan(span)

    def add(self, name: str, op_id: int, start_s: float, end_s: float) -> None:
        """Record a root span from timings taken elsewhere (the wire loops)."""
        self.spans.append(
            [name, int(start_s * 1e9), int(end_s * 1e9), -1, op_id, len(self.spans)]
        )


class NullTracer:
    """Same interface, records nothing: the untraced mirror."""

    spans: list = []
    _none = _NoSpan()

    def span(self, name: str, op_id: int, parent: int = -1) -> _NoSpan:
        return self._none

    def add(self, name: str, op_id: int, start_s: float, end_s: float) -> None:
        pass


def self_times_us(spans: list[list]) -> dict[str, list[float]]:
    """Per span name, each span's self time: its duration minus the
    durations of the spans it directly caused."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    out: dict[str, list[float]] = {}
    for span in spans:
        out.setdefault(span[0], []).append((span[2] - span[1] - child_ns[span[5]]) / 1e3)
    return out


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def write_spans(path: str, spans: list[list]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, op_id, _ in spans:
            handle.write(
                json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent if parent >= 0 else None, "op_id": op_id}
                )
                + "\n"
            )


# -- the mirror -------------------------------------------------------------------


class Mirror:
    """One flat shard's request path, made in this process.

    Fed the requests a shard acknowledged, in the order it acknowledged
    them, the mirror's model is bit-identical to the shard's (trainer
    off), so every reply can be checked against it.  ``wal_dir`` adds the
    durable append to the observe sequence for up to
    :data:`WAL_SPAN_BUDGET` requests; without it the mirror is the cheap
    reference of the untraced run.

    ``slot_space`` is the reference for a tiered shard: the same model
    with a hot tier nothing ever leaves.  (The flat model draws an init
    vector for every id *below* a new one, the tiered model one per entity
    first touched, so only a never-demoting tiered model can be
    bit-identical to a demoting one — the tiering-parity contract.)
    """

    def __init__(self, tracer=None, wal_dir: "str | None" = None,
                 slot_space: bool = False) -> None:
        model = AdaptiveMatrixFactorization(None, rng=MODEL_SEED)
        if slot_space:
            model = TieredAMF.from_model(
                model, LifecycleConfig(hot_users=UNBOUNDED, hot_services=UNBOUNDED),
                SpillStore(":memory:"))
        self.raw_model = model
        self.model = ConcurrentModel(model)
        self.cache = PredictionCache(65536)
        self.ledger = DedupLedger()
        self.fallback = FallbackPredictor(prior=model.denormalize_value(0.5))
        self.tracer = tracer if tracer is not None else NullTracer()
        self.wal = WriteAheadLog(wal_dir) if wal_dir is not None else None
        self.wal_appends = 0
        self.deduplicated = 0

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def observe(self, op: tuple, op_id: int) -> str:
        """``PredictionServer._ingest_one`` for a gate-less flat shard."""
        timestamp, user, service, value, key = op
        tracer = self.tracer
        with tracer.span("direct.observe", op_id) as root:
            with tracer.span("robustness.dedup.seen", op_id, root):
                duplicate = self.ledger.seen(key)
            if duplicate:
                self.deduplicated += 1
                return "deduplicated"
            record = QoSRecord(
                timestamp=timestamp, user_id=user, service_id=service, value=value
            )
            if self.wal is not None and self.wal_appends < WAL_SPAN_BUDGET:
                with tracer.span("server.wal.append", op_id, root):
                    self.wal.append(record, key=key)
                self.wal_appends += 1
            with tracer.span("robustness.dedup.add", op_id, root):
                self.ledger.add(key)
            with tracer.span("core.daemon.predict_known", op_id, root):
                self.model.predict_known(user, service)
            with tracer.span("core.amf.observe", op_id, root):
                action, applied = apply_observation(self.model, None, record)
            with tracer.span("core.fallback.observe", op_id, root):
                for applied_record, _ in applied:
                    self.fallback.observe(
                        applied_record.user_id, applied_record.service_id,
                        applied_record.value,
                    )
        return action

    def predict(self, op: tuple, op_id: int) -> list:
        """``PredictionServer._predict_batch`` up to the fallback chain:
        ``None`` marks a candidate the model cannot answer."""
        user, service_ids, _ = op
        tracer = self.tracer
        with tracer.span("direct.predict", op_id) as root:
            with tracer.span("core.online.cached_predict", op_id, root):
                values, _ = self.model.predict_batch_known(user, service_ids, self.cache)
        return values

    def mismatch(self, op: tuple, reply, op_id: int, strict: bool,
                 check_fallback: bool) -> "str | None":
        """Why a wire reply ``(values, sources)`` disagrees with the mirror,
        or ``None`` when it agrees.

        A candidate the shard answered from its model must equal the
        mirror's model to :data:`MODEL_TOLERANCE`: the model state is
        bit-identical, but the fused batch kernel's summation order
        depends on which other candidates miss the cache in the same
        request, and the inverse Box-Cox magnifies that last-bit
        difference a few hundred times.  ``strict`` (a flat shard) also
        requires the shard to answer from the model exactly where the
        mirror can; a tiered shard may instead fall back for a spilled
        service.  ``check_fallback`` holds fallback answers to the
        mirror's fallback chain — not after a restart, which re-seeds the
        running means from retained samples only.
        """
        user, service_ids, _ = op
        values, sources = reply
        expected = self.predict(op, op_id)
        for service, value, source, want in zip(service_ids, values, sources, expected):
            where = f"predict(user={user}, service={service})"
            if source == "model":
                if want is None or abs(value - want) > MODEL_TOLERANCE * abs(want):
                    return f"{where}: shard model said {value!r}, mirror {want!r}"
                continue
            if strict and want is not None:
                return f"{where}: shard fell back to {source} where the mirror's model answers"
            if check_fallback:
                fallback = self.fallback.predict(user, service)
                if (value, source) != (fallback.value, fallback.source):
                    return (
                        f"{where}: shard fallback {source}={value!r}, "
                        f"mirror {fallback.source}={fallback.value!r}"
                    )
        return None


# -- scrapes ----------------------------------------------------------------------


class Scraper:
    """Reads ``/metrics`` and ``/status`` of the run's servers and keeps the
    cost of doing so (``observability.scrape_ms``)."""

    def __init__(self, addresses: list[tuple[str, int]]) -> None:
        self.clients = [PredictionClient(a, transport="json", timeout=30.0) for a in addresses]
        self.scrape_ms: list[float] = []
        self.families = 0

    def metrics(self) -> dict[str, float]:
        """Every server's :func:`flat_samples`, summed over the servers."""
        totals: dict[str, float] = {}
        for client in self.clients:
            started = time.perf_counter()
            text = client.metrics()
            self.scrape_ms.append((time.perf_counter() - started) * 1e3)
            self.families = max(self.families, len(parse_prometheus_text(text)))
            for name, value in flat_samples(text).items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def statuses(self) -> list[dict]:
        return [client.status() for client in self.clients]


def flat_samples(text: str) -> dict[str, float]:
    """One exposition's samples, summed per sample name and also kept per
    ``name{label="value",...}``."""
    totals: dict[str, float] = {}
    for family in parse_prometheus_text(text).values():
        for (name, labels), value in family["samples"].items():
            totals[name] = totals.get(name, 0.0) + value
            if labels:
                text_labels = ",".join(f'{k}="{v}"' for k, v in labels)
                totals[f"{name}{{{text_labels}}}"] = value
    return totals


def delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)
