"""Spans: self times of one request's spans sum to its root span."""

import json

from bench import streams
from bench.layers import Mirror, Tracer, self_times_us, write_spans


def traced_mirror(tmp_path):
    tracer = Tracer()
    mirror = Mirror(tracer, wal_dir=str(tmp_path / "wal"))
    truth = streams.Truth(0)
    observes, _ = streams.ingest_observes(0, truth, 200, 0, "A")
    for op_id, op in enumerate(observes):
        mirror.observe(op, op_id)
    for op_id, op in enumerate(streams.ingest_predicts(0, truth, 50), start=200):
        mirror.predict(op, op_id)
    mirror.close()
    return tracer


def test_self_times_of_one_ops_spans_sum_to_its_root_span(tmp_path):
    spans = traced_mirror(tmp_path).spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    by_op = {}
    for span in spans:
        own = span[2] - span[1] - child_ns[span[5]]
        assert own >= 0
        by_op[span[4]] = by_op.get(span[4], 0) + own
    roots = {span[4]: span[2] - span[1] for span in spans if span[3] < 0}
    assert len(roots) == 250
    assert by_op == roots


def test_grouped_self_times_cover_every_layer_call(tmp_path):
    times = self_times_us(traced_mirror(tmp_path).spans)
    for name in ("direct.observe", "robustness.dedup.seen", "server.wal.append",
                 "robustness.dedup.add", "core.amf.observe", "direct.predict",
                 "core.online.cached_predict"):
        assert times[name] and min(times[name]) >= 0.0


def test_span_file_has_one_json_object_per_span(tmp_path):
    tracer = traced_mirror(tmp_path)
    path = tmp_path / "out" / "trace.jsonl"
    write_spans(str(path), tracer.spans)
    lines = path.read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    first = json.loads(lines[0])
    assert set(first) == {"name", "start", "end", "parent", "op_id"}
    assert first["parent"] is None and json.loads(lines[1])["parent"] == 0


def test_mirror_dedups_a_resend_and_agrees_with_itself(tmp_path):
    mirror = Mirror()
    op = (0.001, 3, 4, 1.5, "k")
    assert mirror.observe(op, 0) == "admit"
    assert mirror.observe(op, 1) == "deduplicated"
    query = (3, [4, 999], 1.0)
    values = mirror.predict(query, 2)
    assert values[0] is not None and values[1] is None
    reply = ([values[0], mirror.fallback.predict(3, 999).value],
             ["model", mirror.fallback.predict(3, 999).source])
    assert mirror.mismatch(query, reply, 3, strict=True, check_fallback=True) is None
    wrong = ([values[0] * (1 + 1e-6), reply[0][1]], reply[1])
    assert "mirror" in mirror.mismatch(query, wrong, 4, strict=True, check_fallback=True)
