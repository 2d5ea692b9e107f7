"""ok / worse / unresolved, per metric x workload."""

from bench.compare import compare, spread, verdict
from bench.spec import load_spec


def test_within_the_bound_is_ok_and_beyond_it_is_worse():
    a = [1.00, 1.01, 0.99, 1.00]
    assert verdict(a, [1.05, 1.06, 1.04, 1.05], "lower", 0.10) == "ok"
    assert verdict(a, [1.20, 1.21, 1.19, 1.20], "lower", 0.10) == "worse"
    assert verdict(a, [0.80, 0.81, 0.79, 0.80], "higher", 0.10) == "worse"
    assert verdict(a, [0.80, 0.81, 0.79, 0.80], "lower", 0.10) == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_runs_do_not_overlap():
    noisy = [1.0, 1.5, 0.7, 1.2, 0.9, 1.4]
    assert spread(noisy) > 0.10
    assert verdict(noisy, [1.1, 1.6, 0.8, 1.3, 1.0, 1.5], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [0.5, 0.6, 0.4, 0.5, 0.6, 0.5], "lower", 0.10) == "ok"
    assert verdict(noisy, [2.5, 2.6, 2.4, 2.5, 2.6, 2.5], "lower", 0.10) == "worse"


def record(workload, value, failed=0):
    spec = load_spec()
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"workload": workload, "traced": False, "metrics": metrics,
            "attempted": 100, "failed": failed}


def test_one_row_per_metric_and_workload_and_a_higher_failed_share_is_refused():
    spec = load_spec()
    a = [record("ingest_flat", 1.0), record("rank_hot", 1.0)]
    rows, refused = compare(spec, a, [record("ingest_flat", 1.0), record("rank_hot", 1.0)])
    assert len(rows) == 2 * (len(spec["end_to_end"]) + 1) and not refused
    rows, refused = compare(spec, a, [record("ingest_flat", 1.0, failed=1)])
    assert refused and rows[-1]["metric"] == "failed_share" and rows[-1]["verdict"] == "worse"
