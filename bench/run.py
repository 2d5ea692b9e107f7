"""``python -m bench.run`` — the one command of the benchmark.

With ``--workload NAME --seed N --seconds S --trace 0|1`` it runs one
workload once and ends its output with one JSON line::

    {"correct": true, "attempted": 31754, "failed": 0, "metrics": {...}}

holding every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or
every per-layer metric (``--trace 1``).  Without ``--workload`` it runs
all six; ``--seeds A-B`` repeats them per seed, ``--traced`` adds the
traced run, and every run is written to ``--out`` for
``python -m bench.compare``.  The exit code is non-zero when an output
check fails or a request fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from bench.spec import OUT, ROOT, load_spec, require_source_tree, workload_names

TRACED_SHARE = 0.5  # a traced run's wire phases, as a share of --seconds


def measure(spec: dict, name: str, seed: int, seconds: float, traced: bool,
            workroot: str) -> dict:
    """Run one workload once; return its record."""
    from bench.layers import write_spans
    from bench.workloads import run_workload

    workdir = os.path.join(workroot, f"{name}-{seed}-{int(traced)}-{os.getpid()}")
    began = time.perf_counter()
    try:
        run = run_workload(name, seed, seconds * (TRACED_SHARE if traced else 1.0),
                           traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        write_spans(str(OUT / f"trace-{name}.jsonl"), run.tracer.spans)
    metrics = {}
    for metric in spec["per_layer" if traced else "end_to_end"]:
        if metric["name"] not in run.values and not traced:
            run.check(f"{metric['name']} was measured", False)
        metrics[metric["name"]] = {
            "value": float(run.values.get(metric["name"], 0.0)), "unit": metric["unit"]}
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "seconds": seconds,
        "wall_s": time.perf_counter() - began,
        "correct": all(ok for _, ok, _ in run.checks),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "samples": run.samples,
        "rungs": run.rungs,
        "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in run.checks],
        "notes": run.notes,
    }


def show(record: dict) -> None:
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  {mode}  "
          f"{record['seconds']:g} s  (wall {record['wall_s']:.1f} s)")
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'attempted':<40} {record['attempted']:>14d} count")
    print(f"  {'failed':<40} {record['failed']:>14d} count")
    for kind, count in record["samples"].items():
        print(f"  samples: {kind} latencies from {count} requests")
    for rung in record["rungs"]:
        print(f"  ladder: {rung['rate']} QPS offered, {rung['achieved_qps']:.0f} achieved, "
              f"{rung['tail']} {rung['tail_ms']:.3f} ms, "
              f"{'passed' if rung['passed'] else 'missed'}")
    for note in record["notes"]:
        print(f"  note: {note}")
    for check in record["checks"]:
        verdict = "ok  " if check["ok"] else "FAIL"
        detail = f" — {check['detail']}" if check["detail"] and not check["ok"] else ""
        print(f"  check {verdict} {check['check']}{detail}")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=workload_names(spec),
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", help="A-B: one run per seed, instead of --seed")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, which reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="after each untraced run, also make the traced run")
    parser.add_argument("--smoke", action="store_true", help="1/20 of --seconds")
    parser.add_argument("--selftest", action="store_true", help="run bench/tests and exit")
    parser.add_argument("--out", default=str(OUT / "result.json"))
    parser.add_argument("--workdir", default=str(OUT / "work"),
                        help="server data directories live (briefly) under here")
    args = parser.parse_args(argv)
    require_source_tree()
    if args.selftest:
        import pytest

        return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "bench" / "tests")]))

    # A SIGTERM must unwind through Fleet.__exit__, which reaps the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seconds = args.seconds / 20.0 if args.smoke else args.seconds
    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
    modes = [False, True] if args.traced else [bool(args.trace)]
    records = []
    for seed in seeds:
        for name in args.workload or workload_names(spec):
            for traced in modes:
                records.append(measure(spec, name, seed, seconds, traced, args.workdir))
                show(records[-1])
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"claim": None, "runs": records}, handle, indent=1)
    last = records[-1]
    print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] and r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
