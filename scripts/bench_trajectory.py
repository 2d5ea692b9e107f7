#!/usr/bin/env python
"""Track replay-kernel throughput across commits.

Measures replay steps/sec for both kernels on the shared warm-model
configuration (the same one ``benchmarks/test_bench_core_throughput.py``
uses: 100 users x 200 services, 5,000 stored samples, 1,000-step batches)
and appends one JSON record per run to ``BENCH_replay.json`` at the repo
root.  Run it before and after performance work to build a trajectory::

    PYTHONPATH=src python scripts/bench_trajectory.py
    PYTHONPATH=src python scripts/bench_trajectory.py --seconds 5 --note "tuned block loop"

Each record carries the git revision, kernel, steps/sec, the speedup of
the vectorized kernel over the scalar one in the same run, and the
observability overhead (vectorized throughput with the metrics registry
enabled vs disabled — the instrumentation budget is < 5%).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import AdaptiveMatrixFactorization, AMFConfig
from repro.datasets.schema import QoSRecord
from repro.observability import set_enabled

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_replay.json"

N_USERS = 100
N_SERVICES = 200
N_SAMPLES = 5000
BATCH = 1000


def _warm_model(kernel: str, seed: int = 0) -> AdaptiveMatrixFactorization:
    model = AdaptiveMatrixFactorization(
        AMFConfig.for_response_time(kernel=kernel), rng=seed
    )
    rng = np.random.default_rng(seed)
    model.observe_many(
        QoSRecord(
            timestamp=float(k),
            user_id=int(rng.integers(N_USERS)),
            service_id=int(rng.integers(N_SERVICES)),
            value=float(rng.uniform(0.05, 5.0)),
        )
        for k in range(N_SAMPLES)
    )
    return model


def measure_steps_per_sec(kernel: str, seconds: float) -> float:
    """Replay steps/sec for one kernel, measured over ~``seconds``."""
    model = _warm_model(kernel)
    model.replay_many(now=0.0, count=BATCH)  # warmup
    steps = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        model.replay_many(now=0.0, count=BATCH)
        steps += BATCH
    elapsed = time.perf_counter() - started
    return steps / elapsed


def measure_metrics_overhead(seconds: float) -> dict:
    """Vectorized throughput with the metrics registry on vs off.

    The observability layer records per *batch*, not per step, so the
    overhead target is well under 5% — this measurement is what holds the
    instrumentation to that budget across commits.
    """
    rate_on = measure_steps_per_sec("vectorized", seconds)
    set_enabled(False)
    try:
        rate_off = measure_steps_per_sec("vectorized", seconds)
    finally:
        set_enabled(True)
    overhead = (rate_off - rate_on) / rate_off * 100.0 if rate_off > 0 else 0.0
    return {
        "vectorized_on": round(rate_on, 1),
        "vectorized_off": round(rate_off, 1),
        "overhead_percent": round(overhead, 2),
    }


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_record(record: dict, path: Path) -> None:
    """Append ``record`` to the JSON array at ``path``."""
    history: list[dict] = []
    if path.exists():
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            raise SystemExit(f"{path} does not hold a JSON array")
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seconds", type=float, default=2.0, help="measurement window per kernel"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--note", default="", help="free-form label for the record")
    parser.add_argument(
        "--output", type=Path, default=RESULTS_PATH, help="result file to append to"
    )
    args = parser.parse_args()

    rates = {
        kernel: measure_steps_per_sec(kernel, args.seconds)
        for kernel in ("scalar", "vectorized")
    }
    metrics_overhead = measure_metrics_overhead(args.seconds)
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "revision": git_revision(),
        "config": {
            "n_users": N_USERS,
            "n_services": N_SERVICES,
            "n_samples": N_SAMPLES,
            "batch": BATCH,
            "seed": args.seed,
        },
        "steps_per_sec": {k: round(v, 1) for k, v in rates.items()},
        "speedup_vectorized": round(rates["vectorized"] / rates["scalar"], 2),
        "metrics_overhead": metrics_overhead,
        "note": args.note,
    }
    append_record(record, args.output)

    for kernel, rate in rates.items():
        print(f"{kernel:>10}: {rate:>12,.0f} replay steps/sec")
    print(f"   speedup: {record['speedup_vectorized']:.2f}x (vectorized / scalar)")
    print(
        f"   metrics: {metrics_overhead['overhead_percent']:+.2f}% overhead "
        f"(on {metrics_overhead['vectorized_on']:,.0f} / "
        f"off {metrics_overhead['vectorized_off']:,.0f} steps/sec)"
    )
    print(f"appended to {args.output}")


if __name__ == "__main__":
    main()
