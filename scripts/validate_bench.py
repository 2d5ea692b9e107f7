#!/usr/bin/env python
"""Unified schema validation for every BENCH_*.json results file.

Each benchmark script appends free-form JSON records to its own history
file; a schema typo (renamed key, dropped field, stringified number)
silently poisons every later comparison against that history.  This
gatekeeper validates all of them in one pass so CI has a single step —
and a single exit code — guarding the whole results corpus::

    PYTHONPATH=src python scripts/validate_bench.py            # all files
    PYTHONPATH=src python scripts/validate_bench.py --only serving,lifecycle
    PYTHONPATH=src python scripts/validate_bench.py --strict   # missing file fails

Serving and lifecycle records delegate to the ``validate_record`` of
their producing script (one source of truth per schema); replay and
robustness records are validated natively here.  ``BENCH_robustness.json``
interleaves two record shapes — the poison-level sweep from
``bench_robustness.py`` and failover drills appended by
``chaos_check.py --bench-out`` — discriminated by the ``"drill"`` key.
``BENCH_cluster.json`` holds the live-migration records of
``bench_migration.py`` (``"drill": "migration"``).  Missing files are
skipped by default (benches are grown one PR at a time); ``--strict``
turns a missing file into a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS_DIR))

import bench_lifecycle  # noqa: E402
import bench_migration  # noqa: E402
import bench_serving  # noqa: E402


def _require(problems: list[str], condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def validate_replay_record(record: dict) -> list[str]:
    """One BENCH_replay.json record (``bench_replay.py``)."""
    problems: list[str] = []
    _require(problems, isinstance(record.get("timestamp"), str), "missing timestamp")
    _require(problems, isinstance(record.get("revision"), str), "missing revision")
    config = record.get("config")
    _require(problems, isinstance(config, dict), "missing config")
    if isinstance(config, dict):
        for key in ("n_users", "n_services", "n_samples", "batch", "seed"):
            _require(problems, key in config, f"config.{key} missing")
    rates = record.get("steps_per_sec")
    _require(problems, isinstance(rates, dict), "missing steps_per_sec")
    if isinstance(rates, dict):
        for key in ("scalar", "vectorized"):
            _require(
                problems,
                isinstance(rates.get(key), (int, float)),
                f"steps_per_sec.{key} missing",
            )
    _require(
        problems,
        isinstance(record.get("speedup_vectorized"), (int, float)),
        "missing speedup_vectorized",
    )
    return problems


def _validate_gate_block(problems: list[str], block, label: str) -> None:
    _require(problems, isinstance(block, dict), f"{label} missing")
    if not isinstance(block, dict):
        return
    for key in ("mae", "npre", "quarantined"):
        _require(
            problems,
            isinstance(block.get(key), (int, float)),
            f"{label}.{key} missing",
        )


def validate_robustness_record(record: dict) -> list[str]:
    """One BENCH_robustness.json record — either of its two shapes."""
    problems: list[str] = []
    _require(problems, isinstance(record.get("timestamp"), str), "missing timestamp")
    _require(problems, isinstance(record.get("revision"), str), "missing revision")
    _require(problems, isinstance(record.get("pass"), bool), "missing pass")
    if "drill" in record:  # chaos_check --bench-out failover shape
        _require(
            problems, record.get("drill") == "failover", "unknown drill kind"
        )
        for key in (
            "records",
            "kill_after",
            "time_to_promote_s",
            "lag_during_partition",
            "catchup_seconds_after_heal",
            "promoted_epoch",
        ):
            _require(
                problems,
                isinstance(record.get(key), (int, float)),
                f"{key} missing",
            )
        return problems
    # bench_robustness.py poison-level sweep shape.
    _require(
        problems, isinstance(record.get("records"), int), "missing records"
    )
    levels = record.get("levels")
    _require(problems, isinstance(levels, dict) and levels, "missing levels")
    if isinstance(levels, dict):
        for level, pair in levels.items():
            _require(
                problems, isinstance(pair, dict), f"levels[{level}] not a dict"
            )
            if isinstance(pair, dict):
                _validate_gate_block(
                    problems, pair.get("gate_off"), f"levels[{level}].gate_off"
                )
                _validate_gate_block(
                    problems, pair.get("gate_on"), f"levels[{level}].gate_on"
                )
    return problems


SUITES = {
    "cluster": (REPO_ROOT / "BENCH_cluster.json", bench_migration.validate_record),
    "replay": (REPO_ROOT / "BENCH_replay.json", validate_replay_record),
    "robustness": (
        REPO_ROOT / "BENCH_robustness.json",
        validate_robustness_record,
    ),
    "serving": (REPO_ROOT / "BENCH_serving.json", bench_serving.validate_record),
    "lifecycle": (
        REPO_ROOT / "BENCH_lifecycle.json",
        bench_lifecycle.validate_record,
    ),
}


def validate_file(path: Path, validator) -> int:
    """Validate one history file; print problems; return their count."""
    try:
        history = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{path.name}: unreadable ({exc})")
        return 1
    if not isinstance(history, list) or not history:
        print(f"{path.name}: must hold a non-empty JSON array")
        return 1
    failures = 0
    for index, record in enumerate(history):
        if not isinstance(record, dict):
            print(f"{path.name}[{index}]: not an object")
            failures += 1
            continue
        for problem in validator(record):
            print(f"{path.name}[{index}]: {problem}")
            failures += 1
    if not failures:
        print(f"{path.name}: {len(history)} record(s) OK")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated subset of suites "
        f"({','.join(sorted(SUITES))}); default: all",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="a missing results file is a failure instead of a skip",
    )
    args = parser.parse_args()

    names = (
        [name.strip() for name in args.only.split(",") if name.strip()]
        if args.only
        else sorted(SUITES)
    )
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise SystemExit(f"unknown suite(s): {', '.join(unknown)}")

    failures = 0
    checked = 0
    for name in names:
        path, validator = SUITES[name]
        if not path.exists():
            if args.strict:
                print(f"{path.name}: missing (strict)")
                failures += 1
            else:
                print(f"{path.name}: not present, skipped")
            continue
        failures += validate_file(path, validator)
        checked += 1
    if failures:
        raise SystemExit(f"{failures} schema problem(s) across {checked} file(s)")
    print(f"all bench schemas OK ({checked} file(s) checked)")


if __name__ == "__main__":
    main()
