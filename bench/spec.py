"""Names, units and bounds of the benchmark, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repo root is the single list of workloads and
metrics; nothing here repeats a name.  This module also puts the
checkout's ``src/`` on ``sys.path`` so the public ``repro`` package is the
one under test, never an installed copy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def require_source_tree() -> None:
    """Exit non-zero when the checkout has no program to measure."""
    if not (SRC / "repro" / "cluster" / "shard.py").is_file():
        sys.stderr.write(f"bench: no program under test at {SRC}/repro\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
