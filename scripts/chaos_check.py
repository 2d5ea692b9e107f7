#!/usr/bin/env python
"""Run the chaos drills: every scenario of ``repro.simulation.drills``.

Each scenario injects one kind of fault into a live serving stack — a
``kill -9``, a poisoned stream and a flood, a partitioned replication link,
an allocation ceiling, a dead shard, a kill mid-migration, a rebalance under
load — and requires the outcome to *equal* a run where nothing went wrong,
plus a valid ``/metrics`` exposition scraped mid-fault.  The scenarios and
what each proves are listed in ``repro/simulation/drills.py``::

    PYTHONPATH=src python scripts/chaos_check.py failover
    PYTHONPATH=src python scripts/chaos_check.py shard-kill migration-live --seed 7
    PYTHONPATH=src python scripts/chaos_check.py --all

``--all`` runs every scenario except ``memory-cap`` (minutes long and
dependent on the host's address-space headroom; name it, alone or next to
``--all``, to run it).  Each
run prints its report and wall time; the exit code is nonzero if any run
diverged or scraped an invalid exposition, so CI and operators can use
this as a one-command drill.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.simulation import NOT_IN_ALL, SCENARIOS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", nargs="*",
                        help="scenarios to run: " + ", ".join(SCENARIOS))
    parser.add_argument("--all", action="store_true",
                        help="run every scenario except "
                             + ", ".join(sorted(NOT_IN_ALL)))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    unknown = sorted(set(args.scenario) - set(SCENARIOS))
    if unknown:
        parser.error(f"unknown scenario: {', '.join(unknown)}")
    names = [
        name for name in SCENARIOS
        if name in args.scenario or (args.all and name not in NOT_IN_ALL)
    ]
    if not names:
        parser.error("name at least one scenario, or pass --all")

    started = time.perf_counter()
    failed: list[str] = []
    runs = 0
    for name in names:
        with tempfile.TemporaryDirectory(prefix=f"qos-{name}-") as root:
            lap = time.perf_counter()
            for label, report in SCENARIOS[name](root, args.seed):
                title = f"{name} [{label}]" if label else name
                now = time.perf_counter()
                print(f"--- {title} ({now - lap:.1f}s) ---")
                print(report.summary())
                lap = now
                runs += 1
                if not (report.matches and report.metrics_ok):
                    failed.append(title)
    print(f"=== {runs - len(failed)}/{runs} drill runs passed "
          f"in {time.perf_counter() - started:.1f}s ===")
    for title in failed:
        print(f"FAILED: {title}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
