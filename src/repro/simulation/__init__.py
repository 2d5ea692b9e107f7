"""Simulation utilities: a slice-aware clock, churn schedules for the
scalability experiment (users/services joining and leaving mid-run), the
fault sources that harden the serving stack (hostile streams, faulty
replica links, floods — :mod:`repro.simulation.faults`) and the chaos
drills that prove its bit-exact contracts under them
(:mod:`repro.simulation.drills`)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.simulation.clock": ("SimClock",),
    "repro.simulation.churn": ("ChurnEvent", "ChurnSchedule"),
    "repro.simulation.faults": (
        "CORE_METRIC_FAMILIES",
        "FaultConfig",
        "FaultEvent",
        "FaultInjector",
        "FaultyReplicaLink",
        "LinkFaultConfig",
        "check_metrics_exposition",
        "drive_client",
        "run_flood",
    ),
    # The drills import the whole serving stack; resolving them on first use
    # keeps ``repro.simulation.churn`` importable without it.
    "repro.simulation.drills": (
        "DrillReport",
        "Fleet",
        "NOT_IN_ALL",
        "SCENARIOS",
        "diff_checkpoints",
        "diff_state",
        "feed",
        "run_crash_recovery",
        "run_failover",
        "run_memory_cap",
        "run_memory_pressure",
        "run_migration_kill",
        "run_migration_live",
        "run_poison_flood",
        "run_shard_kill",
        "snapshot",
    ),
}

__getattr__ = lazy_exports(
    __name__,
    {name: module for module, names in _EXPORTS.items() for name in names},
)

__all__ = [name for names in _EXPORTS.values() for name in names]
