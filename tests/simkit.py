"""The adaptation simulation's scaffolding, shared by its tests.

Simulated time aligned to the dataset's slice structure (:class:`SimClock`),
churn schedules — users and services joining or leaving over simulated time,
of which the paper's scalability scenario (Fig. 14, Section V-G) is one —
and invocation workloads: Poisson and periodic-with-jitter arrival
generators plus a multi-user interleaver that drives execution engines.
Nothing in ``repro`` consumes these; the Fig. 14 experiment needs only the
entity split (:func:`repro.datasets.sampling.split_entities`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.sampling import split_entities
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_positive


class SimClock:
    """A monotonically advancing simulated clock.

    Args:
        slice_seconds: duration of one time slice (the paper's 15 minutes).
        start:         initial time in seconds.
    """

    def __init__(self, slice_seconds: float = 900.0, start: float = 0.0) -> None:
        check_positive("slice_seconds", slice_seconds)
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        self.slice_seconds = slice_seconds
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    @property
    def current_slice(self) -> int:
        return int(self._now // self.slice_seconds)

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative seconds ({seconds})")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump to an absolute time (must not move backwards)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def advance_to_next_slice(self) -> float:
        """Jump to the start of the next slice boundary."""
        next_slice = self.current_slice + 1
        return self.advance_to(next_slice * self.slice_seconds)

    def slice_start(self, slice_id: int | None = None) -> float:
        """Start time of ``slice_id`` (default: the current slice)."""
        if slice_id is None:
            slice_id = self.current_slice
        if slice_id < 0:
            raise ValueError(f"slice_id must be non-negative, got {slice_id}")
        return slice_id * self.slice_seconds


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One entity joining or leaving at a point in simulated time."""

    timestamp: float
    entity_kind: str  # "user" | "service"
    entity_id: int
    action: str  # "join" | "leave"

    def __post_init__(self) -> None:
        if self.entity_kind not in ("user", "service"):
            raise ValueError(
                f"entity_kind must be 'user' or 'service', got {self.entity_kind!r}"
            )
        if self.action not in ("join", "leave"):
            raise ValueError(f"action must be 'join' or 'leave', got {self.action!r}")
        if self.entity_id < 0:
            raise ValueError(f"entity_id must be non-negative, got {self.entity_id}")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")


class ChurnSchedule:
    """A time-ordered queue of churn events.

    Build with :meth:`paper_scalability` for the Fig. 14 scenario, or pass an
    arbitrary event list.  ``pop_due(now)`` returns (and consumes) every
    event with ``timestamp <= now``, in order.
    """

    def __init__(self, events: "list[ChurnEvent] | None" = None) -> None:
        self._events = sorted(events or [], key=lambda event: event.timestamp)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._events) - self._cursor

    @property
    def all_events(self) -> list[ChurnEvent]:
        return list(self._events)

    def peek(self) -> "ChurnEvent | None":
        if self._cursor >= len(self._events):
            return None
        return self._events[self._cursor]

    def pop_due(self, now: float) -> list[ChurnEvent]:
        """Consume and return all events with ``timestamp <= now``."""
        due: list[ChurnEvent] = []
        while self._cursor < len(self._events):
            event = self._events[self._cursor]
            if event.timestamp > now:
                break
            due.append(event)
            self._cursor += 1
        return due

    @classmethod
    def paper_scalability(
        cls,
        n_users: int,
        n_services: int,
        join_time: float = 400.0,
        existing_fraction: float = 0.8,
        rng: "int | np.random.Generator | None" = None,
    ) -> tuple["ChurnSchedule", np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Fig. 14 scenario.

        Returns ``(schedule, existing_users, new_users, existing_services,
        new_services)``: the existing 80% are implicitly present from t = 0
        (the schedule contains no events for them), and every remaining
        entity joins at ``join_time``.
        """
        rng = spawn_rng(rng)
        existing_users, new_users = split_entities(n_users, existing_fraction, rng)
        existing_services, new_services = split_entities(
            n_services, existing_fraction, rng
        )
        events = [
            ChurnEvent(timestamp=join_time, entity_kind="user", entity_id=int(uid), action="join")
            for uid in new_users
        ] + [
            ChurnEvent(timestamp=join_time, entity_kind="service", entity_id=int(sid), action="join")
            for sid in new_services
        ]
        return cls(events), existing_users, new_users, existing_services, new_services


@dataclass(frozen=True, slots=True)
class Invocation:
    """One scheduled workflow execution for a user."""

    timestamp: float
    user_id: int

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")
        if self.user_id < 0:
            raise ValueError(f"user_id must be non-negative, got {self.user_id}")


def poisson_arrivals(
    rate_per_second: float,
    duration: float,
    user_id: int = 0,
    start: float = 0.0,
    rng: "int | np.random.Generator | None" = None,
) -> list[Invocation]:
    """Poisson process arrivals over ``[start, start + duration)``.

    ``rate_per_second`` is the mean arrival rate; inter-arrival times are
    exponential.  Returns time-ordered invocations for ``user_id``.
    """
    check_positive("rate_per_second", rate_per_second)
    check_positive("duration", duration)
    rng = spawn_rng(rng)
    arrivals: list[Invocation] = []
    t = start
    while True:
        t += float(rng.exponential(1.0 / rate_per_second))
        if t >= start + duration:
            break
        arrivals.append(Invocation(timestamp=t, user_id=user_id))
    return arrivals


def periodic_arrivals(
    period: float,
    duration: float,
    user_id: int = 0,
    start: float = 0.0,
    jitter_fraction: float = 0.0,
    rng: "int | np.random.Generator | None" = None,
) -> list[Invocation]:
    """Fixed-period arrivals with optional uniform jitter.

    ``jitter_fraction = 0.2`` perturbs each arrival by up to ±20% of the
    period (clamped at the window start).
    """
    check_positive("period", period)
    check_positive("duration", duration)
    if not (0 <= jitter_fraction <= 1):
        raise ValueError(f"jitter_fraction must be in [0, 1], got {jitter_fraction}")
    rng = spawn_rng(rng)
    arrivals: list[Invocation] = []
    count = int(duration / period)
    for k in range(count):
        t = start + k * period
        if jitter_fraction > 0:
            t += float(rng.uniform(-1, 1)) * jitter_fraction * period
        t = max(t, start)
        if t < start + duration:
            arrivals.append(Invocation(timestamp=t, user_id=user_id))
    arrivals.sort(key=lambda invocation: invocation.timestamp)
    return arrivals


def merge_workloads(*workloads: list[Invocation]) -> list[Invocation]:
    """Interleave several users' arrival lists into one time-ordered list."""
    merged = [invocation for workload in workloads for invocation in workload]
    merged.sort(key=lambda invocation: invocation.timestamp)
    return merged


def drive_engines(
    engines: "dict[int, object]",
    workload: list[Invocation],
) -> int:
    """Execute a merged workload against per-user execution engines.

    ``engines`` maps user id to an :class:`~repro.adaptation.engine.ExecutionEngine`
    (or anything with ``execute_once(now)``).  Invocations for unknown users
    raise ``KeyError`` — a workload/user-set mismatch is a setup bug, not
    something to skip silently.  Returns the number of executions performed.
    """
    executed = 0
    for invocation in workload:
        if invocation.user_id not in engines:
            raise KeyError(
                f"workload contains user {invocation.user_id} with no engine"
            )
        engines[invocation.user_id].execute_once(invocation.timestamp)
        executed += 1
    return executed
