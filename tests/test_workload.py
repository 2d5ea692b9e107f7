"""Tests for the invocation workload generators."""

import numpy as np
import pytest

from tests.simkit import (
    Invocation,
    drive_engines,
    merge_workloads,
    periodic_arrivals,
    poisson_arrivals,
)


class TestInvocation:
    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            Invocation(timestamp=-1.0, user_id=0)
        with pytest.raises(ValueError):
            Invocation(timestamp=0.0, user_id=-1)


class TestPoissonArrivals:
    def test_rate_approximated(self):
        arrivals = poisson_arrivals(rate_per_second=0.5, duration=10_000.0, rng=0)
        assert len(arrivals) == pytest.approx(5000, rel=0.1)

    def test_within_window(self):
        arrivals = poisson_arrivals(0.1, duration=100.0, start=50.0, rng=0)
        for invocation in arrivals:
            assert 50.0 <= invocation.timestamp < 150.0

    def test_time_ordered(self):
        stamps = [inv.timestamp for inv in poisson_arrivals(1.0, 500.0, rng=1)]
        assert stamps == sorted(stamps)

    def test_exponential_gaps(self):
        arrivals = poisson_arrivals(1.0, 5000.0, rng=2)
        gaps = np.diff([inv.timestamp for inv in arrivals])
        assert gaps.mean() == pytest.approx(1.0, rel=0.1)
        # Exponential: std ~ mean (coefficient of variation ~ 1).
        assert gaps.std() == pytest.approx(gaps.mean(), rel=0.2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10.0)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, 0.0)

    def test_deterministic(self):
        a = poisson_arrivals(0.5, 100.0, rng=3)
        b = poisson_arrivals(0.5, 100.0, rng=3)
        assert [x.timestamp for x in a] == [x.timestamp for x in b]


class TestPeriodicArrivals:
    def test_count(self):
        arrivals = periodic_arrivals(period=10.0, duration=100.0)
        assert len(arrivals) == 10

    def test_no_jitter_exact(self):
        arrivals = periodic_arrivals(period=10.0, duration=30.0, start=5.0)
        assert [inv.timestamp for inv in arrivals] == [5.0, 15.0, 25.0]

    def test_jitter_bounded(self):
        arrivals = periodic_arrivals(
            period=10.0, duration=200.0, jitter_fraction=0.3, rng=0
        )
        for k, invocation in enumerate(arrivals):
            assert invocation.timestamp >= 0.0
        stamps = [inv.timestamp for inv in arrivals]
        assert stamps == sorted(stamps)

    def test_invalid_jitter(self):
        with pytest.raises(ValueError):
            periodic_arrivals(10.0, 100.0, jitter_fraction=1.5)


class TestMergeAndDrive:
    def test_merge_orders_by_time(self):
        a = periodic_arrivals(10.0, 50.0, user_id=0)
        b = periodic_arrivals(7.0, 50.0, user_id=1)
        merged = merge_workloads(a, b)
        stamps = [inv.timestamp for inv in merged]
        assert stamps == sorted(stamps)
        assert len(merged) == len(a) + len(b)

    def test_drive_engines_dispatches(self):
        executed = {0: [], 1: []}

        class StubEngine:
            def __init__(self, user_id):
                self.user_id = user_id

            def execute_once(self, now):
                executed[self.user_id].append(now)

        workload = merge_workloads(
            periodic_arrivals(10.0, 30.0, user_id=0),
            periodic_arrivals(15.0, 30.0, user_id=1),
        )
        count = drive_engines({0: StubEngine(0), 1: StubEngine(1)}, workload)
        assert count == len(workload)
        assert len(executed[0]) == 3
        assert len(executed[1]) == 2

    def test_drive_unknown_user_raises(self):
        workload = [Invocation(timestamp=0.0, user_id=9)]
        with pytest.raises(KeyError, match="9"):
            drive_engines({}, workload)
