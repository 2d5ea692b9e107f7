"""Tests for the simulated clock and churn schedules."""

import numpy as np
import pytest

from tests.simkit import ChurnEvent, ChurnSchedule, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0
        assert SimClock().current_slice == 0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(100.0) == 100.0
        assert clock.now == 100.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(500.0)
        assert clock.now == 500.0
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(100.0)

    def test_slice_tracking(self):
        clock = SimClock(slice_seconds=900.0)
        clock.advance(950.0)
        assert clock.current_slice == 1
        assert clock.slice_start() == 900.0
        assert clock.slice_start(3) == 2700.0

    def test_advance_to_next_slice(self):
        clock = SimClock(slice_seconds=900.0, start=100.0)
        assert clock.advance_to_next_slice() == 900.0
        assert clock.advance_to_next_slice() == 1800.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SimClock(slice_seconds=0.0)
        with pytest.raises(ValueError):
            SimClock(start=-5.0)

    def test_negative_slice_id_rejected(self):
        with pytest.raises(ValueError):
            SimClock().slice_start(-1)


class TestChurnEvent:
    def test_valid(self):
        event = ChurnEvent(timestamp=5.0, entity_kind="user", entity_id=3, action="join")
        assert event.entity_id == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timestamp=5.0, entity_kind="robot", entity_id=3, action="join"),
            dict(timestamp=5.0, entity_kind="user", entity_id=3, action="explode"),
            dict(timestamp=5.0, entity_kind="user", entity_id=-1, action="join"),
            dict(timestamp=-5.0, entity_kind="user", entity_id=3, action="join"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChurnEvent(**kwargs)


class TestChurnSchedule:
    def _events(self):
        return [
            ChurnEvent(timestamp=t, entity_kind="user", entity_id=k, action="join")
            for k, t in enumerate([30.0, 10.0, 20.0])
        ]

    def test_sorted_by_time(self):
        schedule = ChurnSchedule(self._events())
        assert [e.timestamp for e in schedule.all_events] == [10.0, 20.0, 30.0]

    def test_pop_due_consumes_in_order(self):
        schedule = ChurnSchedule(self._events())
        due = schedule.pop_due(20.0)
        assert [e.timestamp for e in due] == [10.0, 20.0]
        assert len(schedule) == 1
        assert schedule.pop_due(20.0) == []  # already consumed

    def test_peek_nondestructive(self):
        schedule = ChurnSchedule(self._events())
        assert schedule.peek().timestamp == 10.0
        assert len(schedule) == 3

    def test_peek_empty(self):
        assert ChurnSchedule().peek() is None

    def test_paper_scalability_factory(self):
        schedule, eu, nu, es, ns = ChurnSchedule.paper_scalability(
            n_users=100, n_services=200, join_time=400.0, existing_fraction=0.8, rng=0
        )
        assert len(eu) == 80 and len(nu) == 20
        assert len(es) == 160 and len(ns) == 40
        assert len(schedule) == 60  # every new entity joins once
        assert all(e.timestamp == 400.0 for e in schedule.all_events)
        joined_users = {e.entity_id for e in schedule.all_events if e.entity_kind == "user"}
        assert joined_users == set(int(x) for x in nu)

    def test_paper_scalability_partition(self):
        __, eu, nu, es, ns = ChurnSchedule.paper_scalability(50, 60, rng=1)
        np.testing.assert_array_equal(np.sort(np.concatenate([eu, nu])), np.arange(50))
        np.testing.assert_array_equal(np.sort(np.concatenate([es, ns])), np.arange(60))
