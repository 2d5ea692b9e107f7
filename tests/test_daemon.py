"""Tests for the thread-safe model facade and the background trainer."""

import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core import AdaptiveMatrixFactorization, AMFConfig
from repro.core.daemon import (
    QUIET_SECONDS,
    SLICE_STEPS,
    BackgroundTrainer,
    ConcurrentModel,
)
from repro.datasets.schema import QoSRecord

WAIT = 10.0  # bound on every Event wait / join below; none is expected to run out
PAST_QUIET = 2 * QUIET_SECONDS  # clear of float rounding at the boundary


def record(u, s, value, t=0.0):
    return QoSRecord(timestamp=t, user_id=u, service_id=s, value=value)


def make_model(seed=0):
    return ConcurrentModel(
        AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=seed)
    )


class TestConcurrentModel:
    def test_delegates_operations(self):
        model = make_model()
        error = model.observe(record(0, 0, 1.0))
        assert error > 0
        assert model.n_stored_samples == 1
        assert model.updates_applied == 1
        assert 0 <= model.predict(0, 0) <= 20.0

    def test_predict_registers_entities(self):
        model = make_model()
        value = model.predict(5, 9)  # never observed
        assert np.isfinite(value)

    def test_concurrent_observers_consistent(self):
        """N threads each observe disjoint pairs; totals must be exact."""
        model = make_model()
        per_thread = 200
        n_threads = 4

        def work(thread_id):
            for k in range(per_thread):
                model.observe(record(thread_id, k % 50, 1.0 + thread_id, t=float(k)))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert model.updates_applied == per_thread * n_threads
        assert model.n_stored_samples == n_threads * 50

    def test_concurrent_reads_and_writes_stay_finite(self):
        model = make_model()
        stop = threading.Event()
        failures = []

        def writer():
            k = 0
            while not stop.is_set():
                model.observe(record(k % 10, k % 20, 0.5 + (k % 7) * 0.3, t=float(k)))
                k += 1

        def reader():
            while not stop.is_set():
                matrix = model.predict_matrix()
                if matrix.size and not np.all(np.isfinite(matrix)):
                    failures.append("non-finite prediction")

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures


class TestBackgroundTrainer:
    def test_replays_while_running(self):
        model = make_model()
        for k in range(100):
            model.observe(record(k % 5, k % 8, 1.0, t=0.0))
        trainer = BackgroundTrainer(model, clock=lambda: 0.0)
        with trainer:
            deadline = time.time() + 3.0
            while trainer.replays_applied == 0 and time.time() < deadline:
                time.sleep(0.01)
        assert trainer.replays_applied > 0
        assert not trainer.running

    def test_improves_training_error(self):
        model = make_model()
        rng = np.random.default_rng(0)
        base = np.outer(rng.uniform(0.5, 2, 8), rng.uniform(0.5, 2, 12))
        for u in range(8):
            for s in range(12):
                model.observe(record(u, s, float(base[u, s]), t=0.0))
        before = model.training_error()
        trainer = BackgroundTrainer(model, clock=lambda: 0.0)
        with trainer:
            time.sleep(0.5)
        assert model.training_error() < before

    def test_expires_stale_samples(self):
        model = make_model()
        for k in range(50):
            model.observe(record(k % 5, k, 1.0, t=0.0))
        trainer = BackgroundTrainer(model, clock=lambda: 10_000.0)
        with trainer:
            deadline = time.time() + 3.0
            while model.n_stored_samples > 0 and time.time() < deadline:
                time.sleep(0.01)
        assert model.n_stored_samples == 0
        assert trainer.expired == 50

    def test_idles_on_empty_store(self):
        model = make_model()
        trainer = BackgroundTrainer(model)
        with trainer:
            time.sleep(0.05)
            assert trainer.replays_applied == 0  # nothing to replay, no crash

    def test_start_idempotent_and_restartable(self):
        model = make_model()
        model.observe(record(0, 0, 1.0))
        trainer = BackgroundTrainer(model, clock=lambda: 0.0)
        trainer.start()
        trainer.start()  # no-op
        assert trainer.running
        trainer.stop()
        assert not trainer.running
        trainer.start()  # restart after stop
        assert trainer.running
        trainer.stop()

    def test_observations_during_replay(self):
        """Arrivals and background replay interleave without corruption."""
        model = make_model()
        for k in range(50):
            model.observe(record(k % 5, k % 9, 1.0, t=0.0))
        trainer = BackgroundTrainer(model, clock=lambda: 0.0)
        started = time.perf_counter()
        with trainer:
            for k in range(300):
                model.observe(record(k % 7, k % 11, 2.0, t=0.0))
        elapsed = time.perf_counter() - started
        matrix = model.predict_matrix()
        assert np.all(np.isfinite(matrix))
        assert model.updates_applied >= 350
        # The trainer yields to arrivals; it used to win the lock (and the
        # interpreter) from them again and again: 20-50 s in suite order.
        assert elapsed < 1.0


def stocked_model():
    model = make_model()
    for k in range(60):
        model.observe(record(k % 5, k % 9, 1.0 + k % 3, t=0.0))
    return model


class TestIdleRule:
    """Algorithm 1's "otherwise": replay only while no arrival is in flight
    or has just left.  ``_step`` is one turn of the trainer's loop, so the
    policy is driven synchronously, on a clock that only the test moves."""

    def trainer(self, model):
        return BackgroundTrainer(model, clock=lambda: 0.0)

    def assert_yields(self, trainer):
        replays, yields = trainer.replays_applied, trainer.yields
        trainer._step()
        assert trainer.replays_applied == replays
        assert trainer.yields == yields + 1

    def assert_replays(self, trainer):
        replays, yields = trainer.replays_applied, trainer.yields
        trainer._step()
        assert trainer.replays_applied == replays + SLICE_STEPS
        assert trainer.yields == yields

    def test_idle_stream_is_replayed_unprompted(self, clock):
        model = stocked_model()
        clock.advance(PAST_QUIET)
        trainer = self.trainer(model)
        self.assert_replays(trainer)
        self.assert_replays(trainer)  # the trainer's own entry is no arrival
        assert model.idle_for() >= QUIET_SECONDS  # and stays idle

    def test_a_slice_is_followed_by_a_pause_that_is_not_a_yield(self, clock):
        """At most one slice per quiet interval: the trainer never holds
        the model (or the interpreter) back to back."""
        model = stocked_model()
        trainer = self.trainer(model)
        waits = []
        trainer._stop = types.SimpleNamespace(wait=waits.append)
        clock.advance(PAST_QUIET)
        self.assert_replays(trainer)
        assert waits == [QUIET_SECONDS]
        model.predict_known(0, 0)
        clock.advance(QUIET_SECONDS / 4)
        self.assert_yields(trainer)  # ... which waits out the remainder only
        assert waits[1] == pytest.approx(QUIET_SECONDS * 3 / 4)

    def test_no_replay_within_the_quiet_interval_of_an_arrival(self, clock):
        model = stocked_model()
        trainer = self.trainer(model)
        assert model.idle_for() == 0.0  # the last observe left just now
        self.assert_yields(trainer)
        clock.advance(QUIET_SECONDS * 0.4)
        self.assert_yields(trainer)
        clock.advance(QUIET_SECONDS * 0.4)
        self.assert_yields(trainer)
        clock.advance(QUIET_SECONDS * 0.4)
        self.assert_replays(trainer)  # past it: no foreground nudge needed
        model.predict_known(0, 0)  # any public call is an arrival
        self.assert_yields(trainer)
        clock.advance(PAST_QUIET)
        self.assert_replays(trainer)

    def test_default_stream_clock_is_not_an_arrival(self, clock):
        model = stocked_model()
        trainer = BackgroundTrainer(model)  # clock = model.latest_timestamp
        clock.advance(1.0)
        self.assert_replays(trainer)
        self.assert_replays(trainer)

    def test_no_replay_while_serving_is_open(self, clock):
        model = stocked_model()
        trainer = self.trainer(model)
        clock.advance(1.0)
        with model.serving():
            clock.advance(1.0)  # however long the request takes
            assert model.idle_for() == 0.0
            self.assert_yields(trainer)
            model.predict_known(0, 0)  # its model calls leave the mark held
            self.assert_yields(trainer)
        self.assert_yields(trainer)  # quiet interval starts at the exit
        clock.advance(PAST_QUIET)
        self.assert_replays(trainer)

    def test_an_exception_inside_serving_still_releases(self, clock):
        model = stocked_model()
        trainer = self.trainer(model)
        with pytest.raises(RuntimeError, match="handler died"):
            with model.serving():
                raise RuntimeError("handler died")
        clock.advance(PAST_QUIET)
        self.assert_replays(trainer)

    def test_nested_and_concurrent_serving_release_on_the_last_exit(self, clock):
        model = stocked_model()
        trainer = self.trainer(model)
        inside, leave = threading.Event(), threading.Event()

        def other_request():
            with model.serving(), model.serving():
                inside.set()
                leave.wait(WAIT)

        thread = threading.Thread(target=other_request)
        thread.start()
        try:
            assert inside.wait(WAIT)
            with model.serving():
                clock.advance(1.0)
                self.assert_yields(trainer)
            clock.advance(1.0)  # this thread left; the other has not
            assert model.idle_for() == 0.0
            self.assert_yields(trainer)
        finally:
            leave.set()
            thread.join(WAIT)
        assert not thread.is_alive()
        self.assert_yields(trainer)  # the last exit was just now
        clock.advance(PAST_QUIET)
        self.assert_replays(trainer)

    def test_no_replay_while_a_call_holds_or_waits_for_the_lock(self, clock):
        model = stocked_model()
        trainer = self.trainer(model)
        clock.advance(1.0)
        holding, release = threading.Event(), threading.Event()

        def holder(raw_model):
            holding.set()
            release.wait(WAIT)

        first = threading.Thread(target=model.with_model, args=(holder,))
        second = threading.Thread(target=model.predict_known, args=(0, 0))
        first.start()
        try:
            assert holding.wait(WAIT)
            clock.advance(1.0)
            self.assert_yields(trainer)  # a foreground call holds the lock
            second.start()  # ... and another now waits for it
            clock.advance(1.0)
            self.assert_yields(trainer)
        finally:
            release.set()
            first.join(WAIT)
            second.join(WAIT)
        assert not first.is_alive() and not second.is_alive()
        self.assert_yields(trainer)
        clock.advance(PAST_QUIET)
        self.assert_replays(trainer)


    def test_the_mark_counts_exactly_under_contention(self, clock):
        """More threads than cores entering and leaving on a shortened
        switch interval: one lost update would leave the count off zero —
        ``idle_for()`` stuck at 0.0 and replay starved for good."""
        model = stocked_model()

        def requests():
            for __ in range(3000):
                with model.serving():
                    pass

        threads = [threading.Thread(target=requests) for __ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        clock.advance(PAST_QUIET)
        assert model.idle_for() >= QUIET_SECONDS
        self.assert_replays(self.trainer(model))


class TestIdleRuleOnTheThread:
    """The same rule with the real loop running: hooks on the facade say
    when the trainer asks and when a slice starts; the clock still only
    moves by hand."""

    def test_thread_waits_out_the_quiet_interval_then_replays(self, clock, called):
        model = stocked_model()
        sliced = called(model, "replay_many")
        asked_twice = called(model, "idle_for", times=2)
        trainer = BackgroundTrainer(model, clock=lambda: 0.0)
        try:
            with model.serving():
                trainer.start()
                # Frozen clock, open request: the loop turns, never slices.
                assert asked_twice.wait(WAIT)
                assert trainer.yields >= 1
                assert not sliced.is_set()
            asked_again = called(model, "idle_for", times=2)
            assert asked_again.wait(WAIT)  # left, but just now
            assert not sliced.is_set()
            clock.advance(PAST_QUIET)
            assert sliced.wait(WAIT)  # idle long enough: nobody nudged it
        finally:
            trainer.stop()
        assert trainer.replays_applied > 0
        assert not trainer.running

    def test_stop_is_prompt_while_yielding(self, clock, called):
        model = stocked_model()
        asked = called(model, "idle_for")
        trainer = BackgroundTrainer(model, clock=lambda: 0.0)
        with model.serving():
            trainer.start()
            assert asked.wait(WAIT)
            started = time.perf_counter()
            trainer.stop(timeout=WAIT)
            assert time.perf_counter() - started < 1.0
        assert not trainer.running
        assert trainer.replays_applied == 0
