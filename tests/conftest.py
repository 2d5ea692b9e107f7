"""Shared fixtures for the test suite."""

import threading

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.datasets.schema import QoSMatrix
from repro.observability import get_registry


def wal_counts() -> "tuple[int, float]":
    """``(fsyncs, entries appended)`` by every write-ahead log of this
    process so far: the ``qos_wal_fsync_seconds`` count and
    ``qos_wal_appends_total``.  Tests diff two readings; a plain function,
    not a fixture, so hypothesis state machines can call it too."""
    registry = get_registry()
    return (
        registry.histogram("qos_wal_fsync_seconds").count,
        registry.counter("qos_wal_appends_total").value,
    )


@pytest.fixture
def paper_example_matrix() -> QoSMatrix:
    """The observed QoS matrix of the paper's Fig. 4(b).

    4 users x 5 services; blank cells in the figure are unobserved.
    """
    values = np.array(
        [
            [1.4, 0.0, 1.1, 0.7, 0.0],
            [0.0, 0.3, 0.0, 0.7, 0.5],
            [0.4, 0.3, 0.0, 0.0, 0.3],
            [1.4, 0.0, 1.2, 0.0, 0.8],
        ]
    )
    mask = np.array(
        [
            [True, False, True, True, False],
            [False, True, False, True, True],
            [True, True, False, False, True],
            [True, False, True, False, True],
        ]
    )
    return QoSMatrix(values=values, mask=mask)


@pytest.fixture(scope="session")
def small_dataset():
    """A small multi-slice RT dataset shared across tests (read-only)."""
    return generate_dataset(n_users=30, n_services=60, n_slices=4, seed=123)


@pytest.fixture(scope="session")
def small_tp_dataset():
    """A small multi-slice TP dataset shared across tests (read-only)."""
    return generate_dataset(
        n_users=30, n_services=60, n_slices=4, seed=123, attribute="throughput"
    )


@pytest.fixture
def rank_one_matrix() -> QoSMatrix:
    """A noiseless rank-1 positive matrix — easy mode for factor models."""
    rng = np.random.default_rng(0)
    row = rng.uniform(0.5, 2.0, size=12)
    col = rng.uniform(0.5, 2.0, size=20)
    return QoSMatrix.dense(np.outer(row, col))


@pytest.fixture
def called():
    """``called(obj, name, times=1)`` wraps ``obj.name`` on the instance and
    returns an event that is set once it has been called ``times`` more
    times — how a test waits (bounded) for another thread to get somewhere
    instead of sleeping."""

    def wrap(obj, name, times=1):
        original = getattr(obj, name)
        reached = threading.Event()
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(None)
            if len(calls) >= times:
                reached.set()
            return original(*args, **kwargs)

        setattr(obj, name, wrapper)
        return reached

    return wrap


class HandMovedClock:
    """A monotonic clock that only moves when the test says so."""

    def __init__(self, now):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    """The idle rule's clock (``repro.core.daemon._monotonic``: what
    ``idle_for()`` and the replay-lag gauge read), taken over at its
    present reading and moved by ``clock.advance(seconds)`` from then on."""
    from repro.core import daemon

    hand_moved = HandMovedClock(daemon._monotonic())
    monkeypatch.setattr(daemon, "_monotonic", hand_moved)
    return hand_moved
