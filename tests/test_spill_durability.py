"""The spill file commits with the checkpoint — and is never behind it.

``TieredAMF`` writes demotions and revives through one open sqlite
transaction; ``PredictionServer._checkpoint_locked`` commits it *before*
the checkpoint archive is published.  Recovery reads from the file only the
rows of entities spilled at the checkpoint and untouched since, so the rule
to prove is: whenever the process dies, what is on disk recovers to the
state (factors, tiers, ledger, spill rows) of a process that never died.

* kill everywhere — ``kill()`` after every observe of two checkpoint cycles,
  and a crash injected at the points between observes (revives applied but
  the observe not, mid demotion batch, either side of the checkpoint's
  spill commit);
* what ``kill()`` leaves — the file as of the last checkpoint, which is
  what SIGKILL leaves and not what ``close()`` would have flushed;
* commit-then-publish — a crash inside the checkpoint's spill commit leaves
  the previous checkpoint published;
* a real process, really SIGKILLed, over a hot rollback journal.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.lifecycle import LifecycleConfig, SpillStore
from repro.server import PredictionClient, PredictionServer
from repro.server.wal import CheckpointStore
from repro.simulation.drills import diff_state, snapshot

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
INTERVAL = 32
ARGS = dict(
    rng=0,
    background_replay=False,
    binary_port=None,
    checkpoint_interval=INTERVAL,
    lifecycle=LifecycleConfig(hot_users=8, hot_services=12),
)


def churn(n: int, seed: int = 0) -> "list[dict]":
    """Keyed observes where half the users are new and half come back from
    far enough ago to have been demoted: most observes revive someone."""
    rng = np.random.default_rng(seed)
    bodies, known = [], 0
    for k in range(n):
        if known == 0 or rng.random() < 0.5:
            user, known = known, known + 1
        else:
            user = max(known - 1 - int(rng.zipf(1.3)), 0)
        bodies.append(
            {
                "timestamp": float(k),
                "user_id": user,
                "service_id": int(rng.integers(30)),
                "value": float(rng.uniform(0.05, 5.0)),
                "idempotency_key": f"k:{k}",
            }
        )
    return bodies


STREAM = churn(2 * INTERVAL + 6)


def feed(server, bodies) -> None:
    for body in bodies:
        server._handle_observation(body)


def file_rows(data_dir) -> list:
    """``spill.sqlite`` as a fresh connection finds it: what a process that
    died left behind, its rollback journal played back."""
    conn = sqlite3.connect(os.path.join(str(data_dir), "spill.sqlite"))
    try:
        return conn.execute(
            "SELECT kind, ext_id, payload FROM entities ORDER BY kind, ext_id"
        ).fetchall()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    server = PredictionServer(data_dir=str(tmp_path_factory.mktemp("whole")), **ARGS)
    feed(server, STREAM)
    state = snapshot(server)
    server.kill()
    assert state["spill"]["rows"] and state["lifecycle"]["counters"]["revived_users"]
    return state


@pytest.fixture
def no_wal_fsync(monkeypatch):
    """An in-process kill loses nothing the OS was handed, so these tests
    need not wait for the disk (sqlite's own fsyncs are not Python's)."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)


class _Crash(BaseException):
    """The process dies here: not an Exception, so nothing handles it."""


class TestKillEverywhere:
    def test_kill_after_every_observe_of_two_checkpoint_cycles(
        self, tmp_path, uninterrupted, no_wal_fsync
    ):
        for position in range(1, len(STREAM)):
            data_dir = str(tmp_path / f"at-{position}")
            server = PredictionServer(data_dir=data_dir, **ARGS)
            feed(server, STREAM[:position])
            server.kill()
            restarted = PredictionServer(data_dir=data_dir, **ARGS)
            try:
                feed(restarted, STREAM[position:])
                diverged = diff_state(uninterrupted, snapshot(restarted), ("drift",))
                assert diverged == [], (position, diverged)
            finally:
                restarted.kill()

    @staticmethod
    def _crash_in(monkeypatch, owner, name, when, after: bool = False):
        """Make the ``when``-th call (from 1) of ``owner.name`` the last
        thing the process does — before the call's effect, or ``after``."""
        real, calls = getattr(owner, name), [0]

        def dying(*args, **kwargs):
            calls[0] += 1
            if calls[0] == when and not after:
                raise _Crash
            result = real(*args, **kwargs)
            if calls[0] == when:
                raise _Crash
            return result

        monkeypatch.setattr(owner, name, dying)

    @pytest.mark.parametrize(
        "owner, name, when, after",
        [
            # Revives applied, the observe of their group logged, not applied.
            (PredictionServer, "_apply_live", 25, False),
            (PredictionServer, "_apply_live", 45, False),
            # Mid demotion batch: some rows of it written, some not.
            (SpillStore, "put", 2, False),
            (SpillStore, "put", 45, False),
            # The checkpoint: before its spill commit, between commit and
            # publish (file ahead of the old checkpoint), after publish.
            (SpillStore, "commit", 2, False),
            (SpillStore, "commit", 2, True),
            (CheckpointStore, "save", 2, True),
        ],
    )
    def test_crash_inside_an_observe(
        self, tmp_path, monkeypatch, uninterrupted, no_wal_fsync, owner, name, when, after
    ):
        data_dir = str(tmp_path)
        server = PredictionServer(data_dir=data_dir, **ARGS)
        with monkeypatch.context() as patch:
            self._crash_in(patch, owner, name, when, after)
            position = 0
            with pytest.raises(_Crash):
                for position, body in enumerate(STREAM):
                    server._handle_observation(body)
        server.kill()
        restarted = PredictionServer(data_dir=data_dir, **ARGS)
        try:
            # The client never got a reply, so it sends the observe again;
            # if the log had it, the key makes that a no-op.
            feed(restarted, STREAM[position:])
            diverged = diff_state(uninterrupted, snapshot(restarted), ("drift",))
            assert diverged == [], diverged
        finally:
            restarted.kill()


class TestWhatKillLeaves:
    def test_the_file_as_of_the_last_checkpoint(self, tmp_path):
        """Demotions and revives after the checkpoint are in the live view
        only; ``kill()`` leaves what SIGKILL leaves — the file as of the
        checkpoint — where ``close()`` would have flushed the live view."""
        server = PredictionServer(data_dir=str(tmp_path), **ARGS)
        feed(server, STREAM[:INTERVAL])
        assert server._checkpoints_written == 1
        at_checkpoint = server._spill.rows()
        assert at_checkpoint and file_rows(tmp_path) == at_checkpoint

        feed(server, STREAM[INTERVAL : INTERVAL + 15])
        assert server._checkpoints_written == 1
        live = server._spill.rows()
        assert live != at_checkpoint  # the tail demoted and revived
        assert file_rows(tmp_path) == at_checkpoint  # and none of it is durable
        server.kill()
        assert file_rows(tmp_path) == at_checkpoint

        restarted = PredictionServer(data_dir=str(tmp_path), **ARGS)
        assert restarted.recovery["wal_replayed"] > 0
        assert restarted._spill.rows() == live  # replay rewrote the tail's rows
        restarted.stop()  # a graceful stop checkpoints, so commits
        assert file_rows(tmp_path) == live

    def test_a_row_demoted_before_the_checkpoint_survives_the_kill(self, tmp_path):
        """The one thing recovery reads from the file: an entity spilled at
        the checkpoint and untouched since is revived from its row."""
        server = PredictionServer(data_dir=str(tmp_path), **ARGS)
        feed(server, STREAM[:INTERVAL])
        cold = server.model.with_model(lambda m: sorted(m._spilled_users))[0]
        expected = server._spill.get("user", cold)
        server.kill()
        restarted = PredictionServer(data_dir=str(tmp_path), **ARGS)
        try:
            assert restarted.recovery["wal_replayed"] == 0
            assert restarted._spill.get("user", cold) == expected
            known_service = STREAM[INTERVAL - 1]["service_id"]
            assert restarted._predict_one(cold, known_service)["source"] == "model"
        finally:
            restarted.kill()

    def test_a_memory_store_holds_no_open_transaction(self):
        """No checkpoint ever commits a ``:memory:`` store, so it must not
        grow one unbounded transaction."""
        store = SpillStore(":memory:")
        store.put("user", 1, b"x")
        assert not store._conn.in_transaction
        store.close()


class TestCommitThenPublish:
    def test_a_crash_inside_the_spill_commit_publishes_nothing(
        self, tmp_path, monkeypatch
    ):
        server = PredictionServer(data_dir=str(tmp_path), **ARGS)
        feed(server, STREAM[:INTERVAL])
        first = CheckpointStore(str(tmp_path)).load_full()[1]
        assert first == server.wal_last_seq

        def dying_commit(self):
            raise _Crash

        with monkeypatch.context() as patch:
            patch.setattr(SpillStore, "commit", dying_commit)
            with pytest.raises(_Crash):
                feed(server, STREAM[INTERVAL:])
        assert server._observations_since_checkpoint == INTERVAL  # it was due
        server.kill()
        assert CheckpointStore(str(tmp_path)).load_full()[1] == first


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
class TestRealSigkill:
    def test_a_sigkilled_shard_answers_like_a_twin_that_never_died(self, tmp_path):
        interval, sent = 30, 44
        bodies = churn(sent, seed=3)
        flags = ["--hot-users", "4", "--hot-services", "6",
                 "--checkpoint-interval", str(interval), "--binary-port", "-1"]

        twin = PredictionServer(
            rng=0, background_replay=False, binary_port=None,
            lifecycle=LifecycleConfig(hot_users=4, hot_services=6),
        )
        feed(twin, bodies[:interval])
        at_checkpoint = twin.model.with_model(lambda m: set(m._spilled_users))
        feed(twin, bodies[interval:])
        at_kill = twin.model.with_model(lambda m: set(m._spilled_users))
        touched = {body["user_id"] for body in bodies[interval:]}
        # Spilled at the checkpoint and untouched since: read from the file.
        old = min((at_checkpoint & at_kill) - touched)
        # Demoted after it: its row was rolled back, then replayed.
        new = min(at_kill - at_checkpoint)
        service = bodies[-1]["service_id"]  # just observed, so known

        def shard():
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cluster.shard", "--name", "s",
                 "--data-dir", str(tmp_path), *flags],
                stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=SOURCE_ROOT),
            )
            ready = json.loads(process.stdout.readline())
            return process, PredictionClient(tuple(ready["address"]), retries=0)

        process, client = shard()
        try:
            for body in bodies:
                client.report_observation(
                    body["user_id"], body["service_id"], body["value"],
                    body["timestamp"], idempotency_key=body["idempotency_key"],
                )
            assert os.path.exists(tmp_path / "spill.sqlite-journal")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
            client.close()
            assert os.path.exists(tmp_path / "spill.sqlite-journal")  # hot

            process, client = shard()
            for user in (old, new):
                expected = twin._predict_one(user, service)
                assert expected["source"] == "model"
                answer = client.predict_detailed(user, service)
                assert answer["prediction"] == expected["prediction"]
                assert answer["source"] == "model"
            status = client.status()["durability"]["recovery"]
            assert status["checkpoint_seq"] > 0 and status["wal_replayed"] > 0
        finally:
            client.close()
            process.kill()
            process.wait(timeout=10)
            process.stdout.close()
            twin.kill()
