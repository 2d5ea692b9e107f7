"""The drill runner itself: its oracle can fail, its verdict does not depend
on the disk, and its registry is complete.

The drills' *passing* runs live next to the layer they drill
(``test_recovery``, ``test_replication``, ``test_lifecycle``); this file
covers what those cannot: that a divergence is actually reported, part by
part; that the failover verdict holds when every fsync takes 10 ms; and the
one scenario no other test runs (``migration-live``).
"""

import copy
import json
import os
import time

import numpy as np
import pytest

import repro.simulation as simulation
from repro.simulation import (
    NOT_IN_ALL,
    SCENARIOS,
    DrillReport,
    Fleet,
    diff_checkpoints,
    diff_state,
    feed,
    run_failover,
    run_migration_live,
    snapshot,
)
from repro.core import serialization
from repro.simulation import drills
from repro.server.wal import CheckpointStore

NAN = float("nan")


def durable_run(data_dir: str) -> dict:
    """A gated, durable server with a hot tier small enough to spill, fed
    40 keyed records (one key sent twice, so the error stream carries a
    NaN): its snapshot, with the final checkpoint left in ``data_dir``."""
    records = drills.uniform_stream(40, seed=4)
    keys = [f"k:{index}" for index in range(len(records))]
    with Fleet(
        rng=4, gate=True, lifecycle=drills.SMALL_TIER, checkpoint_interval=10
    ) as fleet:
        server = fleet.start("node", data_dir=data_dir)
        client = fleet.client(server.address)
        errors = feed(client, records + records[-1:], keys + keys[-1:])
        state = snapshot(server, errors)
    return state


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    return durable_run(str(tmp_path_factory.mktemp("oracle")))


def flip_one_bit(matrix: np.ndarray) -> None:
    matrix.view(np.uint64)[0, 0] ^= 1


def rewrite_checkpoint(data_dir: str, damage) -> None:
    """Apply ``damage(members)`` to the archive ``data_dir`` ended with."""
    path = CheckpointStore(data_dir).path
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    damage(members)
    serialization._write_archive(path, members)


# One entry per part of the oracle: how to damage a snapshot in that part
# alone.  A part whose comparison is stubbed to "equal" fails its row.
PERTURB = {
    "updates_applied": lambda s: s.update(updates_applied=s["updates_applied"] + 1),
    "stored_samples": lambda s: s.update(stored_samples=s["stored_samples"] - 1),
    "user_factors": lambda s: flip_one_bit(s["user_factors"]),
    "service_factors": lambda s: flip_one_bit(s["service_factors"]),
    "gate": lambda s: s["gate"]["counts"].update(
        admitted=s["gate"]["counts"]["admitted"] + 1
    ),
    "ledger": lambda s: s["ledger"]["keys"].pop(),
    "drift": lambda s: s["drift"].update(window=s["drift"]["window"] + 1),
    "lifecycle": lambda s: s["lifecycle"]["users"].pop(),
    "spill": lambda s: s["spill"]["rows"].pop(),
    "errors": lambda s: s["errors"].pop(),
}


class TestOracleCanFail:
    def test_every_part_has_a_perturbation(self):
        assert set(PERTURB) == set(drills.STATE_PARTS)

    def test_identical_states_match_nan_included(self, state):
        ours, theirs = copy.deepcopy(state), copy.deepcopy(state)
        assert any(error != error for error in state["errors"])  # the resend
        for side in (ours, theirs):
            side["drift"] = {"window": 0, "mae": NAN, "mre": NAN, "npre": NAN}
        assert diff_state(ours, theirs) == []

    @pytest.mark.parametrize("part", drills.STATE_PARTS)
    def test_one_damaged_part_is_one_named_mismatch(self, state, part):
        damaged = copy.deepcopy(state)
        PERTURB[part](damaged)
        mismatches = diff_state(state, damaged)
        assert len(mismatches) == 1, mismatches
        assert mismatches[0].startswith(f"{part}: ")
        assert diff_state(state, damaged, ignore=(part,)) == []

    def test_shape_change_is_reported_as_shape(self, state):
        damaged = copy.deepcopy(state)
        damaged["user_factors"] = damaged["user_factors"][:-1]
        (mismatch,) = diff_state(state, damaged)
        assert mismatch.startswith("user_factors: shape")

    def test_checkpoints(self, tmp_path):
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        durable_run(dir_a)
        durable_run(dir_b)
        mismatches, (digest_a, digest_b) = diff_checkpoints(dir_a, dir_b)
        assert mismatches == [] and digest_a == digest_b

        # Alter one member of one archive: a single factor bit.
        rewrite_checkpoint(dir_b, lambda members: flip_one_bit(members["user_factors"]))
        mismatches, (digest_a, digest_b) = diff_checkpoints(dir_a, dir_b)
        assert len(mismatches) == 1 and mismatches[0].startswith("checkpoint: ")
        assert digest_a != digest_b

    def test_checkpoint_extras_can_be_ignored_by_name_only(self, tmp_path):
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        durable_run(dir_a)
        durable_run(dir_b)

        def bump_wal_seq(members: dict) -> None:
            extra = serialization._read_json(members["extra_json"])
            extra["wal_seq"] += 1
            members["extra_json"] = serialization._json_member(extra)

        rewrite_checkpoint(dir_b, bump_wal_seq)
        assert len(diff_checkpoints(dir_a, dir_b)[0]) == 1
        assert len(diff_checkpoints(dir_a, dir_b, ignore_extra=("lifecycle",))[0]) == 1
        assert diff_checkpoints(dir_a, dir_b, ignore_extra=("wal_seq",))[0] == []

    def test_report_turns_a_mismatch_into_a_failed_verdict(self):
        report = DrillReport.begin("probe", records=3)
        report.expect(True, "never shown")
        assert report.matches and "mismatches" not in report.detail
        report.add(["factors: off by one"], prefix="shard-0: ")
        assert not report.matches
        assert "probe: DIVERGES" in report.summary()
        assert "MISMATCH shard-0: factors: off by one" in report.summary()


class TestSpillPart:
    """The oracle reads the spill file's rows, not only who is spilled."""

    @pytest.fixture
    def server(self, tmp_path):
        with Fleet(rng=4, lifecycle=drills.SMALL_TIER) as fleet:
            server = fleet.start("node", data_dir=str(tmp_path), serve=False)
            for record in drills.uniform_stream(40, seed=4):
                server._handle_observation(
                    {"timestamp": record.timestamp, "user_id": record.user_id,
                     "service_id": record.service_id, "value": record.value}
                )
            yield server

    def test_rows_are_keyed_digests_of_every_spilled_entity(self, server):
        spill = snapshot(server)["spill"]
        tiers = snapshot(server)["lifecycle"]
        assert spill["strays"] == []
        assert [row[:2] for row in spill["rows"]] == (
            [["service", ext] for ext in tiers["spilled_services"]]
            + [["user", ext] for ext in tiers["spilled_users"]]
        ) != []
        assert all(len(digest) == 64 for __, __, digest in spill["rows"])
        with Fleet() as flat:
            assert snapshot(flat.start("flat", serve=False))["spill"] is None

    def test_a_lost_row_is_a_mismatch_and_a_stray(self, server):
        before = snapshot(server)
        kind, ext, __ = before["spill"]["rows"][0]
        server._spill.delete(kind, ext)  # the lifecycle part still matches
        mismatches = diff_state(before, snapshot(server))
        assert len(mismatches) == 2 and mismatches[0].startswith("spill: differs")
        assert mismatches[1] == f"spill: row present iff spilled fails for {[[kind, ext]]}"
        # Two servers that lost the same row are equal — and still wrong.
        assert diff_state(snapshot(server), snapshot(server)) == mismatches[1:] * 2

    def test_a_stale_payload_is_a_mismatch(self, server):
        before = snapshot(server)
        kind, ext, __ = before["spill"]["rows"][-1]
        payload = json.loads(server._spill.get(kind, ext))
        payload["err"] += 1e-9
        server._spill.put(kind, ext, json.dumps(payload, sort_keys=True).encode())
        (mismatch,) = diff_state(before, snapshot(server))
        assert mismatch.startswith("spill: differs at ['rows']")


class TestFailoverOnASlowDisk:
    def test_verdict_does_not_depend_on_fsync_latency(self, tmp_path, monkeypatch):
        """With 10 ms fsyncs the partition phase used to outlast the
        auto-promote window, so the standby promoted mid-partition and the
        drill diverged; the partition now heals at half the window."""
        real_fsync = os.fsync

        def slow_fsync(fd):
            time.sleep(0.010)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        report = run_failover(
            drills.uniform_stream(90, seed=1),
            kill_after=70,
            primary_dir=str(tmp_path / "primary"),
            standby_dir=str(tmp_path / "standby"),
            baseline_dir=str(tmp_path / "baseline"),
            epoch_store=str(tmp_path / "epoch.json"),
            rng=1,
            server_kwargs={"gate": True, "checkpoint_interval": 25},
        )
        assert report.matches, report.summary()
        assert report.metrics_ok
        # 35 records at >= 10 ms each cannot fit in half the 0.25 s window:
        # the heal came first, and the standby was still a standby at the kill.
        assert report.detail["lag_during_partition"] < 35
        assert report.detail["promoted_epoch"] == 2


class TestMigrationLive:
    def test_rebalance_under_reads_leaves_the_error_stream_untouched(self, tmp_path):
        report = run_migration_live(str(tmp_path), rng=0)
        assert report.matches, report.summary()
        assert report.metrics_ok
        assert report.detail["migration"]["entities_moved"] > 0
        assert report.detail["users_rehomed"] > 0
        assert report.detail["reads_during_migration"] > 0


class TestRegistry:
    def test_every_scenario_is_exported_and_documented(self):
        exported = {name for name in simulation.__all__ if name.startswith("run_")}
        assert exported - {"run_flood"} == {
            f"run_{name.replace('-', '_')}" for name in SCENARIOS
        }
        for name in SCENARIOS:
            assert f"``{name}``" in drills.__doc__
            assert callable(getattr(simulation, f"run_{name.replace('-', '_')}"))
        assert NOT_IN_ALL == {"memory-cap"}

    def test_importing_the_package_does_not_load_the_serving_stack(self):
        import subprocess
        import sys

        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.simulation.faults, repro.simulation as s; "
                "s.FaultInjector; print('repro.server.app' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert loaded.stdout.strip() == "False"
