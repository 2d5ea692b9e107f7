"""Tests for the write-ahead observation log and the checkpoint store."""

import contextlib
import errno
import json
import os
import threading
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AdaptiveMatrixFactorization, AMFConfig
from repro.datasets.schema import QoSRecord
from repro.server import (
    PredictionClient,
    PredictionServer,
    RetryableServiceError,
)
from repro.server import wal as wal_module
from repro.server.wal import (
    CheckpointStore,
    WalAppendError,
    WriteAheadLog,
    _entry_body,
    entry_from_wire,
    entry_to_wire,
)


def record(k, value=1.0):
    return QoSRecord(timestamp=float(k), user_id=k % 5, service_id=k % 7, value=value)


def seqs(entries):
    return [entry[1] for entry in entries]


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync=False) as wal:
            for k in range(20):
                assert wal.append(record(k, value=0.5 + k)) == k + 1
            assert wal.last_seq == 20
        reader = WriteAheadLog(str(tmp_path), fsync=False)
        entries = list(reader.replay_entries())
        assert [tag for tag, __, __, __ in entries] == ["obs"] * 20
        assert seqs(entries) == list(range(1, 21))
        assert entries[3][2].value == 0.5 + 3
        assert entries[3][2].user_id == 3 % 5

    def test_replay_after_seq_skips_prefix(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        for k in range(10):
            wal.append(record(k))
        assert seqs(wal.replay_entries(after_seq=7)) == [8, 9, 10]

    def test_empty_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        assert wal.last_seq == 0
        assert list(wal.replay_entries()) == []

    def test_sequence_continues_across_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        for k in range(5):
            wal.append(record(k))
        wal.close()
        reopened = WriteAheadLog(str(tmp_path), fsync=False)
        assert reopened.last_seq == 5
        assert reopened.append(record(5)) == 6

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        wal.close()
        assert not wal.writable
        with pytest.raises(ValueError, match="closed"):
            wal.append(record(0))


class TestSegments:
    def test_rotation(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_records=10, fsync=False)
        for k in range(35):
            wal.append(record(k))
        assert wal.segment_count() == 4
        assert len(list(wal.replay_entries())) == 35

    def test_prune_keeps_uncovered_and_active(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_records=10, fsync=False)
        for k in range(35):
            wal.append(record(k))
        removed = wal.prune(up_to_seq=25)
        assert removed == 2  # segments [1..10] and [11..20]; [21..30] has 26..30
        assert seqs(wal.replay_entries(after_seq=25)) == list(range(26, 36))

    def test_prune_never_deletes_active_segment(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_records=10, fsync=False)
        for k in range(10):
            wal.append(record(k))
        assert wal.prune(up_to_seq=10) == 0
        assert wal.segment_count() == 1

    def test_invalid_segment_size(self, tmp_path):
        with pytest.raises(ValueError, match="segment_max_records"):
            WriteAheadLog(str(tmp_path), segment_max_records=0)


class TestTornTail:
    def _torn_log(self, tmp_path, garbage: bytes):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        for k in range(8):
            wal.append(record(k))
        wal.close()
        segments = [n for n in os.listdir(tmp_path) if n.startswith("wal-")]
        with open(os.path.join(tmp_path, segments[-1]), "ab") as handle:
            handle.write(garbage)
        return WriteAheadLog(str(tmp_path), fsync=False)

    def test_partial_final_line_is_ignored_and_counted(self, tmp_path):
        reopened = self._torn_log(tmp_path, b'{"seq": 9, "t": 1.0, "u"')
        assert reopened.last_seq == 8
        assert reopened.torn_lines >= 1
        assert len(list(reopened.replay_entries())) == 8

    def test_binary_garbage_tail(self, tmp_path):
        reopened = self._torn_log(tmp_path, b"\x00\xff\x00garbage\n")
        assert reopened.last_seq == 8
        assert reopened.append(record(8)) == 9

    def test_appends_continue_after_torn_tail(self, tmp_path):
        """New records after a tear must still replay: reopening cuts the
        segment at the end of its last whole line, so the write path neither
        glues onto the tear nor hands out a seq twice."""
        reopened = self._torn_log(tmp_path, b"not json at all\n")
        reopened.append(record(8))
        fresh = WriteAheadLog(str(tmp_path), fsync=False)
        assert fresh.last_seq == 9  # the tear is gone; seq 9 is whole
        assert seqs(fresh.replay_entries()) == list(range(1, 10))
        assert fresh.torn_lines == 0

    def test_appends_after_a_cut_line_are_not_glued_onto_it(self, tmp_path):
        """The crash that acknowledged nothing: a line cut mid-record.  The
        entries appended after the restart were acknowledged, so the next
        restart must replay them, and hand out none of their seqs again."""
        reopened = self._torn_log(tmp_path, b'{"seq": 9, "t": 8.0, "u"')
        assert (reopened.last_seq, reopened.torn_lines) == (8, 1)
        assert [reopened.append(record(k)) for k in (8, 9)] == [9, 10]
        reopened.close()
        fresh = WriteAheadLog(str(tmp_path), fsync=False)
        assert (fresh.last_seq, fresh.torn_lines) == (10, 0)
        assert seqs(fresh.replay_entries()) == list(range(1, 11))
        assert [entry[2] for entry in fresh.replay_entries()][8:] == [
            record(8), record(9)
        ]


class _FillingDisk:
    """Stands in for ``os.pwrite``, the log's one write call, on a disk that
    fills up: while ``full`` a write gets at most ``room`` more bytes
    through (a short write) and then fails like a full disk."""

    def __init__(self, real):
        self.real = real
        self.full = False
        self.room = 0

    def __call__(self, fd, data, offset):
        if not self.full:
            return self.real(fd, data, offset)
        if self.room:
            written = self.real(fd, bytes(data[: self.room]), offset)
            self.room -= written
            return written
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def disk(monkeypatch):
    filling = _FillingDisk(os.pwrite)
    monkeypatch.setattr(os, "pwrite", filling)
    return filling


class TestAppendFailure:
    def test_os_error_surfaces_as_wal_append_error(self, tmp_path, disk):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        for k in range(3):
            wal.append(record(k))
        disk.full = True
        with pytest.raises(WalAppendError) as excinfo:
            wal.append(record(3))
        assert excinfo.value.errno == errno.ENOSPC
        assert wal.last_seq == 3  # the failed append assigned no sequence
        assert not wal.writable
        assert "No space left" in wal.append_failure

    def test_failure_is_sticky_even_if_disk_recovers(self, tmp_path, disk):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        wal.append(record(0))
        disk.full = True
        with pytest.raises(WalAppendError):
            wal.append(record(1))
        disk.full = False  # "space freed" — a partial line may
        with pytest.raises(WalAppendError, match="failed state"):
            wal.append(record(1))  # still sit at the tail, so stay frozen

    def test_committed_prefix_survives_a_failed_append(self, tmp_path, disk):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        for k in range(5):
            wal.append(record(k, value=2.0 + k))
        disk.full = True
        with pytest.raises(WalAppendError):
            wal.append(record(5))
        reopened = WriteAheadLog(str(tmp_path), fsync=False)
        assert reopened.last_seq == 5
        assert seqs(reopened.replay_entries()) == [1, 2, 3, 4, 5]

    def test_a_refused_allocation_is_a_sticky_append_error(
        self, tmp_path, monkeypatch
    ):
        """``ENOSPC`` from growing the segment is a failed append like any
        other: nothing counted, nothing written, the log frozen."""
        wal = WriteAheadLog(str(tmp_path))

        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", no_space, raising=False)
        with pytest.raises(WalAppendError) as excinfo:
            wal.append(record(0))
        assert excinfo.value.errno == errno.ENOSPC
        assert (wal.last_seq, wal.appended, wal.writable) == (0, 0, False)
        monkeypatch.undo()
        with pytest.raises(WalAppendError, match="failed state"):
            wal.append(record(0))
        wal.close()
        assert _directory(tmp_path) == {"wal-000000000001.jsonl": b""}


class TestReadCommitted:
    def test_windows_by_after_seq_and_limit(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_records=4, fsync=False)
        for k in range(10):
            wal.append(record(k), key=f"k:{k}")
        batch = wal.read_committed_entries(after_seq=3, limit=4)
        assert seqs(batch) == [4, 5, 6, 7]
        assert [key for __, __, __, key in batch] == ["k:3", "k:4", "k:5", "k:6"]
        assert wal.read_committed_entries(after_seq=10) == []

    def test_keyless_records_ship_none(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        wal.append(record(0))
        [(tag, seq, shipped, key)] = wal.read_committed_entries()
        assert (tag, seq) == ("obs", 1)
        assert key is None
        assert shipped.value == record(0).value

    def test_limit_must_be_positive(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        with pytest.raises(ValueError, match="limit"):
            wal.read_committed_entries(limit=0)


class TestEntries:
    """The log's own entry type: ``("obs", seq, record, key)`` and
    ``("ev", seq, kind, data)`` on disk, in memory and on the wire."""

    EVENT = ("ev", None, "pressure", {"hu": 3, "hs": 4, "level": "tighten"})

    def _mixed_log(self, directory):
        wal = WriteAheadLog(str(directory), segment_max_records=3, fsync=False)
        assert wal.append(record(0), key="k:0") == 1
        assert wal.append_entry(self.EVENT) == 2
        assert wal.append_entry(("obs", None, record(1, value=2.5), None)) == 3
        assert wal.append_event("revive_user", {"id": 7, "p": {"row": [0.5]}}) == 4
        return wal

    def test_both_tags_replay_in_their_logged_interleaving(self, tmp_path):
        self._mixed_log(tmp_path).close()
        entries = list(WriteAheadLog(str(tmp_path), fsync=False).replay_entries())
        assert entries == [
            ("obs", 1, record(0), "k:0"),
            ("ev", 2, "pressure", self.EVENT[3]),
            ("obs", 3, record(1, value=2.5), None),
            ("ev", 4, "revive_user", {"id": 7, "p": {"row": [0.5]}}),
        ]

    def test_event_data_must_be_an_object(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        with pytest.raises(TypeError, match="dict"):
            wal.append_event("pressure", [3, 4])
        assert wal.last_seq == 0

    def test_a_log_copied_entry_by_entry_is_byte_identical(self, tmp_path):
        """What a standby relies on: the entry, not the caller, fixes the bytes."""
        source = self._mixed_log(tmp_path / "a")
        copy = WriteAheadLog(str(tmp_path / "b"), segment_max_records=3, fsync=False)
        for entry in source.read_committed_entries():
            wire = json.loads(json.dumps(entry_to_wire(entry)))
            assert copy.append_entry(entry_from_wire(wire)) == entry[1]
        source.close()
        copy.close()
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b")) and len(names) == 2
        for name in names:
            theirs = (tmp_path / "b" / name).read_bytes()
            assert (tmp_path / "a" / name).read_bytes() == theirs

    def test_wire_forms(self):
        assert entry_to_wire(("obs", 9, record(3, value=0.25), "k")) == [
            9, 3.0, 3, 3, 0.25, "k"
        ]
        assert entry_to_wire(("ev", 10, "pressure", {"hu": 2})) == [
            10, {"ev": "pressure", "d": {"hu": 2}}
        ]
        assert entry_from_wire([9, 3.0, 3, 3, 0.25, None]) == (
            "obs", 9, record(3, value=0.25), None
        )


def _directory(path) -> dict:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


class TestCommitGroups:
    """``append_entries``: the lines of N single appends under one fsync."""

    GROUP = [
        ("ev", None, "revive_user", {"id": 7, "p": {"row": [0.5], "err": 1.0}}),
        ("ev", None, "revive_service", {"id": 2, "p": {"row": [0.25], "err": 1.0}}),
        ("obs", None, record(1, value=2.5), "k:1"),
    ]

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """One item per ``os.fsync`` made while the test runs."""
        calls, real = [], os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_a_group_is_its_members_appended_one_by_one(self, tmp_path, fsyncs):
        singles = WriteAheadLog(str(tmp_path / "singles"))
        singles.append(record(0))
        assert [singles.append_entry(entry) for entry in self.GROUP] == [2, 3, 4]
        assert len(fsyncs) == 4
        grouped = WriteAheadLog(str(tmp_path / "grouped"))
        grouped.append(record(0))
        assert grouped.append_entries(self.GROUP) == [2, 3, 4]
        assert len(fsyncs) == 4 + 2  # the whole group cost one
        assert (grouped.last_seq, grouped.appended) == (4, 4)
        assert grouped.append_entries([]) == [] and len(fsyncs) == 6
        singles.close()
        grouped.close()
        assert _directory(tmp_path / "grouped") == _directory(tmp_path / "singles")
        assert list(WriteAheadLog(str(tmp_path / "grouped")).replay_entries())[1:] == [
            (tag, seq, first, second)
            for seq, (tag, __, first, second) in enumerate(self.GROUP, start=2)
        ]

    @pytest.mark.parametrize("before", [0, 1, 2, 3])
    def test_a_group_straddling_a_rotation_leaves_both_segments_whole(
        self, tmp_path, fsyncs, before
    ):
        """Segment boundaries fall where single appends put them, and the
        segment a group leaves is fsync'd before it is closed."""
        logs = {}
        for name in ("singles", "grouped"):
            logs[name] = wal = WriteAheadLog(str(tmp_path / name), segment_max_records=3)
            for k in range(before):
                wal.append(record(k))
        for entry in self.GROUP:
            logs["singles"].append_entry(entry)
        del fsyncs[:]
        logs["grouped"].append_entries(self.GROUP)
        assert len(fsyncs) == (1 if before in (0, 3) else 2)
        for wal in logs.values():
            wal.close()
        files = _directory(tmp_path / "grouped")
        assert files == _directory(tmp_path / "singles")
        assert len(files) == (1 if before == 0 else 2)
        for data in files.values():
            assert data.endswith(b"\n") and 1 <= data.count(b"\n") <= 3

    def test_a_failed_fsync_counts_none_of_the_group(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(record(0))

        def failing(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing)
        with pytest.raises(WalAppendError) as excinfo:
            wal.append_entries(self.GROUP)
        assert excinfo.value.errno == errno.EIO
        assert (wal.last_seq, wal.appended) == (1, 1)
        assert not wal.writable and "Input/output" in wal.append_failure
        monkeypatch.undo()
        with pytest.raises(WalAppendError, match="failed state"):
            wal.append(record(1))  # frozen, whatever the disk does next
        # The lines reached the file but were never acknowledged: shipping
        # stops at last_seq.
        assert seqs(wal.read_committed_entries()) == [1]

    def test_a_write_failing_mid_group_counts_none_of_it(self, tmp_path, disk):
        wal = WriteAheadLog(str(tmp_path), fsync=False)
        wal.append(record(0))
        disk.full, disk.room = True, 40  # part of the group's first line fits
        with pytest.raises(WalAppendError):
            wal.append_entries(self.GROUP)
        assert (wal.last_seq, wal.appended) == (1, 1) and not wal.writable

    def test_no_member_is_shipped_before_the_groups_fsync_returns(
        self, tmp_path, monkeypatch
    ):
        """Inside the fsync the group's lines are already in the file (a
        lock-free scan finds them) but ``last_seq`` has not moved and the
        append lock is held: a shipping reader that arrives now waits, and
        what it then reads is the whole group."""
        wal = WriteAheadLog(str(tmp_path))
        wal.append(record(0))
        inside: dict = {}
        shipped: list = []
        arrived = threading.Event()

        def reader():
            arrived.set()
            shipped.extend(seqs(wal.read_committed_entries()))

        thread = threading.Thread(target=reader, daemon=True)
        real = os.fsync

        def hooked(fd):
            inside["on_disk"] = seqs(wal.replay_entries())
            inside["last_seq"] = wal.last_seq
            inside["locked"] = wal._lock.locked()
            thread.start()
            assert arrived.wait(timeout=10)
            inside["shipped_meanwhile"] = list(shipped)
            real(fd)

        monkeypatch.setattr(os, "fsync", hooked)
        assert wal.append_entries(self.GROUP) == [2, 3, 4]
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert inside == {
            "on_disk": [1, 2, 3, 4],
            "last_seq": 1,
            "locked": True,
            "shipped_meanwhile": [],
        }
        assert shipped == [1, 2, 3, 4]


# -- the preallocated writer, as properties ------------------------------------
_RECORDS = st.builds(
    QoSRecord,
    timestamp=st.floats(0.0, 1e6),
    user_id=st.integers(0, 99),
    service_id=st.integers(0, 99),
    value=st.floats(1e-3, 1e4),
)
_KEYS = st.none() | st.text(st.characters(codec="utf-8"), min_size=1, max_size=12)
_OBSERVES = st.tuples(st.just("obs"), st.none(), _RECORDS, _KEYS)
# A revive carries a whole spill payload; padded, it outgrows a small chunk.
_REVIVES = st.builds(
    lambda kind, ident, pad: (
        "ev", None, kind, {"id": ident, "p": {"row": [0.5, -0.25], "pad": "x" * pad}}
    ),
    st.sampled_from(["revive_user", "revive_service"]),
    st.integers(0, 99),
    st.integers(0, 3000),
)
_MIGRATIONS = st.builds(
    lambda mid, seq, ids: (
        "ev", None, "migration_in",
        {"mid": mid, "seq": seq, "entities": [["user", i, {"row": [0.125]}] for i in ids]},
    ),
    st.sampled_from(["m-1", "m-2"]),
    st.integers(1, 9),
    st.lists(st.integers(0, 99), max_size=4),
)
_GROUPS = st.lists(
    st.lists(_OBSERVES | _REVIVES | _MIGRATIONS, min_size=1, max_size=4),
    min_size=1,
    max_size=8,
)
# The real 1 MiB, and chunks small enough that groups straddle them.
_CHUNKS = st.sampled_from([64, 4096, 1 << 20])
_ALLOCATION = pytest.mark.parametrize("call", ["posix_fallocate", "ftruncate"])


def _line(seq: int, entry: tuple) -> bytes:
    return (json.dumps({"seq": seq, **_entry_body(entry)}) + "\n").encode()


def _segment_file(seq: int, segment_max_records: int) -> str:
    """The segment a plain writer puts ``seq`` in (numbered from 1)."""
    return f"wal-{seq - (seq - 1) % segment_max_records:012d}.jsonl"


def _reference(entries, segment_max_records: int) -> dict:
    """The files a plain appending writer (one ``open(..., "a")`` write per
    line, a new segment every ``segment_max_records``) makes of ``entries``."""
    files: dict = {}
    for seq, entry in enumerate(entries, start=1):
        name = _segment_file(seq, segment_max_records)
        files[name] = files.get(name, b"") + _line(seq, entry)
    return files


def _logged(entries) -> list:
    """``entries`` as the log yields them back, numbered from 1."""
    return [
        (tag, seq, first, second)
        for seq, (tag, __, first, second) in enumerate(entries, start=1)
    ]


@contextlib.contextmanager
def _writer(call: str, chunk: int):
    """Patches for one example: the chunk size, and, for ``ftruncate``, no
    ``os.posix_fallocate`` at all."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal_module, "_CHUNK", chunk)
        if call == "ftruncate":
            patch.delattr(os, "posix_fallocate", raising=False)
        yield


class TestPreallocatedSegments:
    """One ``pwrite`` per group into preallocated chunks, and a zero tail that
    nothing reads: judged against a plain appending writer."""

    @_ALLOCATION
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_crash_after_any_group_loses_no_acknowledged_entry(
        self, call, data, tmp_path_factory
    ):
        """Acknowledged groups, then one more whose fsync "never returned",
        damaged on disk as a crash leaves it: cut short at any byte, a range
        of it zeroed, or garbage written after a cut.  Reopen, append,
        reopen: every acknowledged entry replays once, in order, with the
        unacknowledged group's intact whole lines after it; no seq is
        reissued; ``torn_lines`` counts a tear only when one is there; and
        the closed files are the plain writer's."""
        groups, limit = data.draw(_GROUPS), data.draw(st.integers(1, 5))
        crash_at, chunk = data.draw(st.integers(0, len(groups))), data.draw(_CHUNKS)
        acked = [entry for group in groups[:crash_at] for entry in group]
        lost = groups[crash_at] if crash_at < len(groups) else []
        # The lost group's lines in the last segment (those a rotation left
        # behind were fsync'd before it) and where each one ends.
        first, last = len(acked) + 1, len(acked) + len(lost)
        done = max(0, last - (last - 1) % limit - first)
        lengths = [len(_line(seq, entry)) for seq, entry in enumerate(lost, first)]
        ends = [0, *accumulate(lengths[done:])]
        mode = data.draw(st.sampled_from(["cut", "zeros", "garbage"]))
        at = data.draw(st.integers(0, ends[-1]))
        stop = data.draw(st.integers(at, ends[-1])) if mode == "zeros" else ends[-1]
        garbage = b"\xff" + data.draw(st.binary(max_size=30)) if mode == "garbage" else b""
        damaged = at if stop > at or garbage else ends[-1]
        survivors = acked + lost[: done + sum(1 for end in ends[1:] if end <= damaged)]
        torn = int(bool(garbage) or damaged not in ends)

        directory = tmp_path_factory.mktemp("crash")
        with _writer(call, chunk):
            wal = WriteAheadLog(str(directory), segment_max_records=limit)
            for group in groups[: crash_at + 1]:
                wal.append_entries(group)
            wal._handle.close()  # the crash: the writer never closes
            path = directory / _segment_file(wal.last_seq, limit)
            blob = bytearray(path.read_bytes())
            start = (blob.index(b"\0") if b"\0" in blob else len(blob)) - ends[-1]
            blob[start + at : start + stop] = bytes(stop - at)
            blob[start + at : start + at + len(garbage)] = garbage
            path.write_bytes(bytes(blob))

            reopened = WriteAheadLog(str(directory), segment_max_records=limit)
            assert reopened.torn_lines == torn
            assert list(reopened.replay_entries()) == _logged(survivors)
            tail = [("obs", None, record(7), "after the crash")]
            assert reopened.append_entries(tail) == [len(survivors) + 1]
            reopened.close()
            assert _directory(directory) == _reference(survivors + tail, limit)
            final = WriteAheadLog(str(directory), segment_max_records=limit)
            assert final.torn_lines == 0
            assert list(final.replay_entries()) == _logged(survivors + tail)
            final.close()

    @_ALLOCATION
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_an_entry_by_entry_copy_has_byte_identical_live_segments(
        self, call, data, tmp_path_factory
    ):
        """The standby's path: each committed group shipped as wire entries
        and appended one by one.  The two directories are equal at every
        step, zero tails included, and once closed both are the plain
        writer's files."""
        groups, limit = data.draw(_GROUPS), data.draw(st.integers(1, 5))
        root = tmp_path_factory.mktemp("copy")
        with _writer(call, data.draw(_CHUNKS)):
            source = WriteAheadLog(str(root / "source"), segment_max_records=limit)
            copy = WriteAheadLog(str(root / "copy"), segment_max_records=limit)
            for group in groups:
                source.append_entries(group)
                for entry in source.read_committed_entries(after_seq=copy.last_seq):
                    wire = json.loads(json.dumps(entry_to_wire(entry)))
                    copy.append_entry(entry_from_wire(wire))
                assert copy.last_seq == source.last_seq
                assert _directory(root / "copy") == _directory(root / "source")
            source.close()
            copy.close()
        entries = [entry for group in groups for entry in group]
        assert _directory(root / "source") == _reference(entries, limit)
        assert _directory(root / "copy") == _reference(entries, limit)

    def test_a_live_segment_occupies_whole_chunks_and_closes_to_its_data(
        self, tmp_path
    ):
        big = ("ev", None, "revive_user", {"id": 1, "p": {"pad": "x" * (3 << 19)}})
        entries = [("obs", None, record(0), None), big, ("obs", None, record(1), None)]
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append_entries(entries[:1])
            (path,) = tmp_path.iterdir()
            assert path.stat().st_size == 1 << 20
            wal.append_entries(entries[1:])
            assert path.stat().st_size == 2 << 20  # a group larger than a chunk
        assert _directory(tmp_path) == _reference(entries, 4096)
        with WriteAheadLog(str(tmp_path)) as reopened:
            assert list(reopened.replay_entries()) == _logged(entries)

    def test_a_crashed_segment_is_trimmed_on_open(self, tmp_path):
        entries = [("obs", None, record(k), None) for k in range(3)]
        wal = WriteAheadLog(str(tmp_path))
        wal.append_entries(entries)
        wal._handle.close()  # a crash leaves the zero tail behind
        (path,) = tmp_path.iterdir()
        assert path.stat().st_size == 1 << 20
        with WriteAheadLog(str(tmp_path)) as reopened:
            assert (reopened.last_seq, reopened.torn_lines) == (3, 0)
            assert _directory(tmp_path) == _reference(entries, 4096)

    def test_a_shipping_read_stops_at_the_writers_offset(self, tmp_path):
        """Bytes past the writer's offset are never read by a shipping poll,
        while a recovery scan of the same file stops at them as a tear."""
        with WriteAheadLog(str(tmp_path)) as wal:
            for k in range(5):
                wal.append(record(k))
            (path,) = tmp_path.iterdir()
            with open(path, "r+b") as handle:
                handle.seek(path.read_bytes().index(b"\0"))
                handle.write(b"\xff written by nobody\n")
            assert seqs(wal.read_committed_entries()) == [1, 2, 3, 4, 5]
            assert wal.torn_lines == 0
            assert seqs(wal.replay_entries()) == [1, 2, 3, 4, 5]
            assert wal.torn_lines == 1


class TestReadOnlyDegradedServer:
    def test_failed_append_degrades_to_read_only_507(self, tmp_path, disk):
        server = PredictionServer(
            data_dir=str(tmp_path / "srv"),
            rng=0,
            background_replay=False,
            checkpoint_interval=1000,
        )
        server.start()
        try:
            client = PredictionClient(server.address, retries=0)
            for k in range(10):
                rec = record(k, value=1.0 + 0.1 * k)
                client.report_observation(
                    rec.user_id, rec.service_id, rec.value, rec.timestamp
                )
            disk.full = True
            for __ in range(2):  # the degradation is sticky
                with pytest.raises(RetryableServiceError) as excinfo:
                    client.report_observation(0, 0, 1.0, 99.0)
                assert excinfo.value.status == 507
                assert excinfo.value.body["code"] == "insufficient_storage"
            # Predictions keep serving from the in-memory model.
            assert client.predict(0, 0) > 0
            assert client.status()["durability"]["read_only"] is not None
            assert client.health()["checks"]["wal_writable"] is False
            exposition = client.metrics()
            assert "qos_wal_append_errors_total" in exposition
        finally:
            server.stop()


class TestCheckpointStore:
    def _trained(self, n=50):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        for k in range(n):
            model.observe(record(k, value=1.0 + 0.01 * k))
        return model

    def test_roundtrip_with_wal_seq(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.load_full() is None
        model = self._trained()
        store.save(model, wal_seq=42)
        restored, seq, __ = store.load_full()
        assert seq == 42
        np.testing.assert_array_equal(
            restored.predict_matrix(), model.predict_matrix()
        )
        assert restored.updates_applied == model.updates_applied

    def test_no_tmp_file_left_behind(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(self._trained(), wal_seq=1)
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))

    def test_save_overwrites_atomically(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        model = self._trained(10)
        store.save(model, wal_seq=10)
        model.observe(record(99, value=3.0))
        store.save(model, wal_seq=11)
        restored, seq, __ = store.load_full()
        assert seq == 11
        assert restored.updates_applied == model.updates_applied

    def test_restored_rng_continues_identically(self, tmp_path):
        """The checkpointed RNG state makes post-restore randomness (new
        entity initialization) identical to the uninterrupted model."""
        store = CheckpointStore(str(tmp_path))
        model = self._trained()
        store.save(model, wal_seq=0)
        restored, __, __ = store.load_full()
        # Genuinely new users AND services: their init vectors are drawn
        # from the restored stream, the sharpest test of RNG continuation.
        tail = [
            QoSRecord(timestamp=float(k), user_id=50 + k, service_id=70 + k,
                      value=2.0)
            for k in range(30)
        ]
        for sample in tail:
            model.observe(sample)
            restored.observe(sample)
        np.testing.assert_array_equal(model.user_factors(), restored.user_factors())
        np.testing.assert_array_equal(
            model.service_factors(), restored.service_factors()
        )
