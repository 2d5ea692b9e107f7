"""Durable observation log and checkpoint store for the prediction server.

A serving deployment of the paper's architecture (Fig. 3) is consulted
exactly when services misbehave, so it cannot afford to lose its model to a
crash.  Durability here is the classic database recipe:

* **Write-ahead log** — every accepted observation is appended to a segment
  file (JSON lines, one record per line) and fsync'd *before* it is applied
  to the model.  Records carry a monotonically increasing sequence number;
  the entries one request commits share one fsync (a *commit group*).
* **Checkpoints** — periodically the full model state is written through
  :func:`repro.core.serialization.save_model` (write-temp-then-rename, RNG
  state included) tagged with the highest WAL sequence it covers; older
  segments are then pruned.
* **Recovery** — on restart, load the latest checkpoint and re-apply every
  WAL record with a higher sequence number.  Because observations are
  deterministic given model state + RNG state, the recovered model is
  *bit-exact* with the pre-crash one (see ``tests/test_recovery.py``).

A crash can leave a torn final line in the active segment; replay stops at
the first unparsable line and reports it (``torn_lines``) rather than
guessing — everything before the tear was fsync'd and is intact.

**The segment on disk.**  The active segment grows in preallocated, aligned
:data:`_CHUNK` steps (``os.posix_fallocate``, or ``os.ftruncate`` where
that is missing or refused), and a commit group is one ``pwrite`` at the
writer's offset, then one ``fsync``.  The file's size is already set, so
the fsync commits the group's bytes but no size change — on a filesystem
with extent preallocation (ext4, xfs) about a third of an appending fsync;
elsewhere the same code is correct, just no faster.  No valid line holds a
NUL byte (JSON escapes it), so a scan stops at the first one: the zero tail
is free space, not a tear.  A live reader (replication shipping) stops at
the writer's offset instead; neither reads the tail as a "line".  Opening
the log cuts the last segment at the end of its last whole line, so
nothing appended after a crash is glued onto a torn fragment.  Rotation
and :meth:`WriteAheadLog.close` truncate a segment to its data: a closed
segment is byte for byte what a plain appending writer makes, and a live
standby's segments equal its primary's (both allocate by offset).
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from collections.abc import Iterator

from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.serialization import load_model, save_model
from repro.datasets.schema import QoSRecord
from repro.observability import get_registry

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"
_CHUNK = 1 << 20  # the active segment grows in preallocated steps of 1 MiB
_READ_BLOCK = 1 << 16  # a scan reads at most this much of a zero tail
_SEGMENT_RECORDS = 4096  # entries per segment before the log rotates

# Durability observability: the fsync is the dominant per-observation cost
# of the write path, so its latency distribution is the first thing an
# operator needs; segment counts and torn-tail skips cover the rest.
_METRICS = get_registry()
_WAL_APPENDS = _METRICS.counter(
    "qos_wal_appends_total",
    "Entries (observations and events) durably appended to the WAL",
)
_WAL_FSYNC_SECONDS = _METRICS.histogram(
    "qos_wal_fsync_seconds",
    "Latency of each WAL fsync (one per commit group, not per entry)",
)
_WAL_SEGMENTS = _METRICS.gauge(
    "qos_wal_segments", "WAL segment files currently on disk"
)
_WAL_TORN_LINES = _METRICS.counter(
    "qos_wal_torn_lines_total",
    "Unparsable (torn) WAL lines skipped during recovery scans",
)
_WAL_APPEND_ERRORS = _METRICS.counter(
    "qos_wal_append_errors_total",
    "WAL appends that failed at the OS layer (full disk, I/O error)",
)
_CHECKPOINT_SAVES = _METRICS.counter(
    "qos_checkpoint_saves_total", "Model checkpoints written"
)
_CHECKPOINT_SAVE_SECONDS = _METRICS.histogram(
    "qos_checkpoint_save_seconds", "Wall-clock seconds per checkpoint save"
)


class WalAppendError(OSError):
    """A WAL append failed at the OS layer (``ENOSPC``, I/O error, ...).

    The log is left in a failed state (``writable`` turns false) because a
    partial line may sit at the tail of the active segment: acknowledging
    further appends after an unflushed write would break the
    log-before-apply ordering durability depends on.  The server maps this
    to read-only degraded mode — predictions keep serving, observation
    writes get a structured 507.  ``errno`` is preserved from the
    underlying :class:`OSError`.
    """

    def __init__(self, message: str, errno: "int | None" = None) -> None:
        super().__init__(message)
        self.errno = errno


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(name: str) -> int:
    return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


def _open_segment(path: str):
    """A segment opened for positioned writes, created if missing — never
    ``O_APPEND``, under which Linux ``pwrite`` ignores its offset."""
    return open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b", buffering=0)


def _allocate(fd: int, start: int, length: int) -> None:
    """Extend a segment by ``length`` zero bytes at ``start``: preallocated
    where the platform and filesystem allow it, else a sparse extension.
    Any other failure (``ENOSPC``) propagates."""
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is not None:
        try:
            fallocate(fd, start, length)
            return
        except OSError as exc:
            if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL, errno.ENOSYS):
                raise
    os.ftruncate(fd, start + length)


def _segment_bytes(path: str, end: "int | None") -> bytes:
    """A segment's first ``end`` bytes, or without ``end`` the bytes before
    its first NUL (the zero tail is free space, read one block at most)."""
    with open(path, "rb") as handle:
        if end is not None:
            return handle.read(end)
        blocks = []
        while (block := handle.read(_READ_BLOCK)) and b"\0" not in block:
            blocks.append(block)
        return b"".join(blocks) + block.partition(b"\0")[0]


class WriteAheadLog:
    """Append-only, fsync'd, segmented observation log.

    Thread-safe: appends are serialized by an internal lock, but callers
    that need WAL order to match model-apply order (the server's ingest
    path) must hold their own lock around the append+apply pair.

    Args:
        directory: where segment files live (created if missing).
        fsync:     fsync every commit group (the durability guarantee);
                   disable only for tests/benchmarks.

    A segment holds :data:`_SEGMENT_RECORDS` entries before the log rotates
    to a new file, which bounds the cost of pruning and the size of any
    single file.
    """

    def __init__(self, directory: str, fsync: bool = True) -> None:
        self.directory = str(directory)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self._closed = False
        self._append_failed: "str | None" = None
        self.torn_lines = 0
        self.appended = 0
        os.makedirs(self.directory, exist_ok=True)
        self._open_active_segment()
        _WAL_SEGMENTS.set(self.segment_count())

    # -- discovery -----------------------------------------------------------
    def _segment_names(self) -> list[str]:
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        ]
        return sorted(names, key=_segment_first_seq)

    def _read_segment(self, name: str, end: "int | None" = None) -> Iterator[tuple]:
        """Parse one segment's whole lines: ``(entry, offset past its line)``
        pairs, stopping at the first bad line.

        The log is a tagged union: observation lines
        (``{"seq","t","u","s","v","k"?}``) yield
        ``("obs", seq, record, key)``; lifecycle-event lines
        (``{"seq","ev","d"}``, e.g. entity revivals and memory-pressure
        capacity changes) yield ``("ev", seq, kind, data)``.  Both advance
        the sequence scan — an event at the log tail must count toward
        ``last_seq`` or the next append would reuse its number.

        The read ends at ``end`` (a live reader's offset) or the first NUL
        byte.  A line cut short or unparsable is a tear: tallied, and the
        scan stops.  Lines are decoded from bytes one by one: a torn tail
        can hold arbitrary bytes, which must register as a tear — not raise
        UnicodeDecodeError out of recovery.
        """
        lines = _segment_bytes(os.path.join(self.directory, name), end).split(b"\n")
        offset = 0
        for raw in lines[:-1]:
            try:
                line = json.loads(raw.decode("utf-8"))
                if "ev" in line:
                    entry = _event_entry(line["seq"], line)
                else:
                    entry = _observation_entry(
                        line["seq"], line["t"], line["u"], line["s"], line["v"],
                        line.get("k"),
                    )
            except (ValueError, KeyError, TypeError):
                break
            offset += len(raw) + 1
            yield entry, offset
        else:
            if not lines[-1]:
                return
        self.torn_lines += 1
        _WAL_TORN_LINES.inc()

    # -- writing -------------------------------------------------------------
    def _open_active_segment(self) -> None:
        """Find ``last_seq`` and open the segment the next append goes to.
        Only the final segment is scanned (earlier ones end where their
        successor begins); it is cut at the end of its last whole line and
        reused while it has room."""
        names = self._segment_names()
        self._last_seq = 0
        if names:
            name = names[-1]
            first = _segment_first_seq(name)
            self._last_seq, end = first - 1, 0
            for entry, end in self._read_segment(name):
                self._last_seq = entry[1]
            os.truncate(os.path.join(self.directory, name), end)
            if self._last_seq - first + 1 < _SEGMENT_RECORDS:
                self._activate(first, end)
                return
        self._activate(self._last_seq + 1, 0)

    def _activate(self, first_seq: int, offset: int) -> None:
        """Append to the segment starting at ``first_seq`` from ``offset``."""
        self._handle = _open_segment(os.path.join(self.directory, _segment_name(first_seq)))
        self._active_first_seq = first_seq
        # The writer's offset (where the segment's data ends) and its size.
        self._offset = self._allocated = offset

    def _close_active_segment(self) -> None:
        """Truncate the active segment to its data and close it."""
        try:
            os.ftruncate(self._handle.fileno(), self._offset)
        finally:
            self._handle.close()

    def _write(self, text: str) -> None:
        """Write ``text`` at the writer's offset — one ``pwrite`` — after
        allocating the whole chunks it reaches into."""
        data = memoryview(text.encode("utf-8"))
        fd = self._handle.fileno()
        end = self._offset + len(data)
        if end > self._allocated:
            size = -(-end // _CHUNK) * _CHUNK
            _allocate(fd, self._allocated, size - self._allocated)
            self._allocated = size
        offset = self._offset
        while offset < end:  # a short write is retried, not dropped
            offset += os.pwrite(fd, data[offset - self._offset :], offset)
        self._offset = end

    def append_entries(self, entries) -> list[int]:
        """Durably log ``entries`` as one commit group; returns their
        sequence numbers.

        Each entry is tagged in the shape :meth:`replay_entries` yields.  Its
        own ``seq`` is not written — the log assigns the next ones, under the
        lock, with the write — so a not-yet-logged entry carries ``None``
        there and a shipped one must already be next.  The group's lines are
        written in order by one ``pwrite`` and made durable by **one**
        fsync; only then does ``last_seq`` move past them, so a shipping
        reader never sees a member of a group whose fsync has not returned.
        The bytes and the segment file names are those of the same entries
        appended one by one: a rotation falls at the same sequence number,
        and a segment left mid-group is fsync'd before it is closed.

        An observation's ``key`` is the caller-supplied idempotency key, if
        any; it rides in the record (``"k"``) so crash recovery rebuilds the
        dedup ledger from the log itself.

        Events share the observation sequence space, so recovery replays
        observations and events in their original interleaving.  Every kind
        is committed by ``PredictionServer._commit`` (logged, then applied)
        and applied by ``PredictionServer._apply`` through
        :meth:`repro.lifecycle.TieredAMF.apply_event` — live, in recovery
        and on a standby alike.  The entry-kind table:

        ``revive_user`` / ``revive_service``
            :data:         ``{"id", "p"}`` — ``p`` is the full spill payload
            :committed by: an observe or a read that names a cold entity
            :apply:        the entity takes a hot slot from ``p``; its spill
                           row is dropped
            :logged first: the spill row holds crash-time state, not the
                           state at the replayed position
        ``pressure``
            :data:         ``{"hu", "hs", "level"}``
            :committed by: the memory watchdog's tighten callback
            :apply:        both capacities and the level are set; the
                           overflow is demoted
            :logged first: every later demotion depends on the capacities
        ``migration_in``
            :data:         ``{"mid", "seq", "entities": [[kind, id,
                           payload], ...]}`` — the whole imported batch
            :committed by: ``POST /migration/import``
            :apply:        the batch is imported; the migration ledger's
                           high-water mark for ``mid`` rises to ``seq``
            :logged first: recovery and standbys replay the exact import,
                           and refuse the coordinator's retry of it
        ``migration_out``
            :data:         ``{"entities": [[kind, id], ...]}``
            :committed by: ``POST /migration/delete`` (known entities only)
            :apply:        each entity is forgotten, hot or spilled
            :logged first: the source's log shows where its copy ended

        An observation (:meth:`append`) follows the same rule: the raw
        pre-gate record is logged, then ``_apply`` adds its key to the dedup
        ledger, advances ``latest_ingest_ts`` and runs it through the gate
        into the model.  Demotions are *not* logged: they are deterministic
        functions of model state and replay identically.

        The group rule: the entries one request commits are one
        :meth:`append_entries` group — an observe that names cold parties
        logs ``[revive_user?, revive_service?, obs]`` under a single fsync,
        and a standby logs each pulled batch as one group.  Nothing of a
        group is applied, acknowledged or shipped before that fsync returns,
        and the group's lines are the lines the same entries would have
        written one by one, so a reader of the log cannot tell a group from
        its members.  Every other committer (a read-path revive, a pressure
        change, a migration batch) logs a group of one.
        """
        bodies = [_entry_body(entry) for entry in entries]
        if not bodies:
            return []
        with self._lock:
            if self._closed:
                raise ValueError("write-ahead log is closed")
            if self._append_failed is not None:
                raise WalAppendError(
                    f"write-ahead log is in a failed state: {self._append_failed}"
                )
            first = self._last_seq + 1
            seqs = list(range(first, first + len(bodies)))
            lines: list[str] = []
            try:
                for seq, body in zip(seqs, bodies):
                    if seq - self._active_first_seq >= _SEGMENT_RECORDS:
                        if lines:
                            self._write("".join(lines))
                            self._sync_active_segment()
                            lines = []
                        self._close_active_segment()
                        self._activate(seq, 0)
                        _WAL_SEGMENTS.set(self.segment_count())
                    lines.append(json.dumps({"seq": seq, **body}) + "\n")
                self._write("".join(lines))
                self._sync_active_segment()
            except OSError as exc:
                # A failed write (or allocation) may have left part of the
                # group — a partial line, or whole lines that were never
                # fsync'd — in the active segment; freeze the log so the
                # failure is sticky and the server can degrade to read-only
                # instead of acknowledging entries that never became durable.
                # None of the group is counted: ``last_seq`` has not moved.
                self._append_failed = f"{type(exc).__name__}: {exc}"
                _WAL_APPEND_ERRORS.inc()
                span = f"{first}" if len(seqs) == 1 else f"{first}..{seqs[-1]}"
                raise WalAppendError(
                    f"WAL append of seq {span} failed: {exc}",
                    errno=getattr(exc, "errno", None),
                ) from exc
            self._last_seq += len(seqs)
            self.appended += len(seqs)
            _WAL_APPENDS.inc(len(seqs))
            return seqs

    def _sync_active_segment(self) -> None:
        """fsync the active segment's written lines."""
        if self.fsync:
            fsync_started = time.perf_counter()
            os.fsync(self._handle.fileno())
            _WAL_FSYNC_SECONDS.observe(time.perf_counter() - fsync_started)

    def append_entry(self, entry: tuple) -> int:
        """Durably log one tagged entry — a commit group of one; returns its
        sequence number."""
        return self.append_entries((entry,))[0]

    def append(self, record: QoSRecord, key: "str | None" = None) -> int:
        """Durably log one observation; returns its sequence number."""
        return self.append_entry(("obs", None, record, key))

    # -- reading -------------------------------------------------------------
    def replay_entries(self, after_seq: int = 0) -> Iterator[tuple]:
        """Yield every committed entry after ``after_seq``, tagged.

        The recovery stream: ``("obs", seq, record, key)`` for observations
        interleaved with ``("ev", seq, kind, data)`` for events, in sequence
        order.  Segments wholly covered by ``after_seq`` are skipped without
        being read; each segment's read stops at its first NUL byte (free
        space) or its first corrupt line (a torn crash tail).
        """
        return self._entries(after_seq, live=False)

    def _entries(self, after_seq: int, live: bool) -> Iterator[tuple]:
        """:meth:`replay_entries`; ``live`` reads the active segment only up
        to the writer's offset instead of up to its first NUL byte."""
        names = self._segment_names()
        active = _segment_name(self._active_first_seq)
        for index, name in enumerate(names):
            if index + 1 < len(names):
                segment_end = _segment_first_seq(names[index + 1]) - 1
                if segment_end <= after_seq:
                    continue
            end = self._offset if live and name == active else None
            for entry, __ in self._read_segment(name, end):
                if entry[1] > after_seq:
                    yield entry

    # -- maintenance ---------------------------------------------------------
    def prune(self, up_to_seq: int) -> int:
        """Delete segments whose every record is covered by a checkpoint.

        The active segment is never deleted.  Returns how many segment
        files were removed.
        """
        with self._lock:
            names = self._segment_names()
            removed = 0
            for index, name in enumerate(names[:-1]):
                segment_end = _segment_first_seq(names[index + 1]) - 1
                if segment_end <= up_to_seq:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
            if removed:
                _WAL_SEGMENTS.set(self.segment_count())
            return removed

    @property
    def last_seq(self) -> int:
        return self._last_seq

    @property
    def writable(self) -> bool:
        """Health probe: the log can accept appends right now."""
        return (
            not self._closed
            and self._append_failed is None
            and self._handle is not None
            and not self._handle.closed
            and os.access(self.directory, os.W_OK)
        )

    def read_committed_entries(
        self, after_seq: int = 0, limit: int = 1024
    ) -> list[tuple]:
        """Read up to ``limit`` committed entries with ``seq > after_seq``.

        The replication shipping path: holds the append lock while reading,
        so the active segment cannot gain a half-written line mid-scan, reads
        it only up to the writer's offset, and returns only entries whose
        fsync has returned (committed).  Tagged entries in sequence order —
        the standby must apply revives and pressure changes where the
        primary did to converge to its tier assignment.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            batch: list[tuple] = []
            for entry in self._entries(after_seq, live=True):
                if entry[1] > self._last_seq:
                    break
                batch.append(entry)
                if len(batch) >= limit:
                    break
            return batch

    def segment_count(self) -> int:
        return len(self._segment_names())

    def close(self) -> None:
        """Truncate the active segment to its data and close it."""
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._close_active_segment()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _entry_body(entry: tuple) -> dict:
    """One entry's log line, minus the sequence number the log assigns."""
    tag, __, first, second = entry
    if tag == "obs":
        body = {
            "t": first.timestamp,
            "u": first.user_id,
            "s": first.service_id,
            "v": first.value,
        }
        if second is not None:
            body["k"] = second
        return body
    if not isinstance(second, dict):
        raise TypeError(f"event data must be a dict, got {type(second).__name__}")
    return {"ev": str(first), "d": second}


def _observation_entry(seq, timestamp, user_id, service_id, value, key) -> tuple:
    """One decoded observation, as the log yields it (disk and wire alike)."""
    record = QoSRecord(
        timestamp=float(timestamp),
        user_id=int(user_id),
        service_id=int(service_id),
        value=float(value),
    )
    return "obs", int(seq), record, (str(key) if key is not None else None)


def _event_entry(seq, body: dict) -> tuple:
    """One decoded event (``{"ev": kind, "d": data}``), as the log yields it."""
    if not isinstance(body["d"], dict):
        raise TypeError("event data must be an object")
    return "ev", int(seq), str(body["ev"]), body["d"]


def entry_to_wire(entry: tuple) -> list:
    """Wire form of one entry on ``GET /replication/wal`` (compact JSON
    array): ``[seq, t, u, s, v, key]`` for an observation,
    ``[seq, {"ev": kind, "d": data}]`` for an event — two elements with a
    dict second, unambiguous against the six-element observation form."""
    tag, seq, first, second = entry
    if tag == "ev":
        return [seq, {"ev": str(first), "d": second}]
    return [seq, first.timestamp, first.user_id, first.service_id, first.value, second]


def entry_from_wire(wire) -> tuple:
    """Inverse of :func:`entry_to_wire`: the entry as the log yields it."""
    if len(wire) == 2 and isinstance(wire[1], dict):
        return _event_entry(*wire)
    return _observation_entry(*wire)


class CheckpointStore:
    """Atomic full-model checkpoints paired with a WAL position.

    One ``checkpoint.npz`` per directory, written via
    :func:`save_model(..., atomic=True)` so a crash mid-checkpoint leaves
    the previous checkpoint intact.  The covered WAL sequence rides inside
    the archive's ``extra`` dict — checkpoint and position are one file,
    hence atomic together.
    """

    FILENAME = "checkpoint.npz"

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, self.FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(
        self,
        model: AdaptiveMatrixFactorization,
        wal_seq: int,
        extra: "dict | None" = None,
    ) -> None:
        payload = dict(extra) if extra else {}
        payload["wal_seq"] = int(wal_seq)
        started = time.perf_counter()
        save_model(model, self.path, extra=payload, atomic=True)
        _CHECKPOINT_SAVE_SECONDS.observe(time.perf_counter() - started)
        _CHECKPOINT_SAVES.inc()

    def load_full(
        self, rng: "int | None" = None
    ) -> "tuple[AdaptiveMatrixFactorization, int, dict] | None":
        """Return ``(model, covered_wal_seq, extra)``, or ``None`` if no
        checkpoint.  ``extra`` is the archive's dict minus ``wal_seq`` — the
        server keeps its robustness, tiering and epoch state there.
        ``rng=None`` restores the checkpointed RNG state (exact recovery).
        """
        if not self.exists():
            return None
        model, extra = load_model(self.path, rng=rng, return_extra=True)
        wal_seq = int(extra.pop("wal_seq", 0))
        return model, wal_seq, extra
