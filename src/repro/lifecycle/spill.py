"""Compact on-disk spill store for demoted (cold) entity state.

The hot tier (:class:`repro.lifecycle.TieredAMF`) keeps a bounded number of
entities dense in RAM; everything else lives here as one row per entity:
``(kind, external_id) -> payload``, where the payload is the canonical JSON
demote record (factor row, EMA error, retained samples, gate statistics).
SQLite is the storage engine — a single ordinary file under the server's
data directory, zero extra dependencies, transactional: a ``kill -9`` at any
point leaves the file as of its last commit (plus a rollback journal the
next opener plays back), never a torn row.

Consistency contract with the tiering layer and the server:

* through the store's own connection, *"row present iff entity is
  spilled"* always holds: a demotion writes the entity's row, a revive (or
  a forget) deletes it, idempotently;
* the tiering layer never commits.  Writes accumulate in one open
  transaction and the **checkpoint** commits them: the server calls
  :meth:`commit` (then :meth:`maybe_compact`) *before* it publishes the
  checkpoint archive, so the file on disk is never behind the checkpoint;
* crash recovery is checkpoint + WAL and does **not** read payloads from
  here — replayed demotions rewrite their rows from the bit-exact replayed
  model state and replayed revive events carry their payload in the WAL.
  The only rows a restart depends on are those of entities spilled at the
  checkpoint and untouched since, i.e. the file as it stood at the
  checkpoint.  A file "ahead" of the checkpoint (committed at a later
  position — a crash between commit and publish, a graceful close) is
  harmless: replay deletes and rewrites every row touched after the
  checkpoint and converges back to the invariant;
* a store with no checkpoint to ride (``":memory:"``) commits every
  statement, so it never accumulates one unbounded transaction.

Not a cache: losing the file loses the cold entities' learned state (they
would rejoin as new entities).  It belongs next to the WAL and checkpoint
in the durable data directory.
"""

from __future__ import annotations

import sqlite3
import threading
import time

from repro.observability import get_registry

_KINDS = ("user", "service")

_METRICS = get_registry()
_SPILL_COMMITS = _METRICS.counter(
    "qos_lifecycle_spill_commits_total",
    "Spill-store transactions flushed to disk (checkpoints and compactions)",
)
_SPILL_COMMIT_SECONDS = _METRICS.histogram(
    "qos_lifecycle_spill_commit_seconds",
    "Wall-clock seconds per spill-store flush",
)


class SpillStore:
    """One-row-per-cold-entity SQLite table whose owner decides when the
    writes become durable.

    Args:
        path: database file path, or ``":memory:"`` for an ephemeral store
              (non-durable servers and model-level tests), which commits
              every statement by itself.

    ``compact_threshold_pages`` is the free-page count above which
    :meth:`maybe_compact` actually runs ``PRAGMA incremental_vacuum``.
    Deleted rows (revives, mass forget, demotion churn) leave free pages
    behind; without compaction a long churn run's spill file grows without
    bound even when the live row count is stable.

    Thread-safe: the server touches it from the ingest path, the predict
    path (a spilled entity's row is read where it lies, :meth:`get` only),
    and the ``/status`` handler concurrently.
    """

    compact_threshold_pages = 64

    def __init__(self, path: str) -> None:
        self.path = path
        self.compactions = 0
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            path,
            check_same_thread=False,
            isolation_level=None if path == ":memory:" else "DEFERRED",
        )
        # Incremental auto-vacuum lets us return free pages to the OS with
        # a cheap ``PRAGMA incremental_vacuum`` instead of a full VACUUM
        # (which rewrites the whole file and takes an exclusive lock).  The
        # mode only takes effect on a database that was *created* with it;
        # flipping it on an existing file requires one full VACUUM, so we
        # pay that once when opening a legacy spill file.
        mode = int(self._conn.execute("PRAGMA auto_vacuum").fetchone()[0])
        if mode != 2:
            self._conn.execute("PRAGMA auto_vacuum=INCREMENTAL")
            self._conn.commit()
            self._conn.execute("VACUUM")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS entities ("
            " kind TEXT NOT NULL,"
            " ext_id INTEGER NOT NULL,"
            " payload BLOB NOT NULL,"
            " PRIMARY KEY (kind, ext_id)"
            ") WITHOUT ROWID"
        )
        self._conn.commit()

    def maybe_compact(self) -> bool:
        """Release free pages back to the OS if enough have accumulated.

        Called by the server right after the checkpoint's :meth:`commit`.
        Cheap when below threshold (one PRAGMA read); above it, commits
        whatever is open and runs ``PRAGMA incremental_vacuum`` which
        truncates the file by the freed amount.  Returns whether a vacuum
        ran.
        """
        with self._lock:
            free = int(self._conn.execute("PRAGMA freelist_count").fetchone()[0])
            if free <= self.compact_threshold_pages:
                return False
            self._flush_locked()
            # incremental_vacuum is a *stepped* statement freeing pages as
            # it goes; the sqlite3 module's execute() sees a zero-column
            # result and steps it only once (one page).  executescript
            # drives the statement to completion.
            self._timed(
                lambda: self._conn.executescript("PRAGMA incremental_vacuum;")
            )
            self.compactions += 1
        return True

    @staticmethod
    def _timed(flush) -> None:
        started = time.perf_counter()
        flush()
        _SPILL_COMMIT_SECONDS.observe(time.perf_counter() - started)
        _SPILL_COMMITS.inc()

    def _flush_locked(self) -> None:
        """Commit the open transaction, if there is one.  Caller holds the
        lock."""
        if self._conn.in_transaction:
            self._timed(self._conn.commit)

    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")

    def put(self, kind: str, ext_id: int, payload: bytes) -> None:
        """Write (or rewrite) one entity's spill row; durable after the next
        :meth:`commit`."""
        self._check_kind(kind)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO entities (kind, ext_id, payload) "
                "VALUES (?, ?, ?)",
                (kind, int(ext_id), sqlite3.Binary(payload)),
            )

    def get(self, kind: str, ext_id: int) -> "bytes | None":
        self._check_kind(kind)
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM entities WHERE kind = ? AND ext_id = ?",
                (kind, int(ext_id)),
            ).fetchone()
        return bytes(row[0]) if row is not None else None

    def delete(self, kind: str, ext_id: int) -> None:
        """Remove an entity's row (idempotent — revive replay re-deletes)."""
        self._check_kind(kind)
        with self._lock:
            self._conn.execute(
                "DELETE FROM entities WHERE kind = ? AND ext_id = ?",
                (kind, int(ext_id)),
            )

    def count(self, kind: "str | None" = None) -> int:
        with self._lock:
            if kind is None:
                row = self._conn.execute("SELECT COUNT(*) FROM entities").fetchone()
            else:
                self._check_kind(kind)
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM entities WHERE kind = ?", (kind,)
                ).fetchone()
        return int(row[0])

    def keys(self, kind: str) -> list[int]:
        """All spilled external ids of one kind, ascending."""
        self._check_kind(kind)
        with self._lock:
            rows = self._conn.execute(
                "SELECT ext_id FROM entities WHERE kind = ? ORDER BY ext_id",
                (kind,),
            ).fetchall()
        return [int(row[0]) for row in rows]

    def rows(self) -> "list[tuple[str, int, bytes]]":
        """Every ``(kind, ext_id, payload)`` as this connection sees it —
        uncommitted writes included — ordered by kind, then id."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT kind, ext_id, payload FROM entities ORDER BY kind, ext_id"
            ).fetchall()
        return [(str(kind), int(ext_id), bytes(payload)) for kind, ext_id, payload in rows]

    def prune_except(self, kind: str, keep_ids) -> int:
        """Delete every row of ``kind`` whose id is not in ``keep_ids``.

        Startup hygiene: a file that was not committed at a replayable
        position (one written by a release that committed per revive and
        crashed between a row's deletion and its commit, or edited by hand)
        can hold a row for an entity the recovered state considers hot.
        Such rows are never consulted (revival is driven by the in-model
        spilled set, not by table scans) but would leak file space forever;
        recovery prunes them back to the invariant.  Durable, like every
        other write, at the next :meth:`commit`.
        """
        keep = set(int(ext_id) for ext_id in keep_ids)
        stale = [ext_id for ext_id in self.keys(kind) if ext_id not in keep]
        with self._lock:
            for ext_id in stale:
                self._conn.execute(
                    "DELETE FROM entities WHERE kind = ? AND ext_id = ?",
                    (kind, ext_id),
                )
        return len(stale)

    def commit(self) -> None:
        """Make every write since the last commit durable (one fsync)."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Commit whatever is open, then release the file."""
        with self._lock:
            try:
                self._flush_locked()
            except sqlite3.Error:
                pass
            self._conn.close()

    def abandon(self) -> None:
        """Release the file *without* committing: the open transaction is
        rolled back, which is what a ``kill -9`` leaves the next opener (its
        rollback journal, played back) — the crash harness's close."""
        with self._lock:
            self._conn.rollback()
            self._conn.close()
