"""Crash-safe live entity migration between shards.

Rebalancing a stateful fleet means *state* must follow ownership: when a
placement change re-homes a user, its factor row, EMA error, retained
samples, and sanitizer-gate statistics have to arrive on the new owner
byte-for-byte, and disappear from the old one — with any process (source
shard, destination shard, or the router itself) allowed to die at any
point.  The :class:`MigrationCoordinator` drives that as a resumable,
idempotent pipeline over the shard migration endpoints
(:mod:`repro.server.app`):

1. **Plan.**  Every current shard reports its resident entities and the
   user↔service sample edges (``GET /migration/entities``).  Users move
   to their target-table owner; a service row follows its users (rows
   live with the users that observed them, not with the service's
   credence home) when *all* of its local users are leaving — to the
   destination holding the plurality of them.  Entities that share
   sample edges and a destination are packed into the same batch, so no
   shared sample is ever split across batches (pass two of
   ``TieredAMF.import_entities`` would drop it).
2. **Per batch: block → export → import → delete → commit.**  The router
   write-blocks the batch, the source exports canonical spill-format
   payloads (read-only — the source keeps serving reads), the
   coordinator durably records the batch sequence *before* sending
   ``POST /migration/import`` (a crashed-and-resumed coordinator can
   never reuse a sequence), the destination probe
   (``POST /migration/probe``) skips payload-identical re-imports so a
   resumed run leaves the destination's WAL and counters exactly as an
   uninterrupted run would, and only after the import is durable does
   the source delete its copies.  Reads are refused (structured 503
   ``entity_migrating`` + ``Retry-After``) only inside the brief
   delete-to-reroute commit window; then a routing override points the
   batch at the destination and is persisted.
3. **Freeze and converge.**  After the main sweep, writes whose
   ownership differs between the current and target tables are frozen
   and discovery sweeps run until a sweep moves nothing (entities
   created by traffic racing the main sweep are caught here).  The
   target table is installed (persisted atomically), overrides and the
   freeze drop away, and the migration journal is deleted.

Every shard call retries with capped backoff until it succeeds or the
coordinator is aborted, so a killed shard just stalls the migration
until it is restarted.  All coordinator state needed to resume —
migration id, target table, next batch sequence, committed overrides —
is persisted by the router via atomic temp-rename *before* the action it
protects, which is what makes SIGKILL at any phase recoverable.

Known narrow race (documented, healed by design): a write that passed
routing before its batch was blocked and lands on the source after the
delete re-creates the entity fresh on the source; the next discovery
sweep migrates it again, converging to a consistent (if
freshly-re-learned) state rather than leaving a split owner.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.placement import PlacementTable
from repro.server.client import PredictionServiceError

# Phases reported to ``on_phase`` (the chaos drill's kill-injection hook),
# in the order a batch passes through them.
PHASES = ("plan", "export", "transfer", "commit", "pre-commit", "done")


class MigrationAborted(RuntimeError):
    """The coordinator was told to stop (router kill / operator abort)."""


def plan_moves(
    inventory: dict, current: PlacementTable, target: PlacementTable
) -> dict:
    """Compute which entities leave each shard, grouped into atomic units.

    ``inventory`` maps shard name to its ``GET /migration/entities`` body.
    Returns ``{(source, dest): [unit, ...]}`` where each unit is a list of
    ``(kind, ext_id)`` tuples that must travel in one batch (they share
    sample edges and a destination).  Deterministic for a given inventory
    and table pair.
    """
    moves: dict = {}
    for source in sorted(inventory):
        inv = inventory[source]
        users = [int(u) for u in inv.get("users", ())]
        services = [int(s) for s in inv.get("services", ())]
        edges = [(int(u), int(s)) for u, s in inv.get("edges", ())]
        in_target = (
            source in target.names and not target.shard(source).draining
        )

        user_dest = {}
        for user_id in users:
            owner = target.owner_of("user", user_id).name
            if owner != source:
                user_dest[user_id] = owner

        connected: dict = {}
        for user_id, service_id in edges:
            connected.setdefault(service_id, set()).add(user_id)

        service_dest = {}
        local_users = set(users)
        for service_id in services:
            cu = sorted(connected.get(service_id, ()) & local_users)
            moving_cu = [u for u in cu if u in user_dest]
            if in_target and (not cu or len(moving_cu) < len(cu)):
                # The source stays active and a local user still needs
                # this row (or nobody moving does): the row stays put.
                continue
            votes: dict = {}
            for user_id in moving_cu:
                dest = user_dest[user_id]
                votes[dest] = votes.get(dest, 0) + 1
            if votes:
                dest = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            elif not in_target:
                # Isolated row on a departing shard: its credence home.
                dest = target.owner_of("service", service_id).name
            else:
                continue
            if dest != source:
                service_dest[service_id] = dest

        # Union-find over moving entities; edges unite only same-dest
        # endpoints, so every component is destination-homogeneous.
        nodes = [("user", u) for u in sorted(user_dest)]
        nodes += [("service", s) for s in sorted(service_dest)]
        parent = {node: node for node in nodes}

        def find(node):
            while parent[node] is not node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for user_id, service_id in edges:
            u_key, s_key = ("user", user_id), ("service", service_id)
            if (
                u_key in parent
                and s_key in parent
                and user_dest[user_id] == service_dest[service_id]
            ):
                root_u, root_s = find(u_key), find(s_key)
                if root_u is not root_s:
                    parent[root_s] = root_u

        components: dict = {}
        for node in nodes:
            components.setdefault(find(node), []).append(node)
        dest_of = {"user": user_dest, "service": service_dest}
        for members in components.values():
            members.sort()
            kind, ext_id = members[0]
            dest = dest_of[kind][ext_id]
            moves.setdefault((source, dest), []).append(members)

    for units in moves.values():
        units.sort()
    return moves


def pack_batches(units: list, batch_entities: int) -> list:
    """Pack atomic units into batches of at most ``batch_entities``
    entities without ever splitting a unit (an oversized unit becomes
    its own oversized batch)."""
    batches: list = []
    current: list = []
    for unit in units:
        if current and len(current) + len(unit) > batch_entities:
            batches.append(current)
            current = []
        current.extend(unit)
    if current:
        batches.append(current)
    return batches


class MigrationCoordinator:
    """Drives one live migration to ``target`` on behalf of a router.

    Created (and resumed) by :meth:`ClusterRouter.start_migration`; runs
    in a daemon thread.  ``on_phase`` is called synchronously with a
    progress dict at every phase transition — the chaos drill's
    kill-injection point.  ``abort()`` (or the router's ``kill()``)
    stops the run at the next shard call, leaving the persisted journal
    in place so a fresh router over the same ``data_dir`` resumes it.
    """

    _RETRY_BACKOFF = 0.05
    _RETRY_BACKOFF_MAX = 1.0

    def __init__(
        self,
        router,
        target: PlacementTable,
        mid: "str | None" = None,
        batch_entities: int = 64,
        on_phase=None,
        state: "dict | None" = None,
    ) -> None:
        if batch_entities < 1:
            raise ValueError(
                f"batch_entities must be >= 1, got {batch_entities}"
            )
        self.router = router
        self.target = target
        self.mid = mid or f"v{router.placement.version}-to-v{target.version}"
        self.batch_entities = int(batch_entities)
        self.on_phase = on_phase
        self.next_seq = int(state.get("next_seq", 1)) if state else 1
        self.resumed = state is not None
        self.progress = {
            "phase": "plan",
            "sweeps": 0,
            "batches_done": 0,
            "entities_moved": 0,
            "resumed": self.resumed,
        }
        self.result: "dict | None" = None
        self.error: "Exception | None" = None
        self._abort = threading.Event()
        self._thread: "threading.Thread | None" = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run_safely, name="qos-migration", daemon=True
        )
        self._thread.start()

    def join(self, timeout: "float | None" = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def abort(self) -> None:
        self._abort.set()

    @property
    def active(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def progress_snapshot(self) -> dict:
        return dict(self.progress)

    def state_dict(self) -> dict:
        """What the router journals (atomically) for crash resume."""
        return {
            "mid": self.mid,
            "target": self.target.to_dict(),
            "next_seq": self.next_seq,
            "batch_entities": self.batch_entities,
            "overrides": self.router.overrides_state(),
        }

    # -- plumbing -----------------------------------------------------------
    def _phase(self, phase: str, **info) -> None:
        self.progress["phase"] = phase
        if self.on_phase is not None:
            self.on_phase(dict(self.progress, **info))

    def _shard_request(self, shard_name: str, method: str, path: str, payload=None):
        """One shard call, retried with capped backoff until it succeeds,
        the coordinator is aborted, or the shard answers a terminal 4xx
        (a protocol bug, e.g. lifecycle tiering disabled — not something
        a retry can fix).  The backoff doubles from ``_RETRY_BACKOFF`` up
        to ``_RETRY_BACKOFF_MAX`` seconds."""
        backoff = self._RETRY_BACKOFF
        while True:
            if self._abort.is_set():
                raise MigrationAborted(self.mid)
            client = self.router.shard_client(shard_name)
            try:
                return client._request(method, path, payload, idempotent=True)
            except PredictionServiceError as exc:
                status = getattr(exc, "status", None)
                if status is not None and 400 <= status < 500 and status != 409:
                    raise
            if self._abort.wait(backoff):
                raise MigrationAborted(self.mid)
            backoff = min(backoff * 2.0, self._RETRY_BACKOFF_MAX)

    # -- the run ------------------------------------------------------------
    def _run_safely(self) -> None:
        try:
            self.result = self._run()
        except MigrationAborted:
            pass  # journal stays on disk; a restarted router resumes
        except Exception as exc:  # noqa: BLE001 — surfaced via /migration/status
            self.error = exc
        finally:
            self.router._migration_finished(self)

    def _run(self) -> dict:
        self._phase("plan")
        started = time.perf_counter()
        moved = self._sweep()
        # Freeze cross-shard writes and sweep until nothing is left —
        # traffic that raced the main sweep created entities on old
        # owners; each pass is strictly smaller.
        self._phase("pre-commit")
        self.router._set_write_freeze(self.target)
        while self._sweep():
            pass
        self.router._commit_migration(self.target)
        self._phase("done")
        return {
            "mid": self.mid,
            "entities_moved": self.progress["entities_moved"],
            "batches": self.progress["batches_done"],
            "sweeps": self.progress["sweeps"],
            "seconds": round(time.perf_counter() - started, 4),
            "target_version": self.target.version,
            "resumed": self.resumed,
            "initial_sweep_moved": moved,
        }

    def _sweep(self) -> int:
        current = self.router.placement
        inventory = {}
        for shard in current.shards:
            inventory[shard.name] = self._shard_request(
                shard.name, "GET", "/migration/entities"
            )
        moves = plan_moves(inventory, current, self.target)
        moved = 0
        for source, dest in sorted(moves):
            for batch in pack_batches(moves[(source, dest)], self.batch_entities):
                moved += self._process_batch(source, dest, batch)
        self.progress["sweeps"] += 1
        return moved

    def _process_batch(self, source: str, dest: str, entities: list) -> int:
        """Move one batch; returns how many entities changed owner.

        Crash-safe by construction: the batch sequence is journaled
        before the import POST (no reuse), the import is deduplicated by
        ``(mid, seq)`` on the destination, the probe turns an
        already-landed import into a no-op, and the delete only removes
        entities the source still has — so replaying any prefix of this
        function converges to the same two-shard state.
        """
        pairs = [[kind, ext_id] for kind, ext_id in entities]
        self._phase("export", source=source, dest=dest, entities=len(pairs))
        self.router._block_entities(entities, reads=False)
        try:
            exported = self._shard_request(
                source, "POST", "/migration/export", {"entities": pairs}
            )["entities"]
            local = {(kind, int(ext)): p for kind, ext, p in exported}
            probe = self._shard_request(
                dest, "POST", "/migration/probe", {"entities": pairs}
            )["entities"]

            to_import = []
            committed = []
            for kind, ext_id in entities:
                payload = local.get((kind, ext_id))
                remote = probe.get(f"{kind}:{ext_id}")
                # Presence on the destination wins: either a resumed run
                # already landed this import durably (WAL-replayed,
                # byte-equal), or the destination's copy has seen writes
                # the source's never will (overridden routing, or a
                # service row the destination's own users built) —
                # overwriting it would disturb non-migrating entities.
                if payload is not None and remote is None:
                    to_import.append([kind, ext_id, payload])
                if payload is not None or remote is not None:
                    committed.append((kind, ext_id))

            if to_import:
                seq = self.next_seq
                self.next_seq = seq + 1
                # Journal the sequence BEFORE the POST: if we die after
                # the destination applied it, the resumed run can never
                # reuse the number and be silently no-op'd by the ledger.
                self.router._persist_migration(self.state_dict())
                self._phase(
                    "transfer",
                    source=source,
                    dest=dest,
                    seq=seq,
                    entities=len(to_import),
                )
                self._shard_request(
                    dest,
                    "POST",
                    "/migration/import",
                    {"mid": self.mid, "seq": seq, "entities": to_import},
                )

            # The commit window: reads for the batch get the brief 503
            # while the source copies disappear and routing flips.
            self._phase("commit", source=source, dest=dest)
            self.router._block_entities(entities, reads=True)
            if committed:
                self._shard_request(
                    source, "POST", "/migration/delete", {"entities": pairs}
                )
                self.router._add_overrides(committed, dest)
                self.router._persist_migration(self.state_dict())
        finally:
            self.router._unblock_entities(entities)
        self.progress["batches_done"] += 1
        self.progress["entities_moved"] += len(committed)
        return len(committed)
