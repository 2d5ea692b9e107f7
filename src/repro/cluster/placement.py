"""Rendezvous-hash placement of entities onto shards.

Rendezvous (highest-random-weight) hashing gives every ``(kind, id)`` key
an independent pseudo-random score against every shard; the key lives on
the shard with the highest score.  Two properties make it the right tool
for a stateful fleet:

* **Minimal disruption.**  Adding or removing one shard moves only the
  keys whose top score involved that shard — an expected ``1/N`` of the
  keyspace — because every other key's ranking among the survivors is
  unchanged.  (A naive ``hash(key) % N`` reshuffles almost everything.)
* **No coordination.**  Ownership is a pure function of the key and the
  shard list, so routers and clients compute it locally from a small
  version-stamped table instead of asking a directory service.

Users are placed for the data plane (their observations and predictions
go to their home shard); services are *additionally* given a home shard
that owns the authoritative per-service credence (EMA error) the router
merges into ranked candidates.

This module doubles as the operator CLI for rebalancing::

    python -m repro.cluster.placement --router HOST:PORT show
    python -m repro.cluster.placement --router HOST:PORT drain s0 --migrate

``show`` prints the installed table (and any running migration);
``drain`` / ``undrain`` / ``add`` / ``remove`` each build a version-bumped
table and either POST it to ``/cluster/placement`` (bare ownership swap)
or, with ``--migrate``, hand it to ``/migration/start`` so entity state
moves with ownership.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace

_KINDS = ("user", "service")

#: Most ``(kind, id)`` ownerships one table remembers; see
#: :meth:`PlacementTable.owner_of`.
_OWNER_MEMO_CAP = 1 << 16


def rendezvous_score(kind: str, ext_id: int, shard_name: str) -> int:
    """Deterministic 64-bit score of one key against one shard.

    Stable across processes and Python versions (``hashlib``, not
    ``hash()``, which is salted per process).
    """
    key = f"{kind}:{int(ext_id)}|{shard_name}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity and how to reach it.

    ``addresses`` lists the shard's replica endpoints in preference order
    (a shard may itself be an HA pair from :mod:`repro.server.replication`
    — the router's per-shard client fails over inside the shard exactly
    like a direct client would).  ``draining`` removes the shard from
    placement without removing it from the table: no *new* ownership,
    but the router can still reach it to drain reads during a rebalance.
    """

    name: str
    addresses: tuple = field(default_factory=tuple)
    draining: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("shard name must be non-empty")
        object.__setattr__(
            self,
            "addresses",
            tuple((str(host), int(port)) for host, port in self.addresses),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "addresses": [list(addr) for addr in self.addresses],
            "draining": self.draining,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        return cls(
            name=str(data["name"]),
            addresses=tuple(
                (str(host), int(port)) for host, port in data.get("addresses", [])
            ),
            draining=bool(data.get("draining", False)),
        )


class PlacementTable:
    """Version-stamped shard list with pure-function ownership lookup.

    The version is the fleet's coordination primitive: the router serves
    its current table at ``GET /cluster/placement`` and accepts a
    replacement at ``POST /cluster/placement`` only when the incoming
    version is *strictly greater* — so a lagging operator script can
    never roll the fleet back, and clients can cheaply detect staleness
    by comparing versions.
    """

    def __init__(self, shards, version: int = 1) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("placement table needs at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names in {names}")
        if version < 1:
            raise ValueError(f"version must be >= 1, got {version}")
        self.version = int(version)
        self.shards = sorted(shards, key=lambda shard: shard.name)
        self._by_name = {shard.name: shard for shard in self.shards}
        self._active = [shard for shard in self.shards if not shard.draining]
        if not self._active:
            raise ValueError("placement table needs at least one active shard")
        self._owners: dict = {}

    # -- lookup ---------------------------------------------------------------
    def owner_of(self, kind: str, ext_id: int) -> ShardSpec:
        """The single shard owning ``(kind, ext_id)`` at this version.

        Draining shards never own keys; ties (astronomically unlikely
        with 64-bit scores) break lexicographically on shard name so
        every participant agrees.

        An entity is hashed once per table, not once per request: the
        answer is remembered on the instance.  A table never changes (the
        evolution methods build a new one, which starts with nothing
        remembered), so there is nothing to invalidate; the memo is bounded
        by forgetting everything at ``_OWNER_MEMO_CAP`` entries, which keeps
        a hostile id scan from growing the router and costs the live
        working set one re-hash each.
        """
        key = (kind, ext_id)
        owner = self._owners.get(key)
        if owner is None:
            if kind not in _KINDS:
                raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
            owner = max(
                self._active,
                key=lambda shard: (
                    rendezvous_score(kind, ext_id, shard.name), shard.name
                ),
            )
            if len(self._owners) >= _OWNER_MEMO_CAP:
                self._owners.clear()
            self._owners[key] = owner
        return owner

    def shard(self, name: str) -> ShardSpec:
        return self._by_name[name]

    @property
    def names(self) -> list[str]:
        return [shard.name for shard in self.shards]

    @property
    def active(self) -> list[ShardSpec]:
        return list(self._active)

    # -- evolution (each returns a NEW table with version + 1) ----------------
    def with_shard(self, spec: ShardSpec) -> "PlacementTable":
        """Add a shard (scale-out rebalance step)."""
        if spec.name in self._by_name:
            raise ValueError(f"shard {spec.name!r} already present")
        return PlacementTable(self.shards + [spec], version=self.version + 1)

    def without_shard(self, name: str) -> "PlacementTable":
        """Remove a shard entirely (after its keys have moved)."""
        if name not in self._by_name:
            raise KeyError(name)
        return PlacementTable(
            [shard for shard in self.shards if shard.name != name],
            version=self.version + 1,
        )

    def draining_shard(self, name: str, draining: bool = True) -> "PlacementTable":
        """Mark a shard draining (or undo it) — ownership moves off it
        immediately, reachability is kept."""
        if name not in self._by_name:
            raise KeyError(name)
        return PlacementTable(
            [
                replace(shard, draining=draining)
                if shard.name == name
                else shard
                for shard in self.shards
            ],
            version=self.version + 1,
        )

    # -- wire format ----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlacementTable":
        try:
            version = int(data["version"])
            shards = [ShardSpec.from_dict(entry) for entry in data["shards"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed placement table: {exc}") from exc
        return cls(shards, version=version)


# -- operator CLI --------------------------------------------------------------
def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _parse_addresses(text: str) -> tuple:
    return tuple(_parse_hostport(part) for part in text.split(",") if part)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.placement",
        description="Inspect and rebalance a sharded fleet via its router.",
    )
    parser.add_argument(
        "--router", required=True, metavar="HOST:PORT",
        help="cluster router address",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-request timeout in seconds (default 10)",
    )
    parser.add_argument(
        "--migrate", action="store_true",
        help="apply the change as a live entity migration "
        "(POST /migration/start) instead of a bare ownership swap — "
        "factor rows, samples, and gate state move with ownership",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("show", help="print the installed table and migration status")
    for name, extra in (
        ("drain", "stop placing new keys on SHARD (it stays reachable)"),
        ("undrain", "return SHARD to the placement rotation"),
        ("remove", "drop SHARD from the table entirely"),
    ):
        command = sub.add_parser(name, help=extra)
        command.add_argument("shard", metavar="SHARD")
    command = sub.add_parser("add", help="add a new shard to the table")
    command.add_argument("shard", metavar="SHARD")
    command.add_argument(
        "addresses", metavar="HOST:PORT[,HOST:PORT...]",
        help="the shard's replica endpoints in preference order",
    )
    args = parser.parse_args(argv)

    from repro.cluster.client import ClusterClient
    from repro.server.client import PredictionServiceError

    try:
        router_address = _parse_hostport(args.router)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        with ClusterClient(
            router_address, timeout=args.timeout, retries=0
        ) as client:
            table = client.placement(refresh=True)
            if args.command == "show":
                print(
                    json.dumps(
                        {
                            "placement": table.to_dict(),
                            "migration": client.migration_status(),
                        },
                        indent=2,
                        sort_keys=True,
                    )
                )
                return 0
            try:
                if args.command == "drain":
                    new = table.draining_shard(args.shard, True)
                elif args.command == "undrain":
                    new = table.draining_shard(args.shard, False)
                elif args.command == "remove":
                    new = table.without_shard(args.shard)
                else:  # add
                    addresses = _parse_addresses(args.addresses)
                    if not addresses:
                        parser.error("add requires at least one HOST:PORT")
                    new = table.with_shard(ShardSpec(args.shard, addresses))
            except KeyError:
                print(
                    f"error: no shard named {args.shard!r} in "
                    f"{table.names}", file=sys.stderr,
                )
                return 1
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if args.migrate:
                body = client.start_migration(new)
                print(json.dumps({"migration": body}, indent=2, sort_keys=True))
            else:
                body = client.update_placement(new)
                print(json.dumps({"placement": body}, indent=2, sort_keys=True))
            return 0
    except PredictionServiceError as exc:
        detail = getattr(exc, "body", None)
        print(f"error: {detail if isinstance(detail, dict) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
