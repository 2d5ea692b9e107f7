"""Conflict-free block scheduling for the vectorized replay kernel.

The replay loop of Algorithm 1 applies per-sample SGD steps whose state is
strictly per-entity: a step on sample ``(u, s)`` reads and writes only the
factor row of user ``u``, the factor row of service ``s``, and the two EMA
error trackers of the same entities.  Two samples that share neither a user
nor a service therefore commute exactly — executing them in one fused NumPy
pass (gather, batched math, scatter) produces bit-for-bit the state some
sequential order would, up to floating-point summation order inside the dot
products.

:func:`partition_conflict_free` turns a drawn replay batch into such a
schedule: it assigns every sample a block id so that

* no user id and no service id appears twice within a block, and
* samples sharing an entity keep their relative draw order across blocks
  (sample ``k`` lands in a strictly later block than any earlier sample
  touching the same user or service),

which makes "run the blocks in order, each block as one vectorized pass"
semantically equivalent to sequential replay of the same draw sequence.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np


class _LastBlockTable(dict):
    """Sparse last-block table: unknown ids read as -1 (never scheduled).

    ``dict`` with ``__missing__`` so the scheduling loop can index dense
    list tables and sparse dict tables with identical syntax.
    """

    __slots__ = ()

    def __missing__(self, key: int) -> int:
        return -1


def partition_conflict_free(
    users: "Sequence[int] | np.ndarray",
    services: "Sequence[int] | np.ndarray",
) -> np.ndarray:
    """Assign each ``(users[k], services[k])`` sample a conflict-free block id.

    Greedy one-pass schedule: each sample goes into the block right after the
    latest block already containing its user or its service.  This keeps
    per-entity draw order (the property batched simultaneous updates need)
    and produces block ids that are dense in ``0..n_blocks-1`` with block 0
    non-empty.  Runs in O(n) time; ids must be non-negative (as everywhere
    in the model).

    The last-block bookkeeping is chosen per axis by comparing the id range
    against the batch size: dense ``max_id + 1`` list slots (fastest on the
    compact id ranges replay batches draw from), or a dict of O(distinct
    ids) (required when one sparse large id — e.g. a 1e9 user id — would
    otherwise allocate gigabytes).  Both produce identical block
    assignments.

    Returns an ``np.intp`` array of block ids, one per sample.
    """
    n = len(users)
    if n != len(services):
        raise ValueError(
            f"users and services must have equal length, got {n} != {len(services)}"
        )
    if n == 0:
        return np.empty(0, dtype=np.intp)
    # tolist() converts numpy scalars to plain ints once, keeping the loop
    # free of per-element numpy boxing.
    users_list = users.tolist() if isinstance(users, np.ndarray) else list(users)
    services_list = (
        services.tolist() if isinstance(services, np.ndarray) else list(services)
    )
    # Dense tables are only worth their allocation when the id range is on
    # the order of the batch itself.
    dense_limit = max(4 * n, 1024)

    def make_table(max_id: int) -> "list[int] | _LastBlockTable":
        if max_id < dense_limit:
            return [-1] * (max_id + 1)
        return _LastBlockTable()

    last_user_block = make_table(max(users_list))
    last_service_block = make_table(max(services_list))
    blocks = [0] * n
    for k, (u, s) in enumerate(zip(users_list, services_list)):
        last_u = last_user_block[u]
        last_s = last_service_block[s]
        block = (last_u if last_u >= last_s else last_s) + 1
        blocks[k] = block
        last_user_block[u] = block
        last_service_block[s] = block
    return np.array(blocks, dtype=np.intp)


def iter_conflict_free_blocks(
    users: np.ndarray, services: np.ndarray
) -> "Iterator[np.ndarray]":
    """Yield index arrays, one per block, in block order.

    Each yielded array selects a conflict-free subset of the batch; the
    concatenation of all yielded arrays is a permutation of ``0..n-1``.
    """
    if users.size == 0:
        return
    blocks = partition_conflict_free(users, services)
    order = np.argsort(blocks, kind="stable")
    boundaries = np.cumsum(np.bincount(blocks))
    start = 0
    for stop in boundaries.tolist():
        yield order[start:stop]
        start = stop
