"""Every input of the benchmark, generated from ``--seed`` alone.

Ground truth is a rank-4 log-normal matrix, ``exp(U_u . S_s)``, observed
with ``N(0, 0.1)`` noise in log space, so relative error is meaningful and
has a floor near 0.07.  The program under test receives only the requests
generated here.  Phases are time-bounded, so each generator takes the
number of requests to make and a caller asks for more than the phase can
send; equal ``(seed, workload, phase, count)`` always gives equal requests.

An observe is the tuple ``(timestamp, user, service, value, key)`` and a
predict is ``(user, [20 service ids], actual)`` where ``actual`` is the
noisy true value of the first candidate, the one relative error is scored
on.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

RANK = 4
MAX_USERS = 60_000
MAX_SERVICES = 5_000
CANDIDATES = 20
VALUE_MIN, VALUE_MAX = 0.01, 19.9  # inside the model's [0, 20] value range
PAD_START = 30_000_000  # request numbers no phase reaches
TICK = 1e-3  # stream seconds per request: nothing reaches the 900 s expiry


def rng_for(seed: int, workload: str, phase: str) -> np.random.Generator:
    return np.random.default_rng(
        [int(seed), zlib.crc32(f"{workload}/{phase}".encode())]
    )


class Truth:
    """The hidden QoS matrix one seed defines, shared by all workloads."""

    def __init__(self, seed: int) -> None:
        rng = rng_for(seed, "truth", "factors")
        self._users = rng.normal(0.0, 0.5, (MAX_USERS, RANK))
        self._services = rng.normal(0.0, 0.5, (MAX_SERVICES, RANK))

    def noisy(self, rng, users, services) -> np.ndarray:
        log_value = np.einsum(
            "ij,ij->i", self._users[users], self._services[services]
        )
        log_value += rng.normal(0.0, 0.1, len(log_value))
        return np.clip(np.exp(log_value), VALUE_MIN, VALUE_MAX)


def zipf_ids(rng, n: int, size: int, exponent: float = 1.1) -> np.ndarray:
    """``size`` ids in ``[0, n)``, id ``k`` drawn with weight ``(k+1)^-a``."""
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return rng.choice(n, size=size, p=weights / weights.sum())


def observes(
    rng, truth: Truth, users, services, start: int, prefix: str,
    resend_share: float = 0.0,
) -> tuple[list[tuple], list[bool]]:
    """Keyed observes for the given id arrays, numbered from ``start``.

    With ``resend_share``, that share of requests repeat an earlier request
    of this call byte for byte (same key), which the server must dedup.
    Returns the requests and, per request, whether it is such a resend.
    """
    users = np.asarray(users)
    services = np.asarray(services)
    values = truth.noisy(rng, users, services)
    ops = [
        ((start + i + 1) * TICK, int(u), int(s), float(v), f"{prefix}-{start + i}")
        for i, (u, s, v) in enumerate(zip(users, services, values))
    ]
    resend = [False] * len(ops)
    if resend_share > 0.0:
        flags = rng.random(len(ops)) < resend_share
        earlier = rng.random(len(ops))
        for i in np.flatnonzero(flags):
            if i == 0:
                continue
            source = int(earlier[i] * i)
            if resend[source]:
                continue
            ops[i] = ops[source]
            resend[i] = True
    return ops, resend


def predicts(rng, truth: Truth, users, first, others) -> list[tuple]:
    """Ranking queries: ``first[i]`` is scored, ``others[i]`` fill the batch."""
    users = np.asarray(users)
    first = np.asarray(first)
    actual = truth.noisy(rng, users, first)
    return [
        (int(u), [int(f)] + [int(s) for s in rest], float(a))
        for u, f, rest, a in zip(users, first, others, actual)
    ]


# -- per-workload populations -------------------------------------------------

INGEST_USERS, INGEST_SERVICES = 2_000, 5_000
HOT_USERS, HOT_LIST, HOT_SERVICES = 200, 40, 2_000
WIDE_USERS, WIDE_SERVICES = 1_000, 3_000
CHURN_SERVICES = 4_000
CLUSTER_USERS, CLUSTER_SERVICES = 400, 1_000
REPLAY_USERS, REPLAY_SERVICES = 500, 2_000


def ingest_observes(seed: int, truth: Truth, n: int, start: int, phase: str):
    rng = rng_for(seed, "ingest_flat", phase)
    return observes(
        rng, truth,
        zipf_ids(rng, INGEST_USERS, n), zipf_ids(rng, INGEST_SERVICES, n),
        start, f"in-{phase}", resend_share=0.01 if phase == "A" else 0.0,
    )


def ingest_predicts(seed: int, truth: Truth, n: int) -> list[tuple]:
    rng = rng_for(seed, "ingest_flat", "D")
    return predicts(
        rng, truth,
        zipf_ids(rng, INGEST_USERS, n), zipf_ids(rng, INGEST_SERVICES, n),
        rng.integers(0, INGEST_SERVICES, (n, CANDIDATES - 1)),
    )


def hot_lists(seed: int) -> np.ndarray:
    """The fixed 40-service candidate list of each ``rank_hot`` user."""
    rng = rng_for(seed, "rank_hot", "lists")
    return np.stack(
        [rng.choice(HOT_SERVICES, HOT_LIST, replace=False) for _ in range(HOT_USERS)]
    )


def rank_observes(seed: int, truth: Truth, workload: str, n: int, start: int, phase: str):
    """Observes of a ``rank_*`` workload: they walk the whole population in a
    shuffled cycle, so the preload covers it as fast as possible."""
    rng = rng_for(seed, workload, phase)
    index = np.arange(start, start + n)
    if workload == "rank_hot":
        lists = hot_lists(seed)
        order = rng_for(seed, workload, "cycle").permutation(HOT_USERS * HOT_LIST)
        pair = order[index % len(order)]
        users, services = pair // HOT_LIST, lists[pair // HOT_LIST, pair % HOT_LIST]
    else:
        cycle = rng_for(seed, workload, "cycle")
        users = cycle.permutation(WIDE_USERS)[index % WIDE_USERS]
        services = cycle.permutation(WIDE_SERVICES)[index % WIDE_SERVICES]
    ops, _ = observes(rng, truth, users, services, start, f"{workload}-{phase}")
    return ops


def rank_predicts(seed: int, truth: Truth, workload: str, n: int, phase: str):
    rng = rng_for(seed, workload, phase)
    if workload == "rank_hot":
        lists = hot_lists(seed)
        users = zipf_ids(rng, HOT_USERS, n)
        picks = np.argsort(rng.random((n, HOT_LIST)), axis=1)[:, :CANDIDATES]
        chosen = lists[users[:, None], picks]
    else:
        users = rng.integers(0, WIDE_USERS, n)
        chosen = rng.integers(0, WIDE_SERVICES, (n, CANDIDATES))
    return predicts(rng, truth, users, chosen[:, 0], chosen[:, 1:])


def churn_observes(seed: int, truth: Truth, n: int, start: int):
    """Half the observes introduce the next new user; half revisit a user
    introduced a Zipf(1.3)-distributed number of users ago."""
    rng = rng_for(seed, "tiered_churn", "O")
    fresh = rng.random(n) < 0.5
    fresh[0] = True
    introduced = np.cumsum(fresh)  # users known after each request
    back = zipf_ids(rng, 4_096, n, exponent=1.3)
    users = np.where(fresh, introduced - 1, np.maximum(introduced - 1 - back, 0))
    ops, _ = observes(
        rng, truth, users, rng.integers(0, CHURN_SERVICES, n), start, "churn-O"
    )
    return ops, introduced


def churn_predicts(seed: int, truth: Truth, n: int, known_users: int, hot_users: int):
    """Three queries in four name one of the newest users (hot), one in
    four a user old enough to have been demoted (spilled).  An even split
    would put the median latency in the gap between the two modes, where it
    swings from run to run; this way it is a hot read's, and the revives
    show in the rate and the tail."""
    rng = rng_for(seed, "tiered_churn", "R")
    recent = max(1, min(hot_users // 2, known_users))
    old = max(1, known_users - 2 * hot_users)
    users = np.where(
        rng.random(n) < 0.75,
        known_users - 1 - rng.integers(0, recent, n),
        rng.integers(0, old, n),
    )
    chosen = rng.integers(0, CHURN_SERVICES, (n, CANDIDATES))
    return predicts(rng, truth, users, chosen[:, 0], chosen[:, 1:])


def owned_observes(seed: int, truth: Truth, workload: str, phase: str,
                   users_owned, n_services: int, n: int, start: int):
    """Zipf observes over one driver thread's own users."""
    rng = rng_for(seed, workload, phase)
    owned = np.asarray(users_owned)
    users = owned[zipf_ids(rng, len(owned), n)]
    ops, _ = observes(
        rng, truth, users, zipf_ids(rng, n_services, n), start, f"{workload}-{phase}"
    )
    return ops


def owned_predicts(seed: int, truth: Truth, workload: str, phase: str,
                   users_owned, n_services: int, n: int):
    """Zipf ranking queries over one driver thread's own users; the scored
    candidate is Zipf too, the other 19 uniform."""
    rng = rng_for(seed, workload, phase)
    owned = np.asarray(users_owned)
    return predicts(
        rng, truth,
        owned[zipf_ids(rng, len(owned), n)], zipf_ids(rng, n_services, n),
        rng.integers(0, n_services, (n, CANDIDATES - 1)),
    )


def pad_observes(seed: int, truth: Truth, workload: str, pairs: list, n: int):
    """``n`` observes that cycle through the given (user, service) pairs."""
    rng = rng_for(seed, workload, "pad")
    users, services = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)[np.arange(n) % len(pairs)].T
    ops, _ = observes(rng, truth, users, services, PAD_START, f"{workload}-pad")
    return ops


def digest(requests) -> str:
    """A stable hash of generated requests, for the determinism self-test."""
    return hashlib.sha256(repr(requests).encode()).hexdigest()
