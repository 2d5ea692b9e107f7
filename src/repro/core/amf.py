"""Adaptive Matrix Factorization (Section IV-C, Algorithm 1).

AMF maintains latent factor matrices ``U`` (users) and ``S`` (services) that
are updated one observation at a time.  Each observed sample
``(t, u, s, R)`` is

1. normalized through Box-Cox + linear scaling (Eqs. 3-4),
2. compared against the sigmoid-linked prediction ``g(U_u . S_s)``,
3. folded into the per-entity error trackers, producing credence weights
   ``(w_u, w_s)`` (Eqs. 12-15), and
4. applied as a weighted SGD step on both factor vectors (Eqs. 16-17).

The model additionally keeps a bounded store of the latest observation per
(user, service) pair so that Algorithm 1's replay loop can re-sample
existing data between arrivals and expire observations older than the
configured time window.

Replay runs through one of two kernels (``AMFConfig.kernel``):

* ``"scalar"`` — the sequential reference loop, one Python-level SGD step
  per drawn sample, exactly Algorithm 1's order of operations.
* ``"vectorized"`` (default) — draws the whole batch at once, partitions it
  into conflict-free blocks (no user and no service repeated within a
  block; see :mod:`repro.core.kernel`), and executes each block as a single
  fused NumPy pass.  Within a block every sample reads its entities'
  pre-step state, so block execution is semantically equivalent to the
  sequential simultaneous update, at an order of magnitude more steps/sec.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable

import numpy as np

from repro.core.config import AMFConfig
from repro.core.kernel import partition_conflict_free
from repro.core.transform import QoSNormalizer, sigmoid
from repro.core.weights import AdaptiveWeights
from repro.datasets.schema import QoSRecord
from repro.observability import get_registry
from repro.utils.rng import spawn_rng

# Hot-path observability: recorded per arrival and per replay *batch* (never
# per SGD step), so the cost is a handful of lock-protected adds amortized
# over hundreds of updates.  Label children are bound once at import time.
_METRICS = get_registry()
_OBSERVATIONS = _METRICS.counter(
    "qos_amf_observations_total",
    "QoS samples ingested via observe() (arrival SGD steps)",
)
_REPLAY_STEPS = _METRICS.counter(
    "qos_amf_replay_steps_total",
    "Replay SGD steps applied, by kernel",
    labelnames=("kernel",),
)
_REPLAY_EXPIRED = _METRICS.counter(
    "qos_amf_replay_expired_total",
    "Stored samples expired during replay, by kernel",
    labelnames=("kernel",),
)
_REPLAY_BATCHES = _METRICS.counter(
    "qos_amf_replay_batches_total",
    "replay_many() calls, by kernel",
    labelnames=("kernel",),
)
_REPLAY_BATCH_SECONDS = _METRICS.histogram(
    "qos_amf_replay_batch_seconds",
    "Wall-clock seconds per replay_many() call, by kernel",
    labelnames=("kernel",),
)
_KERNEL_HANDLES = {
    kernel: (
        _REPLAY_STEPS.labels(kernel=kernel),
        _REPLAY_EXPIRED.labels(kernel=kernel),
        _REPLAY_BATCHES.labels(kernel=kernel),
        _REPLAY_BATCH_SECONDS.labels(kernel=kernel),
    )
    for kernel in ("scalar", "vectorized")
}
_REPLAY_BLOCK_WIDTH = _METRICS.histogram(
    "qos_amf_replay_block_width",
    "Mean conflict-free block width per vectorized replay batch",
)
_REPLAY_FALLBACK_STEPS = _METRICS.counter(
    "qos_amf_replay_scalar_fallback_steps_total",
    "Steps the vectorized kernel executed via the scalar tail-block fallback",
)


class _GrowableFactors:
    """Row-growable latent factor matrix with random row initialization.

    Each row carries a monotonically increasing **version counter**, bumped
    on every write to that row (SGD step, scatter write-back, or
    reinitialization).  Prediction caches stamp entries with the versions
    in force at compute time and treat any mismatch as stale — per-entity
    invalidation without the writer knowing who is caching
    (:class:`repro.core.online.PredictionCache`).
    """

    def __init__(self, rank: int, init_scale: float, rng: np.random.Generator) -> None:
        self.rank = rank
        self._init_scale = init_scale
        self._rng = rng
        self._rows = np.empty((16, rank), dtype=float)
        self._versions = np.zeros(16, dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def ensure(self, row_id: int) -> None:
        """Make ``row_id`` addressable, randomly initializing new rows."""
        if row_id < 0:
            raise IndexError(f"row id must be non-negative, got {row_id}")
        if row_id >= self._rows.shape[0]:
            new_capacity = max(self._rows.shape[0] * 2, row_id + 1)
            grown = np.empty((new_capacity, self.rank), dtype=float)
            grown[: self._size] = self._rows[: self._size]
            self._rows = grown
            grown_versions = np.zeros(new_capacity, dtype=np.int64)
            grown_versions[: self._size] = self._versions[: self._size]
            self._versions = grown_versions
        if row_id >= self._size:  # one draw: the per-row draws' numbers and state
            new_rows = self._rng.standard_normal((row_id + 1 - self._size, self.rank))
            self._rows[self._size : row_id + 1] = new_rows * self._init_scale
            self._size = row_id + 1

    def row(self, row_id: int) -> np.ndarray:
        """A *view* of the factor vector; mutate in place to update."""
        self.ensure(row_id)
        return self._rows[row_id]

    def version(self, row_id: int) -> int:
        """Write-version of a row; 0 for rows never updated (or unknown)."""
        if row_id < 0:
            raise IndexError(f"row id must be non-negative, got {row_id}")
        if row_id >= self._size:
            return 0
        return int(self._versions[row_id])

    def reinitialize(self, row_id: int) -> None:
        """Draw a fresh random vector for ``row_id`` (used on entity rejoin)."""
        self.ensure(row_id)
        self._rows[row_id] = self._rng.standard_normal(self.rank) * self._init_scale
        self._versions[row_id] += 1

    def set_row(self, row_id: int, values) -> None:
        """Overwrite a row with an exact vector (entity revival from spill).

        Unlike :meth:`reinitialize` this consumes no randomness; it is a
        write like any other, so the version counter advances.
        """
        self.ensure(row_id)
        self._rows[row_id] = np.asarray(values, dtype=float)
        self._versions[row_id] += 1

    def matrix(self) -> np.ndarray:
        """Copy of all initialized rows, shape ``(size, rank)``."""
        return self._rows[: self._size].copy()

    def view(self) -> np.ndarray:
        """Read-only no-copy view of the initialized rows.

        For the read-heavy paths (``training_error``, ``predict_matrix``)
        that previously paid a full-matrix copy per call; use :meth:`matrix`
        when the caller needs an owned snapshot.
        """
        out = self._rows[: self._size]
        out.flags.writeable = False
        return out


class _SampleStore:
    """Latest observation per (user, service) pair with O(1) random pick.

    Backs Algorithm 1's replay loop: ``random_pick`` implements line 11
    (uniformly pick an existing sample) and ``discard`` implements line 15
    (drop an expired sample, i.e. set ``I_ij = 0``).

    Storage is columnar: parallel arrays (user id, service id, timestamp,
    raw value, cached normalized value) indexed by a dense position, plus a
    key -> position dict, so the vectorized replay kernel can gather a whole
    drawn batch with fancy indexing instead of per-sample dict lookups.  The
    normalized value is cached at :meth:`put` time — Box-Cox runs once per
    observation, not once per replay step.  Per-user and per-service key
    indices make entity removal O(degree) instead of O(store).
    """

    def __init__(self) -> None:
        self._keys: list[tuple[int, int]] = []
        self._positions: dict[tuple[int, int], int] = {}
        capacity = 16
        self._users = np.empty(capacity, dtype=np.intp)
        self._services = np.empty(capacity, dtype=np.intp)
        self._timestamps = np.empty(capacity, dtype=float)
        self._values = np.empty(capacity, dtype=float)
        self._norms = np.empty(capacity, dtype=float)
        self._user_index: dict[int, set[int]] = {}
        self._service_index: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._positions

    _COLUMNS = ("_users", "_services", "_timestamps", "_values", "_norms")

    def _grow(self, needed: int) -> None:
        capacity = max(self._users.size * 2, needed)
        size = len(self._keys)
        for name in self._COLUMNS:
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:size] = old[:size]
            setattr(self, name, grown)

    def _reindex(self) -> None:
        """Rebuild the key -> position dict and the per-entity indices from
        the key list (after a bulk load or a compaction)."""
        self._positions = dict(zip(self._keys, range(len(self._keys))))
        self._user_index = {}
        self._service_index = {}
        for user_id, service_id in self._keys:
            self._user_index.setdefault(user_id, set()).add(service_id)
            self._service_index.setdefault(service_id, set()).add(user_id)

    def load(self, users, services, timestamps, values, norms) -> None:
        """Fill an empty store from columns of distinct pairs, keeping their
        physical order — what one :meth:`put` per row builds (a checkpoint
        restore), without the per-row calls."""
        self._grow(len(users))
        for name, column in zip(self._COLUMNS, (users, services, timestamps, values, norms)):
            getattr(self, name)[: len(users)] = column
        self._keys = list(zip(users.tolist(), services.tolist()))
        self._reindex()

    def put(
        self,
        user_id: int,
        service_id: int,
        timestamp: float,
        value: float,
        norm: float = float("nan"),
    ) -> None:
        """Insert or refresh the latest sample for ``(user_id, service_id)``.

        ``norm`` caches the normalized value ``r`` so replay never re-runs
        the Box-Cox transform; callers that never replay may omit it.
        """
        key = (user_id, service_id)
        position = self._positions.get(key)
        if position is None:
            position = len(self._keys)
            if position >= self._users.size:
                self._grow(position + 1)
            self._positions[key] = position
            self._keys.append(key)
            self._users[position] = user_id
            self._services[position] = service_id
            self._user_index.setdefault(user_id, set()).add(service_id)
            self._service_index.setdefault(service_id, set()).add(user_id)
        self._timestamps[position] = timestamp
        self._values[position] = value
        self._norms[position] = norm

    def get(self, user_id: int, service_id: int) -> tuple[float, float]:
        position = self._positions[(user_id, service_id)]
        return float(self._timestamps[position]), float(self._values[position])

    def norm(self, user_id: int, service_id: int) -> float:
        """The cached normalized value for a stored pair (NaN if never set)."""
        return float(self._norms[self._positions[(user_id, service_id)]])

    def discard(self, user_id: int, service_id: int) -> None:
        key = (user_id, service_id)
        position = self._positions.pop(key, None)
        if position is None:
            return
        # Swap-remove from the key list to keep random_pick O(1).
        last = len(self._keys) - 1
        if position != last:
            last_key = self._keys[last]
            self._keys[position] = last_key
            self._positions[last_key] = position
            self._users[position] = self._users[last]
            self._services[position] = self._services[last]
            self._timestamps[position] = self._timestamps[last]
            self._values[position] = self._values[last]
            self._norms[position] = self._norms[last]
        self._keys.pop()
        services = self._user_index[user_id]
        services.discard(service_id)
        if not services:
            del self._user_index[user_id]
        users = self._service_index[service_id]
        users.discard(user_id)
        if not users:
            del self._service_index[service_id]

    def drop_user(self, user_id: int) -> int:
        """Discard every sample of ``user_id``; O(degree), not O(store).

        Peers are discarded in sorted order: each discard swap-removes, so
        the store's physical row order would otherwise depend on set
        iteration order — which differs between an organically-built index
        and one rebuilt from a checkpoint, breaking byte-exact archive
        equality between a recovered run and its uninterrupted baseline.
        """
        services = self._user_index.get(user_id)
        if not services:
            return 0
        dropped = 0
        for service_id in sorted(services):
            self.discard(user_id, service_id)
            dropped += 1
        return dropped

    def drop_service(self, service_id: int) -> int:
        """Discard every sample of ``service_id``; symmetric to drop_user."""
        users = self._service_index.get(service_id)
        if not users:
            return 0
        dropped = 0
        for user_id in sorted(users):
            self.discard(user_id, service_id)
            dropped += 1
        return dropped

    def purge_expired(self, now: float, expiry_seconds: float) -> int:
        """Drop every sample older than the expiry window in one sweep.

        Vectorized staleness test over the timestamp column, then a single
        compaction pass rebuilding positions and entity indices — no
        per-key ``get`` calls, no key-list copy.
        """
        size = len(self._keys)
        if size == 0:
            return 0
        stale = (now - self._timestamps[:size]) >= expiry_seconds
        n_stale = int(np.count_nonzero(stale))
        if n_stale == 0:
            return 0
        keep = np.flatnonzero(~stale)
        n_keep = keep.size
        for name in self._COLUMNS:
            column = getattr(self, name)
            column[:n_keep] = column[:size][keep]
        old_keys = self._keys
        self._keys = [old_keys[i] for i in keep.tolist()]
        self._reindex()
        return n_stale

    def random_pick(self, rng: np.random.Generator) -> tuple[int, int, float, float]:
        """Return ``(user_id, service_id, timestamp, value)`` uniformly."""
        if not self._keys:
            raise LookupError("sample store is empty")
        # Same sampling primitive as replay_many's batched draw, so one
        # replay_step consumes exactly one uniform from the stream.
        position = int(rng.random() * len(self._keys))
        key = self._keys[position]
        return (
            key[0],
            key[1],
            float(self._timestamps[position]),
            float(self._values[position]),
        )

    def keys(self) -> list[tuple[int, int]]:
        return list(self._keys)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """No-copy views ``(users, services, timestamps, values, norms)``.

        Valid until the next mutating call; fancy-index to keep a snapshot.
        """
        size = len(self._keys)
        return (
            self._users[:size],
            self._services[:size],
            self._timestamps[:size],
            self._values[:size],
            self._norms[:size],
        )


class AdaptiveMatrixFactorization:
    """Online QoS predictor implementing the paper's AMF model.

    Typical use::

        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time())
        for record in stream:              # observed QoS samples, in order
            model.observe(record)
        estimate = model.predict(user_id=3, service_id=42)

    The model is *incremental*: users and services may appear at any time
    (their factors are randomly initialized and their error trackers start at
    the maximal value), and observations expire after
    ``config.expiry_seconds`` during replay.
    """

    def __init__(
        self,
        config: AMFConfig | None = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.config = config if config is not None else AMFConfig()
        self._rng = spawn_rng(rng)
        self.normalizer = QoSNormalizer(
            alpha=self.config.alpha,
            value_min=self.config.value_min,
            value_max=self.config.value_max,
            floor=self.config.value_floor,
        )
        self.weights = AdaptiveWeights(
            beta=self.config.beta, init_error=self.config.init_error
        )
        self._user_factors = _GrowableFactors(
            self.config.rank, self.config.init_scale, self._rng
        )
        self._service_factors = _GrowableFactors(
            self.config.rank, self.config.init_scale, self._rng
        )
        self._store = _SampleStore()
        self._updates_applied = 0
        self._relative_loss = self.config.loss == "relative"

    # ------------------------------------------------------------------
    # Entity management
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of user ids the model has allocated factors for."""
        return len(self._user_factors)

    @property
    def n_services(self) -> int:
        """Number of service ids the model has allocated factors for."""
        return len(self._service_factors)

    @property
    def n_stored_samples(self) -> int:
        """Observations currently retained for replay (``I_ij = 1`` count)."""
        return len(self._store)

    @property
    def updates_applied(self) -> int:
        """Total number of SGD steps performed (arrivals + replays)."""
        return self._updates_applied

    def knows_user(self, user_id: int) -> bool:
        """Whether ``user_id`` has a factor row in memory — what the fused
        ranking kernel can index.

        The identity check callers must use instead of comparing against
        ``n_users``: tiered models (:class:`repro.lifecycle.TieredAMF`) keep
        a sparse external-id population whose size is unrelated to the
        allocated row count.
        """
        return 0 <= user_id < self.n_users

    def knows_service(self, service_id: int) -> bool:
        """Whether ``service_id`` has a factor row in memory (see
        :meth:`knows_user`)."""
        return 0 <= service_id < self.n_services

    def holds_user(self, user_id: int) -> bool:
        """Whether the model holds ``user_id``'s state, so that a prediction
        naming the user can be served from it.  Here that is every row the
        model knows; a tiered model also holds the rows it spilled and reads
        them where they are."""
        return self.knows_user(user_id)

    def holds_service(self, service_id: int) -> bool:
        """Whether the model holds ``service_id``'s state (see
        :meth:`holds_user`)."""
        return self.knows_service(service_id)

    def expected_error(self, user_id: int, service_id: int) -> float:
        """Expected relative error of a prediction for ``(user, service)``.

        Mean of the two entities' EMA error trackers — the confidence signal
        the serving layer attaches to predictions.  A pure read: unknown
        entities report ``init_error``.
        """
        return (
            self.weights.user_error(user_id) + self.weights.service_error(service_id)
        ) / 2.0

    def service_credence(self, service_id: int) -> float:
        """The service's own EMA relative error — the per-service credence
        signal a cluster router merges into ranked candidates.  A pure
        read: unknown services report ``init_error`` without registering.
        """
        return float(self.weights.service_error(service_id))

    def ensure_user(self, user_id: int) -> None:
        """Register a user id, initializing factors and error tracking."""
        self._user_factors.ensure(user_id)
        self.weights.register_user(user_id)

    def ensure_service(self, service_id: int) -> None:
        """Register a service id, initializing factors and error tracking."""
        self._service_factors.ensure(service_id)
        self.weights.register_service(service_id)

    def forget_user(self, user_id: int) -> None:
        """Handle a user leaving: reset its factors/error and drop its samples.

        If the user later rejoins it is treated as new (Algorithm 1 line 5).
        Sample removal is O(user degree) via the store's per-user index.
        """
        if user_id < self.n_users:
            self._user_factors.reinitialize(user_id)
            self.weights.reset_user(user_id)
            self._store.drop_user(user_id)

    def forget_service(self, service_id: int) -> None:
        """Handle a service being discontinued; symmetric to ``forget_user``."""
        if service_id < self.n_services:
            self._service_factors.reinitialize(service_id)
            self.weights.reset_service(service_id)
            self._store.drop_service(service_id)

    def normalize_value(self, value: float) -> float:
        """Map a raw QoS value into normalized ``[floor, 1]`` space.

        The exact mapping ``observe`` applies (Box-Cox + linear, floored at
        ``config.normalized_floor``), exposed so stream sanitizers can
        reason in the model's own residual space
        (:class:`repro.robustness.SanitizerGate`).
        """
        r = self.normalizer.normalize(value)
        if r < self.config.normalized_floor:
            r = self.config.normalized_floor
        return r

    def denormalize_value(self, r: float) -> float:
        """Inverse of :meth:`normalize_value`: normalized space back to raw."""
        return self.normalizer.denormalize(r)

    # ------------------------------------------------------------------
    # Online updates (Algorithm 1)
    # ------------------------------------------------------------------
    def observe(self, record: QoSRecord) -> float:
        """Ingest a newly observed sample (Algorithm 1 lines 3-9).

        Registers new entities, stores the sample for later replay (caching
        its normalized value so replay never re-runs Box-Cox), applies one
        online SGD step, and returns the sample's relative error ``e_ij``
        *before* the step (a cheap, continuously available accuracy signal).
        """
        self.ensure_user(record.user_id)
        self.ensure_service(record.service_id)
        r = self.normalizer.normalize(record.value)
        if r < self.config.normalized_floor:
            r = self.config.normalized_floor
        self._store.put(
            record.user_id, record.service_id, record.timestamp, record.value, r
        )
        _OBSERVATIONS.inc()
        return self._online_update(record.user_id, record.service_id, r)

    def observe_many(self, records: Iterable[QoSRecord]) -> list[float]:
        """Ingest a batch of samples in order; returns per-sample errors."""
        return [self.observe(record) for record in records]

    def replay_step(self, now: float) -> float | None:
        """One replay iteration (Algorithm 1 lines 11-15).

        Picks a random retained sample; if it has expired relative to ``now``
        it is discarded (``I_ij = 0``) and ``None`` is returned, otherwise an
        online update is applied and the sample's pre-update relative error is
        returned.  Raises ``LookupError`` when no samples are retained.
        """
        user_id, service_id, timestamp, __ = self._store.random_pick(self._rng)
        if now - timestamp >= self.config.expiry_seconds:
            self._store.discard(user_id, service_id)
            return None
        return self._online_update(
            user_id, service_id, self._store.norm(user_id, service_id)
        )

    def purge_expired(self, now: float) -> int:
        """Drop every stored sample older than the expiry window.

        Equivalent to what random replay would do lazily (Algorithm 1 line
        15), but in one O(store) sweep — worth doing before a batch of
        replay epochs so the epochs iterate only over live samples instead
        of wasting half their draws discovering stale ones.  Returns the
        number of samples dropped.
        """
        return self._store.purge_expired(now, self.config.expiry_seconds)

    def replay_many(
        self, now: float, count: int, kernel: str | None = None
    ) -> tuple[int, int, float]:
        """Run up to ``count`` replay iterations.

        Equivalent to calling :meth:`replay_step` ``count`` times, but draws
        all random indices in one batch.  Returns ``(applied, expired,
        mean_error)`` where ``mean_error`` is the average pre-update relative
        error of the applied steps (NaN when none applied).  Stops early if
        the store empties.

        ``kernel`` overrides ``config.kernel`` for this call: ``"scalar"``
        executes the sequential reference loop, ``"vectorized"`` the
        conflict-free block kernel.  Both consume the same uniform draws,
        so when no sample expires mid-batch they replay the same sample
        sequence; the vectorized kernel resolves expiry against the
        pre-batch store rather than interleaved with the updates.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        kernel = self.config.kernel if kernel is None else kernel
        if kernel not in ("scalar", "vectorized"):
            raise ValueError(
                f"kernel must be 'scalar' or 'vectorized', got {kernel!r}"
            )
        started = time.perf_counter()
        if kernel == "vectorized":
            result = self._replay_many_vectorized(now, count)
        else:
            result = self._replay_many_scalar(now, count)
        steps, expired, batches, seconds = _KERNEL_HANDLES[kernel]
        steps.inc(result[0])
        expired.inc(result[1])
        batches.inc()
        seconds.observe(time.perf_counter() - started)
        return result

    def _replay_many_scalar(self, now: float, count: int) -> tuple[int, int, float]:
        """Sequential reference kernel: one Python-level step per draw."""
        store = self._store
        expiry = self.config.expiry_seconds
        uniforms = self._rng.random(count)
        applied = 0
        expired = 0
        error_sum = 0.0
        # Local aliases stay valid across discard(): the store only ever
        # swap-removes inside these same objects during replay (no put, so
        # no reallocation).
        keys = store._keys
        positions = store._positions
        timestamps = store._timestamps
        norms = store._norms
        for k in range(count):
            size = len(keys)
            if size == 0:
                break
            key = keys[int(uniforms[k] * size)]
            position = positions[key]
            if now - timestamps[position] >= expiry:
                store.discard(key[0], key[1])
                expired += 1
                continue
            error_sum += self._online_update(key[0], key[1], float(norms[position]))
            applied += 1
        mean_error = error_sum / applied if applied else float("nan")
        return applied, expired, mean_error

    def _draw_replay_batch(
        self, now: float, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], int]:
        """Draw, expire, and schedule one replay batch.

        Everything the vectorized kernel does *before* executing blocks:
        consume ``count`` uniforms from the model RNG, gather the drawn
        samples, discard the expired ones, partition into conflict-free
        blocks, and permute so each block is one contiguous slice.  Returns
        ``(users, services, r, boundaries, expired)`` where ``boundaries``
        lists each block's exclusive stop index (empty when nothing
        applied).
        """
        store = self._store
        uniforms = self._rng.random(count)  # same RNG consumption as scalar
        size = len(store._keys)
        empty = np.empty(0, dtype=np.intp)
        if size == 0 or count == 0:
            return empty, empty, np.empty(0), [], 0
        indices = (uniforms * size).astype(np.intp)
        # Gather the drawn batch before any discard moves rows around.
        users = store._users[indices]
        services = store._services[indices]
        norms = store._norms[indices]
        fresh = (now - store._timestamps[indices]) < self.config.expiry_seconds
        expired = 0
        if not fresh.all():
            stale_positions = np.unique(indices[~fresh])
            stale_keys = [store._keys[i] for i in stale_positions.tolist()]
            for user_id, service_id in stale_keys:
                store.discard(user_id, service_id)
            expired = len(stale_keys)
            users = users[fresh]
            services = services[fresh]
            norms = norms[fresh]
        if users.size == 0:
            return empty, empty, np.empty(0), [], expired

        # Schedule: permute the batch so each conflict-free block is one
        # contiguous slice (blocks stay in order, per-entity draw order is
        # preserved inside the permutation).
        blocks = partition_conflict_free(users, services)
        order = np.argsort(blocks, kind="stable")
        users = users[order]
        services = services[order]
        r = norms[order]
        boundaries = np.cumsum(np.bincount(blocks)).tolist()
        # Replayed entities were registered at observe time; ensure() is a
        # cheap idempotent guard for store states rebuilt by hand.
        self.weights._user_errors.ensure(int(users.max()))
        self.weights._service_errors.ensure(int(services.max()))
        return users, services, r, boundaries, expired

    def _replay_many_vectorized(self, now: float, count: int) -> tuple[int, int, float]:
        """Conflict-free block kernel: the whole batch in fused NumPy passes."""
        users, services, r, boundaries, expired = self._draw_replay_batch(now, count)
        applied = int(users.size)
        if applied == 0:
            return 0, expired, float("nan")
        inv_r = 1.0 / r
        inv_r_sq = inv_r * inv_r

        # Hoist every per-step constant out of the block loop.
        config = self.config
        learning_rate = config.learning_rate
        lambda_u = config.lambda_u
        lambda_s = config.lambda_s
        grad_clip = config.grad_clip
        relative_loss = self._relative_loss
        beta = self.weights.beta
        user_rows = self._user_factors._rows
        service_rows = self._service_factors._rows
        user_versions = self._user_factors._versions
        service_versions = self._service_factors._versions
        user_errors = self.weights._user_errors._values
        service_errors = self.weights._service_errors._values

        error_sum = 0.0
        vectorized_steps = 0
        fallback_steps = 0
        start = 0
        for stop in boundaries:
            width = stop - start
            if width < 6:
                # Tail blocks of a few samples: fixed NumPy dispatch overhead
                # exceeds the scalar step cost, so fall back per sample
                # (_online_update counts its own steps).
                for k in range(start, stop):
                    error_sum += self._online_update(
                        int(users[k]), int(services[k]), float(r[k])
                    )
                fallback_steps += width
                start = stop
                continue
            block = slice(start, stop)
            start = stop
            block_users = users[block]
            block_services = services[block]
            block_r = r[block]
            u_block = user_rows[block_users]
            s_block = service_rows[block_services]
            x = np.einsum("ij,ij->i", u_block, s_block)
            # Stable sigmoid, same branch math as the scalar kernel.
            exp_neg = np.exp(-np.abs(x))
            g = np.where(x >= 0.0, 1.0, exp_neg) / (1.0 + exp_neg)
            g_prime = g * (1.0 - g)

            difference = g - block_r
            sample_errors = np.abs(difference) * inv_r[block]  # Eq. 15
            error_sum += float(sample_errors.sum())

            # Adaptive weights (Eqs. 12-14), inlined from
            # AdaptiveWeights.observe_many: conflict-freedom makes the
            # scatter write-back safe.
            e_u = user_errors[block_users]
            e_s = service_errors[block_services]
            total = e_u + e_s
            if total.min() > 0.0:
                w_u = e_u / total
                w_s = e_s / total
            else:
                safe = np.where(total > 0.0, total, 1.0)
                w_u = np.where(total > 0.0, e_u / safe, 0.5)
                w_s = np.where(total > 0.0, e_s / safe, 0.5)
            ema_u = beta * w_u
            ema_s = beta * w_s
            user_errors[block_users] = ema_u * sample_errors + (1.0 - ema_u) * e_u
            service_errors[block_services] = (
                ema_s * sample_errors + (1.0 - ema_s) * e_s
            )

            if relative_loss:
                residual = difference * g_prime * inv_r_sq[block]  # Eq. 6 gradient
            else:
                residual = difference * g_prime  # Eq. 5 gradient (ablation)
            # min/max ufunc pair: same clamp as np.clip without its
            # fromnumeric wrapper overhead (measurable at this block size).
            np.minimum(residual, grad_clip, out=residual)
            np.maximum(residual, -grad_clip, out=residual)
            step_u = learning_rate * w_u
            step_s = learning_rate * w_s
            # Simultaneous update (Algorithm 1 line 24): both gradients use
            # the pre-step vectors, same rewrite as the scalar kernel's
            # fused scale-and-subtract.
            new_u = (1.0 - step_u * lambda_u)[:, None] * u_block
            new_u -= (step_u * residual)[:, None] * s_block
            new_s = (1.0 - step_s * lambda_s)[:, None] * s_block
            new_s -= (step_s * residual)[:, None] * u_block
            user_rows[block_users] = new_u
            service_rows[block_services] = new_s
            # Conflict-freedom makes the plain scatter increment safe.
            user_versions[block_users] += 1
            service_versions[block_services] += 1
            vectorized_steps += width

        self._updates_applied += vectorized_steps
        _REPLAY_BLOCK_WIDTH.observe(applied / len(boundaries))
        if fallback_steps:
            _REPLAY_FALLBACK_STEPS.inc(fallback_steps)
        return applied, expired, error_sum / applied

    def _online_update(self, user_id: int, service_id: int, r: float) -> float:
        """The ``OnlineUpdate`` function of Algorithm 1 (Eqs. 12-17).

        ``r`` is the sample's normalized value, already floored at
        ``config.normalized_floor`` (cached in the store at observe time).
        """
        config = self.config
        u_vector = self._user_factors.row(user_id)
        s_vector = self._service_factors.row(service_id)
        x = float(u_vector.dot(s_vector))
        # Inline stable sigmoid (scalar hot path).
        if x >= 0:
            g = 1.0 / (1.0 + math.exp(-x))
        else:
            exp_x = math.exp(x)
            g = exp_x / (1.0 + exp_x)
        g_prime = g * (1.0 - g)

        sample_error = abs(r - g) / r  # Eq. 15
        w_u, w_s = self.weights.observe(user_id, service_id, sample_error)

        if self._relative_loss:
            residual = (g - r) * g_prime / (r * r)  # Eq. 6 gradient
        else:
            residual = (g - r) * g_prime  # Eq. 5 gradient (ablation)
        if residual > config.grad_clip:
            residual = config.grad_clip
        elif residual < -config.grad_clip:
            residual = -config.grad_clip
        step_u = config.learning_rate * w_u
        step_s = config.learning_rate * w_s
        # Simultaneous update (Algorithm 1 line 24): both gradients use the
        # pre-step vectors.  The step is rewritten as
        # ``U <- (1 - eta w lambda) U - (eta w residual) S`` so the hot loop
        # does two fused scale-and-subtract passes instead of four temporaries.
        shrink_u = 1.0 - step_u * config.lambda_u
        shrink_s = 1.0 - step_s * config.lambda_s
        new_u = shrink_u * u_vector - (step_u * residual) * s_vector
        s_vector *= shrink_s
        s_vector -= (step_s * residual) * u_vector
        u_vector[:] = new_u

        self._user_factors._versions[user_id] += 1
        self._service_factors._versions[service_id] += 1
        self._updates_applied += 1
        return sample_error

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_normalized(self, user_id: int, service_id: int) -> float:
        """Predicted value in the normalized ``[0, 1]`` space."""
        if user_id >= self.n_users or service_id >= self.n_services:
            raise KeyError(
                f"unknown entity: user {user_id} (have {self.n_users}), "
                f"service {service_id} (have {self.n_services})"
            )
        u_vector = self._user_factors.row(user_id)
        s_vector = self._service_factors.row(service_id)
        return sigmoid(float(u_vector @ s_vector))

    def predict(self, user_id: int, service_id: int) -> float:
        """Predicted raw QoS value ``R_hat_ij`` (backward-transformed)."""
        return self.normalizer.denormalize(self.predict_normalized(user_id, service_id))

    def predict_for_user(self, user_id: int, service_ids) -> np.ndarray:
        """Batched prediction for one user against many candidate services.

        The candidate-ranking primitive: one fused matrix-vector product
        ``S[ids] @ U_u`` plus one vectorized sigmoid + denormalize pass,
        instead of ``len(service_ids)`` per-pair dot products.  Every id
        must already be known to the model (callers route unknown ids
        through their fallback chain); raises :class:`KeyError` otherwise.
        """
        service_ids = np.asarray(service_ids, dtype=np.intp)
        if user_id < 0 or user_id >= self.n_users:
            raise KeyError(f"unknown user {user_id} (have {self.n_users})")
        return self._predict_for_row(self._user_factors.view()[user_id], service_ids)

    def _predict_for_row(self, user_row: np.ndarray, service_ids: np.ndarray) -> np.ndarray:
        """The fused kernel of :meth:`predict_for_user` over a user's factor
        row, wherever that row is held."""
        if service_ids.size == 0:
            return np.empty(0, dtype=float)
        if service_ids.min() < 0 or service_ids.max() >= self.n_services:
            raise KeyError(
                f"unknown service id in batch (have {self.n_services} services)"
            )
        inner = self._service_factors.view()[service_ids] @ user_row
        return self.normalizer.denormalize(sigmoid(inner))

    def user_version(self, user_id: int) -> "int | None":
        """Write-version of a user's factor row (prediction-cache stamp);
        ``None`` for a row that has none to stamp — never here, a spilled
        row on a tiered model — whose predictions must not be cached."""
        return self._user_factors.version(user_id)

    def service_versions(self, service_ids: np.ndarray) -> np.ndarray:
        """Write-versions of many *known* services' factor rows
        (prediction-cache stamps) in one gather."""
        return self._service_factors._versions[service_ids]

    def predict_matrix(self) -> np.ndarray:
        """Dense prediction matrix over all known users and services."""
        if self.n_users == 0 or self.n_services == 0:
            return np.zeros((self.n_users, self.n_services))
        inner = self._user_factors.view() @ self._service_factors.view().T
        return self.normalizer.denormalize(sigmoid(inner))

    def training_error(self) -> float:
        """Mean relative error over all retained samples (convergence signal).

        Reads the store's cached normalized column and factor-row views
        directly — no Box-Cox recompute, no matrix copies.
        """
        users, services, __, __, r = self._store.columns()
        if users.size == 0:
            return float("nan")
        u_rows = self._user_factors.view()[users]
        s_rows = self._service_factors.view()[services]
        g = sigmoid(np.einsum("ij,ij->i", u_rows, s_rows))
        return float(np.mean(np.abs(r - g) / r))

    def user_factors(self) -> np.ndarray:
        """Copy of the user factor matrix ``U`` (shape ``n_users x d``)."""
        return self._user_factors.matrix()

    def service_factors(self) -> np.ndarray:
        """Copy of the service factor matrix ``S`` (shape ``n_services x d``)."""
        return self._service_factors.matrix()
