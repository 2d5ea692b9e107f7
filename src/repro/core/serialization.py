"""Save/load AMF model state.

A deployed QoS prediction service (Fig. 3) must survive restarts without
retraining from the full history.  ``save_model``/``load_model`` persist the
complete mutable state — latent factors, per-entity error trackers, the
retained-sample store, the configuration, and (since format v2) the RNG
state — into a single ``.npz`` archive.  With the RNG state restored, a
reloaded model is *bit-exact*: replaying the same observation sequence
against it produces the same factors as an uninterrupted run, which is what
the write-ahead-log recovery path (:mod:`repro.server.wal`) relies on.

``atomic=True`` writes through a temporary file and ``os.replace``, so a
crash mid-save can never leave a torn archive where a valid checkpoint used
to be.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from itertools import accumulate, pairwise

import numpy as np

from repro.core.amf import AdaptiveMatrixFactorization
from repro.core.config import AMFConfig

#: Bump when the archive layout changes; load_model refuses newer versions.
#: v2 adds ``rng_state_json`` and ``extra_json`` (both optional on load, so
#: v1 archives remain readable).  v3 reserves ``extra_json`` keys under
#: ``robustness`` for the outlier gate / dedup-ledger / timestamp-policy
#: state the prediction server checkpoints alongside the model.  v4
#: reserves ``extra_json`` keys under ``replication`` for the fencing
#: token a replicated server persists (``{"epoch": int, "role": str}``) —
#: control-plane state that legitimately differs between a promoted
#: standby and a never-failed baseline, which is why
#: :func:`archive_digest` can exclude it.  v5 reserves ``extra_json``
#: keys under ``lifecycle`` for the hot/cold tiering state of
#: :class:`repro.lifecycle.TieredAMF` (external-id <-> slot maps, free
#: lists, touch ticks, capacities, spilled-entity sets): the factor/error
#: arrays are saved in *slot* space, so a tiered checkpoint is unreadable
#: as a flat model without this mapping.  ``extra_json`` keys under
#: ``migration`` are additionally reserved (no version bump — the key is
#: optional) for the per-migration import dedup ledger
#: (``{mid: high_seq}``) a shard persists after receiving migrated
#: entities; a resumed coordinator may skip batch sequence numbers, so
#: the migration chaos drill digests with ``ignore_extra=("migration",)``.
#: The array layout is unchanged at every bump, so v1-v4 archives remain
#: readable.  v6 is stored (``np.savez``), not deflated; its JSON members
#: are UTF-8 ``uint8`` arrays, not UCS4 numpy strings; and the dedup
#: ledger's keys leave ``extra_json`` for two members, ``ledger_keys``
#: (their UTF-8 concatenation, lone surrogates passed through: keys are
#: arbitrary strings, so no separator is safe) and ``ledger_key_lengths``
#: (code points per key).
#: :func:`load_model` puts them back, so ``extra`` round-trips unchanged,
#: and v1-v5 archives still load.
FORMAT_VERSION = 6

_EXTRA_MEMBER = "extra_json.npy"
_LEDGER_MEMBERS = ("ledger_keys", "ledger_key_lengths")


def _json_member(value) -> np.ndarray:
    """A JSON document as an archive member (format v6: UTF-8 bytes)."""
    return np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8)


def _read_json(member: np.ndarray):
    """A JSON member of either layout: UTF-8 bytes (v6) or UCS4 (v2-v5)."""
    if member.dtype == np.uint8:
        return json.loads(member.tobytes().decode("utf-8"))
    return json.loads(str(member))


def _split_extra(extra: dict) -> "tuple[dict, dict]":
    """``extra`` as v6 stores it: the JSON part (the dedup ledger without
    its keys) and the members that carry the keys."""
    ledger = extra.get("robustness", {}).get("ledger", {})
    if "keys" not in ledger:
        return extra, {}
    keys = ledger["keys"]
    rest = {name: value for name, value in ledger.items() if name != "keys"}
    extra = {**extra, "robustness": {**extra["robustness"], "ledger": rest}}
    # A key is any string a client sent, lone surrogates included (JSON's
    # "\ud800" decodes to one): "surrogatepass" keeps them, code point for
    # code point, where strict UTF-8 would refuse the whole checkpoint.
    blob = "".join(keys).encode("utf-8", "surrogatepass")
    return extra, {
        "ledger_keys": np.frombuffer(blob, dtype=np.uint8),
        "ledger_key_lengths": np.fromiter(map(len, keys), np.int32, len(keys)),
    }


def _read_extra(archive) -> dict:
    """``extra`` as :func:`save_model` got it, from an archive of any version."""
    extra = _read_json(archive["extra_json"]) if "extra_json" in archive.files else {}
    if "ledger_keys" in archive.files:
        text = archive["ledger_keys"].tobytes().decode("utf-8", "surrogatepass")
        offsets = accumulate(archive["ledger_key_lengths"].tolist(), initial=0)
        extra["robustness"]["ledger"]["keys"] = [
            text[start:end] for start, end in pairwise(offsets)
        ]
    return extra


def archive_digest(path: str, ignore_extra: "tuple[str, ...]" = ()) -> str:
    """Content digest of a saved model archive, stable across re-saves.

    ``np.savez`` embeds wall-clock timestamps in its zip member headers, so
    two byte-identical model states produce different archive *files*.
    This hashes the sorted member names and their contents instead — equal
    digests mean equal persisted state, which is how the recovery tests
    assert byte-identical checkpoints.

    ``ignore_extra`` names top-level ``extra`` keys excluded from the
    digest: ``extra`` is read back (ledger key members included, and not
    hashed apart), the named keys dropped, and the remainder hashed in
    canonical (sorted-key) JSON form.  The failover drill uses
    ``ignore_extra=("replication",)`` so the fencing epoch — which *must*
    differ after a promotion — doesn't mask data-plane equality between a
    promoted standby and a never-failed baseline.
    """
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as archive:
        for name in sorted(archive.namelist()):
            if ignore_extra and name.removesuffix(".npy") in _LEDGER_MEMBERS:
                continue
            digest.update(name.encode())
            digest.update(b"\0")
            if ignore_extra and name == _EXTRA_MEMBER:
                with np.load(path, allow_pickle=False) as arrays:
                    extra = _read_extra(arrays)
                for key in ignore_extra:
                    extra.pop(key, None)
                digest.update(json.dumps(extra, sort_keys=True).encode())
            else:
                digest.update(archive.read(name))
    return digest.hexdigest()


def save_model(
    model: AdaptiveMatrixFactorization,
    path: str,
    extra: "dict | None" = None,
    atomic: bool = False,
) -> None:
    """Persist a model's full state to ``path`` (a ``.npz`` archive).

    The store's cached normalized values are *not* persisted: they are a
    pure function of the raw values and the config, so :func:`load_model`
    recomputes them in one vectorized pass, keeping the archive format
    stable.

    ``extra`` is an arbitrary JSON-serializable dict stored alongside the
    model (e.g. the WAL sequence number a checkpoint covers).  ``atomic``
    writes to ``path + ".tmp"`` first, fsyncs, and renames into place, so
    readers never observe a half-written archive.  The store's columns are
    written uncopied: keep the model still until this returns.
    """
    users, services, timestamps, values, __ = model._store.columns()
    config = {
        field: getattr(model.config, field) for field in model.config.__dataclass_fields__
    }
    extra, ledger_members = _split_extra(extra if extra is not None else {})
    payload = dict(
        format_version=np.int64(FORMAT_VERSION),
        config_json=_json_member(config),
        rng_state_json=_json_member(model._rng.bit_generator.state),
        extra_json=_json_member(extra),
        **ledger_members,
        user_factors=model.user_factors(),
        service_factors=model.service_factors(),
        user_errors=model.weights.user_error_snapshot(),
        service_errors=model.weights.service_error_snapshot(),
        store_users=np.asarray(users, dtype=np.int64),
        store_services=np.asarray(services, dtype=np.int64),
        store_timestamps=np.asarray(timestamps, dtype=float),
        store_values=np.asarray(values, dtype=float),
        updates_applied=np.int64(model.updates_applied),
    )
    _write_archive(path, payload, atomic)


def _write_archive(path: str, members: dict, atomic: bool = False) -> None:
    """Write ``members`` as a stored ``.npz`` (``atomic``: see :func:`save_model`)."""
    if not atomic:
        np.savez(path, **members)
        return
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        np.savez(handle, **members)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    # Make the rename itself durable where the platform allows it.
    try:
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def load_model(
    path: str,
    rng: "int | np.random.Generator | None" = None,
    return_extra: bool = False,
) -> "AdaptiveMatrixFactorization | tuple[AdaptiveMatrixFactorization, dict]":
    """Restore a model saved by :func:`save_model`.

    ``rng`` seeds the restored model's *future* randomness (new-entity
    initialization, replay sampling).  When ``rng`` is ``None`` and the
    archive carries a saved RNG state (format v2+), that state is restored,
    making the reloaded model continue the exact random stream of the saved
    one — required for bit-exact WAL-tail recovery.  Pass an explicit ``rng``
    to override.  ``return_extra=True`` additionally returns the ``extra``
    dict stored at save time (``{}`` for v1 archives).
    """
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version > FORMAT_VERSION:
            raise ValueError(
                f"model archive format v{version} is newer than supported "
                f"v{FORMAT_VERSION}"
            )
        config = AMFConfig(**_read_json(archive["config_json"]))
        model = AdaptiveMatrixFactorization(config, rng=rng)
        extra = _read_extra(archive)

        for factors, rows in (
            (model._user_factors, archive["user_factors"]),
            (model._service_factors, archive["service_factors"]),
        ):
            if rows.size:
                factors.ensure(rows.shape[0] - 1)
                factors._rows[: rows.shape[0]] = rows
        for tracker, errors in (
            (model.weights._user_errors, archive["user_errors"]),
            (model.weights._service_errors, archive["service_errors"]),
        ):
            if errors.size:
                tracker.ensure(errors.size - 1)
                tracker._values[: errors.size] = errors

        store_values = archive["store_values"]
        if store_values.size:
            # Rebuild the replay kernel's normalized-value cache in one
            # vectorized pass (matches what observe() caches per sample).
            norms = np.maximum(
                np.asarray(model.normalizer.normalize(store_values), dtype=float),
                config.normalized_floor,
            )
        else:
            norms = store_values
        model._store.load(
            archive["store_users"],
            archive["store_services"],
            archive["store_timestamps"],
            store_values,
            norms,
        )
        model._updates_applied = int(archive["updates_applied"])
        # Restore the RNG state LAST: rebuilding the factor matrices above
        # goes through ensure(), which draws (discarded) init vectors —
        # restoring earlier would let those draws consume the saved stream
        # and desynchronize every post-load entity initialization.
        if rng is None and "rng_state_json" in archive.files:
            state = _read_json(archive["rng_state_json"])
            if state.get("bit_generator") == type(model._rng.bit_generator).__name__:
                model._rng.bit_generator.state = state
    if return_extra:
        return model, extra
    return model
