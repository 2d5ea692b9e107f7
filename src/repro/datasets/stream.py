"""Conversion of QoS matrices into observation streams.

AMF consumes data as a time-ordered stream of ``(t, u, s, R)`` samples
(Algorithm 1).  The paper randomizes each slice's retained training entries
into a stream; these helpers reproduce that, assigning each sample a uniform
random timestamp inside its slice window.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.datasets.schema import QoSMatrix, QoSRecord, TimeSlicedQoS
from repro.utils.rng import spawn_rng


class QoSStream:
    """A time-ordered sequence of :class:`QoSRecord` observations.

    Thin immutable wrapper around a sorted list with convenience accessors
    used by the trainer and the experiments.
    """

    def __init__(self, records: Iterable[QoSRecord], presorted: bool = False) -> None:
        records = list(records)
        if not presorted:
            records.sort(key=lambda record: record.timestamp)
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[QoSRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> QoSRecord:
        return self._records[index]

    @property
    def records(self) -> list[QoSRecord]:
        return list(self._records)

    def users(self) -> set[int]:
        return {record.user_id for record in self._records}

    def services(self) -> set[int]:
        return {record.service_id for record in self._records}



def stream_from_matrix(
    matrix: QoSMatrix,
    slice_id: int = 0,
    slice_start: float = 0.0,
    slice_seconds: float = 900.0,
    rng: "int | np.random.Generator | None" = None,
) -> QoSStream:
    """Randomize one slice's observed entries into a stream.

    Each observed entry gets a uniform random timestamp inside
    ``[slice_start, slice_start + slice_seconds)``; the stream is returned in
    timestamp order.  This matches the paper's protocol of feeding AMF "the
    preserved data entries ... randomized as a QoS data stream".
    """
    rng = spawn_rng(rng)
    rows, cols = matrix.observed_indices()
    timestamps = slice_start + rng.random(rows.size) * slice_seconds
    records = [
        QoSRecord(
            timestamp=float(timestamp),
            user_id=int(u),
            service_id=int(s),
            value=float(matrix.values[u, s]),
            slice_id=slice_id,
        )
        for timestamp, u, s in zip(timestamps, rows, cols)
    ]
    return QoSStream(records)


def stream_from_slices(
    data: TimeSlicedQoS,
    slice_masks: "list[np.ndarray] | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> QoSStream:
    """Concatenate every slice of a tensor into one continuous stream.

    ``slice_masks`` optionally restricts which entries of each slice are
    emitted (e.g. the training masks produced by density sampling); when
    omitted, all observed entries are streamed.
    """
    rng = spawn_rng(rng)
    if slice_masks is not None and len(slice_masks) != data.n_slices:
        raise ValueError(
            f"expected {data.n_slices} slice masks, got {len(slice_masks)}"
        )
    all_records: list[QoSRecord] = []
    for t in range(data.n_slices):
        matrix = data.slice(t)
        if slice_masks is not None:
            matrix = QoSMatrix(values=matrix.values, mask=matrix.mask & slice_masks[t])
        slice_stream = stream_from_matrix(
            matrix,
            slice_id=t,
            slice_start=t * data.slice_seconds,
            slice_seconds=data.slice_seconds,
            rng=rng,
        )
        all_records.extend(slice_stream)
    return QoSStream(all_records, presorted=True)
