"""Tests for QoSStream and the matrix-to-stream converters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.schema import QoSMatrix, QoSRecord
from repro.datasets.stream import QoSStream, stream_from_matrix, stream_from_slices
from repro.datasets.synthetic import generate_dataset


def duration(stream):
    """Time span covered by the stream (0 for empty/single-sample)."""
    return stream[-1].timestamp - stream[0].timestamp if len(stream) > 1 else 0.0


def by_slice(stream):
    """Group records by their slice id (preserving time order)."""
    groups = {}
    for record in stream:
        groups.setdefault(record.slice_id, []).append(record)
    return {key: QoSStream(records, presorted=True) for key, records in groups.items()}


def records_with_times(times):
    return [
        QoSRecord(timestamp=float(t), user_id=0, service_id=k, value=1.0)
        for k, t in enumerate(times)
    ]


class TestQoSStream:
    def test_sorted_on_construction(self):
        stream = QoSStream(records_with_times([5.0, 1.0, 3.0]))
        assert [r.timestamp for r in stream] == [1.0, 3.0, 5.0]

    def test_presorted_skips_sorting(self):
        # Caller vouches for order; the stream preserves it verbatim.
        stream = QoSStream(records_with_times([5.0, 1.0]), presorted=True)
        assert [r.timestamp for r in stream] == [5.0, 1.0]

    def test_len_and_indexing(self):
        stream = QoSStream(records_with_times([1, 2, 3]))
        assert len(stream) == 3
        assert stream[0].timestamp == 1.0

    def test_duration(self):
        assert duration(QoSStream(records_with_times([2.0, 8.0]))) == 6.0
        assert duration(QoSStream([])) == 0.0
        assert duration(QoSStream(records_with_times([4.0]))) == 0.0

    def test_users_and_services(self):
        records = [
            QoSRecord(timestamp=0, user_id=1, service_id=5, value=1.0),
            QoSRecord(timestamp=1, user_id=2, service_id=5, value=1.0),
        ]
        stream = QoSStream(records)
        assert stream.users() == {1, 2}
        assert stream.services() == {5}

    def test_filter(self):
        stream = QoSStream(records_with_times([1, 2, 3, 4]))
        filtered = QoSStream([r for r in stream if r.timestamp > 2], presorted=True)
        assert len(filtered) == 2

    def test_merge_keeps_order(self):
        a = QoSStream(records_with_times([1.0, 5.0]))
        b = QoSStream(records_with_times([2.0, 4.0]))
        merged = QoSStream([*a, *b])
        assert [r.timestamp for r in merged] == [1.0, 2.0, 4.0, 5.0]

    def test_by_slice_grouping(self):
        records = [
            QoSRecord(timestamp=float(k), user_id=0, service_id=k, value=1.0, slice_id=k % 2)
            for k in range(6)
        ]
        groups = by_slice(QoSStream(records))
        assert set(groups) == {0, 1}
        assert len(groups[0]) == 3

    @given(times=st.lists(st.floats(min_value=0, max_value=1e6), min_size=0, max_size=30))
    @settings(max_examples=50)
    def test_always_time_ordered(self, times):
        stream = QoSStream(records_with_times(times))
        stamps = [r.timestamp for r in stream]
        assert stamps == sorted(stamps)


class TestStreamFromMatrix:
    def _matrix(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.1, 3.0, size=(6, 9))
        mask = rng.random((6, 9)) > 0.4
        return QoSMatrix(values=values, mask=mask)

    def test_one_record_per_observed_entry(self):
        matrix = self._matrix()
        stream = stream_from_matrix(matrix, rng=0)
        assert len(stream) == int(matrix.mask.sum())

    def test_values_match_matrix(self):
        matrix = self._matrix()
        for record in stream_from_matrix(matrix, rng=0):
            assert record.value == matrix.values[record.user_id, record.service_id]
            assert matrix.mask[record.user_id, record.service_id]

    def test_timestamps_within_slice_window(self):
        matrix = self._matrix()
        stream = stream_from_matrix(matrix, slice_start=900.0, slice_seconds=900.0, rng=0)
        for record in stream:
            assert 900.0 <= record.timestamp < 1800.0

    def test_slice_id_attached(self):
        stream = stream_from_matrix(self._matrix(), slice_id=7, rng=0)
        assert all(r.slice_id == 7 for r in stream)

    def test_randomized_order_differs_from_row_major(self):
        matrix = self._matrix()
        stream = stream_from_matrix(matrix, rng=0)
        row_major = [(r.user_id, r.service_id) for r in matrix.records()]
        streamed = [(r.user_id, r.service_id) for r in stream]
        assert set(streamed) == set(row_major)
        assert streamed != row_major  # shuffled with overwhelming probability


class TestStreamFromSlices:
    def test_concatenates_all_slices(self):
        data = generate_dataset(n_users=8, n_services=10, n_slices=3, seed=0)
        stream = stream_from_slices(data, rng=0)
        assert len(stream) == int(data.mask.sum())
        assert {r.slice_id for r in stream} == {0, 1, 2}

    def test_time_ordered_across_slices(self):
        data = generate_dataset(n_users=8, n_services=10, n_slices=3, seed=0)
        stamps = [r.timestamp for r in stream_from_slices(data, rng=0)]
        assert stamps == sorted(stamps)

    def test_slice_masks_restrict(self):
        data = generate_dataset(n_users=8, n_services=10, n_slices=2, seed=0)
        masks = [np.zeros((8, 10), dtype=bool) for __ in range(2)]
        masks[0][0, 0] = True
        masks[1][1, 1] = True
        stream = stream_from_slices(data, slice_masks=masks, rng=0)
        assert len(stream) <= 2  # only entries also observed in the data

    def test_wrong_mask_count_rejected(self):
        data = generate_dataset(n_users=8, n_services=10, n_slices=2, seed=0)
        with pytest.raises(ValueError, match="slice masks"):
            stream_from_slices(data, slice_masks=[np.ones((8, 10), dtype=bool)])
