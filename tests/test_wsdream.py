"""Tests for the real WS-DREAM dataset#2 text-format loader."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import pytest

from repro.datasets.wsdream import (
    load_wsdream_directory,
    parse_quadruplet_lines,
    tensor_from_quadruplets,
)


def parse_triplet_lines(lines: Iterable[str]) -> list[tuple[int, int, float]]:
    """Parse single-slice ``user service value`` lines."""
    parsed: list[tuple[int, int, float]] = []
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(
                f"line {line_number}: expected 3 fields 'user service value', "
                f"got {len(parts)}: {stripped!r}"
            )
        try:
            user_id, service_id = int(parts[0]), int(parts[1])
            value = float(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {line_number}: cannot parse {stripped!r}") from exc
        if min(user_id, service_id) < 0:
            raise ValueError(f"line {line_number}: negative index in {stripped!r}")
        parsed.append((user_id, service_id, value))
    return parsed


class TestParseQuadruplets:
    def test_basic(self):
        lines = ["0 1 2 1.5", "3 4 5 0.25"]
        assert parse_quadruplet_lines(lines) == [(0, 1, 2, 1.5), (3, 4, 5, 0.25)]

    def test_blank_and_comment_lines_skipped(self):
        lines = ["", "# header", "  ", "0 0 0 1.0"]
        assert parse_quadruplet_lines(lines) == [(0, 0, 0, 1.0)]

    def test_wrong_field_count_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_quadruplet_lines(["0 0 0 1.0", "0 0 1.0"])

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_quadruplet_lines(["a b c d"])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            parse_quadruplet_lines(["-1 0 0 1.0"])

    def test_tab_separated_accepted(self):
        assert parse_quadruplet_lines(["0\t1\t2\t3.5"]) == [(0, 1, 2, 3.5)]


class TestParseTriplets:
    def test_basic(self):
        assert parse_triplet_lines(["2 3 0.5"]) == [(2, 3, 0.5)]

    def test_wrong_field_count(self):
        with pytest.raises(ValueError, match="3 fields"):
            parse_triplet_lines(["1 2 3 4"])


class TestTensorFromQuadruplets:
    def test_shape_inferred(self):
        tensor, mask = tensor_from_quadruplets([(1, 2, 3, 0.5)])
        assert tensor.shape == (4, 2, 3)
        assert tensor[3, 1, 2] == 0.5
        assert mask[3, 1, 2]

    def test_invalid_markers_left_unobserved(self):
        """Dataset#2 marks failures as -1; they must not become observations."""
        tensor, mask = tensor_from_quadruplets(
            [(0, 0, 0, -1.0), (0, 1, 0, 2.0)]
        )
        assert not mask[0, 0, 0]
        assert mask[0, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no QoS"):
            tensor_from_quadruplets([])


class TestLoadDirectory:
    def _write_dataset(self, tmp_path):
        (tmp_path / "rtdata.txt").write_text(
            "0 0 0 1.5\n0 1 0 0.5\n1 0 1 2.5\n1 1 1 -1\n"
        )
        (tmp_path / "tpdata.txt").write_text("0 0 0 100.0\n")

    def test_load_rt(self, tmp_path):
        self._write_dataset(tmp_path)
        data = load_wsdream_directory(str(tmp_path), attribute="response_time")
        assert data.tensor.shape == (2, 2, 2)
        assert data.tensor[0, 0, 0] == 1.5
        assert not data.mask[1, 1, 1]  # -1 marker
        assert data.value_max == 20.0
        assert data.attribute == "response_time"

    def test_load_tp_via_alias(self, tmp_path):
        self._write_dataset(tmp_path)
        data = load_wsdream_directory(str(tmp_path), attribute="tp")
        assert data.value_max == 7000.0
        assert data.unit == "kbps"

    def test_missing_file_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="rtdata.txt"):
            load_wsdream_directory(str(tmp_path))

    def test_unknown_attribute(self, tmp_path):
        with pytest.raises(ValueError, match="attribute"):
            load_wsdream_directory(str(tmp_path), attribute="jitter")

    def test_loaded_data_feeds_pipeline(self, tmp_path):
        """Integration: real-format data flows into the slice/stream APIs."""
        self._write_dataset(tmp_path)
        data = load_wsdream_directory(str(tmp_path))
        matrix = data.slice(0)
        assert matrix.observed_values().size == 2
        from repro.datasets.stream import stream_from_matrix

        stream = stream_from_matrix(matrix, rng=0)
        assert len(stream) == 2
