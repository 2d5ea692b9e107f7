"""Loader for the real WS-DREAM dataset #2 text layout.

The public dataset the paper uses ships as sparse triplet/quadruplet text
files (``rtdata.txt`` / ``tpdata.txt`` with lines
``user_id service_id time_slice value``).  This environment has no network
access, so the experiments default to the synthetic twin
(:mod:`repro.datasets.synthetic`); this loader exists so the entire harness
runs unchanged against the genuine data when a copy is placed on disk.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

import numpy as np

from repro.datasets.schema import TimeSlicedQoS

#: Conventional file names inside a WS-DREAM dataset#2 directory.
ATTRIBUTE_FILES = {
    "response_time": "rtdata.txt",
    "rt": "rtdata.txt",
    "throughput": "tpdata.txt",
    "tp": "tpdata.txt",
}

#: Value ranges documented for dataset#2 (and used by the paper's Fig. 6).
ATTRIBUTE_RANGES = {
    "rtdata.txt": (0.0, 20.0, "response_time", "s"),
    "tpdata.txt": (0.0, 7000.0, "throughput", "kbps"),
}


def parse_quadruplet_lines(
    lines: Iterable[str],
) -> list[tuple[int, int, int, float]]:
    """Parse ``user service slice value`` lines, skipping blanks/comments.

    Raises ``ValueError`` with the line number on malformed input.
    """
    parsed: list[tuple[int, int, int, float]] = []
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 4:
            raise ValueError(
                f"line {line_number}: expected 4 fields "
                f"'user service slice value', got {len(parts)}: {stripped!r}"
            )
        try:
            user_id, service_id, slice_id = int(parts[0]), int(parts[1]), int(parts[2])
            value = float(parts[3])
        except ValueError as exc:
            raise ValueError(f"line {line_number}: cannot parse {stripped!r}") from exc
        if min(user_id, service_id, slice_id) < 0:
            raise ValueError(f"line {line_number}: negative index in {stripped!r}")
        parsed.append((user_id, service_id, slice_id, value))
    return parsed


def tensor_from_quadruplets(
    quadruplets: list[tuple[int, int, int, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Build (tensor, mask) from sparse quadruplets, shaped by the largest
    ids seen.

    Dataset#2 marks failed measurements with ``-1``; those entries (any
    negative value) are left unobserved in the mask.
    """
    if not quadruplets:
        raise ValueError("no QoS quadruplets to build a tensor from")
    n_users = max(q[0] for q in quadruplets) + 1
    n_services = max(q[1] for q in quadruplets) + 1
    n_slices = max(q[2] for q in quadruplets) + 1
    tensor = np.zeros((n_slices, n_users, n_services), dtype=float)
    mask = np.zeros((n_slices, n_users, n_services), dtype=bool)
    for user_id, service_id, slice_id, value in quadruplets:
        if value < 0:
            continue
        tensor[slice_id, user_id, service_id] = value
        mask[slice_id, user_id, service_id] = True
    return tensor, mask


def load_wsdream_directory(
    path: str,
    attribute: str = "response_time",
    slice_seconds: float = 900.0,
) -> TimeSlicedQoS:
    """Load one QoS attribute from a WS-DREAM dataset#2 directory.

    Expects ``rtdata.txt`` / ``tpdata.txt`` inside ``path``.  Returns a
    :class:`TimeSlicedQoS` with the documented value ranges attached.
    """
    if attribute not in ATTRIBUTE_FILES:
        raise ValueError(
            f"attribute must be one of {sorted(ATTRIBUTE_FILES)}, got {attribute!r}"
        )
    filename = ATTRIBUTE_FILES[attribute]
    file_path = os.path.join(path, filename)
    if not os.path.exists(file_path):
        raise FileNotFoundError(
            f"{file_path} not found — place the WS-DREAM dataset#2 files there, "
            f"or use repro.datasets.synthetic for the statistical twin"
        )
    with open(file_path) as handle:
        quadruplets = parse_quadruplet_lines(handle)
    tensor, mask = tensor_from_quadruplets(quadruplets)
    value_min, value_max, canonical_name, unit = ATTRIBUTE_RANGES[filename]
    return TimeSlicedQoS(
        tensor=tensor,
        mask=mask,
        attribute=canonical_name,
        unit=unit,
        slice_seconds=slice_seconds,
        value_min=value_min,
        value_max=value_max,
    )
