"""Datasets: containers, the WS-DREAM statistical twin generator, the real
WS-DREAM text-format loader, density sampling, and stream conversion."""

from repro.datasets.schema import QoSMatrix, QoSRecord, TimeSlicedQoS
from repro.datasets.synthetic import SyntheticConfig, WSDreamGenerator, generate_dataset
from repro.datasets.sampling import (
    mask_matrix_to_density,
    train_test_split_matrix,
)
from repro.datasets.stream import QoSStream, stream_from_matrix, stream_from_slices
from repro.datasets.wsdream import load_wsdream_directory

__all__ = [
    "QoSMatrix",
    "QoSRecord",
    "TimeSlicedQoS",
    "SyntheticConfig",
    "WSDreamGenerator",
    "generate_dataset",
    "mask_matrix_to_density",
    "train_test_split_matrix",
    "QoSStream",
    "stream_from_matrix",
    "stream_from_slices",
    "load_wsdream_directory",
]
