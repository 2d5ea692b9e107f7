"""Tests for running experiments against pre-loaded (real-format) data."""

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.datasets.wsdream import load_wsdream_directory
from repro.experiments import runner
from repro.experiments.runner import FixedDatasetScale
from repro.experiments.accuracy import run_table1
from repro.experiments.density_impact import run_density_impact


@pytest.fixture(scope="module")
def tensors():
    rt = generate_dataset(n_users=30, n_services=60, n_slices=2, seed=9)
    tp = generate_dataset(n_users=30, n_services=60, n_slices=2, seed=9, attribute="tp")
    return rt, tp


class TestConstruction:
    def test_shape_properties(self, tensors):
        rt, tp = tensors
        scale = FixedDatasetScale.from_tensors(rt, tp, reruns=1, seed=1)
        assert (scale.n_users, scale.n_services, scale.n_slices) == (30, 60, 2)

    def test_requires_at_least_one_tensor(self):
        with pytest.raises(ValueError, match="at least one"):
            FixedDatasetScale.from_tensors()

    def test_shape_mismatch_rejected(self, tensors):
        rt, __ = tensors
        other = generate_dataset(n_users=10, n_services=60, n_slices=2, seed=9)
        with pytest.raises(ValueError, match="shape"):
            FixedDatasetScale.from_tensors(rt, other)

    def test_dataset_aliases(self, tensors):
        rt, tp = tensors
        scale = FixedDatasetScale.from_tensors(rt, tp)
        assert scale.dataset("rt") is rt
        assert scale.dataset("throughput") is tp

    def test_missing_attribute_named(self, tensors):
        rt, __ = tensors
        scale = FixedDatasetScale.from_tensors(response_time=rt)
        with pytest.raises(KeyError, match="throughput"):
            scale.dataset("tp")

    def test_with_updates(self, tensors):
        rt, __ = tensors
        scale = FixedDatasetScale.from_tensors(response_time=rt, reruns=1)
        assert scale.with_updates(reruns=5).reruns == 5


class TestExperimentsRunOnFixedData:
    def test_table1(self, tensors, monkeypatch):
        rt, __ = tensors
        monkeypatch.setattr(runner, "APPROACHES", ("UIPCC", "AMF"))
        scale = FixedDatasetScale.from_tensors(response_time=rt, reruns=1, seed=1)
        result = run_table1(scale, densities=(0.3,), attributes=("response_time",))
        cell = result.results["response_time"][0.3]
        assert np.isfinite(cell["AMF"].metrics["MRE"])

    def test_density_impact(self, tensors):
        rt, __ = tensors
        scale = FixedDatasetScale.from_tensors(response_time=rt, reruns=1, seed=1)
        result = run_density_impact(scale, densities=(0.2, 0.4))
        assert len(result.metrics["MRE"]) == 2

    def test_wsdream_files_through_experiments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "APPROACHES", ("AMF",))
        """The real-format loader feeds the experiment pipeline end to end."""
        rng = np.random.default_rng(3)
        lines = []
        for t in range(2):
            for u in range(20):
                for s in range(30):
                    if rng.random() < 0.8:
                        lines.append(f"{u} {s} {t} {rng.uniform(0.05, 8.0):.4f}")
        (tmp_path / "rtdata.txt").write_text("\n".join(lines))
        data = load_wsdream_directory(str(tmp_path))
        scale = FixedDatasetScale.from_tensors(response_time=data, reruns=1, seed=2)
        result = run_table1(scale, densities=(0.3,), attributes=("response_time",))
        assert np.isfinite(
            result.results["response_time"][0.3]["AMF"].metrics["MRE"]
        )
