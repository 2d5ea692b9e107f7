"""Tests for the extension experiments: parameter sweeps and selection
quality."""

import numpy as np
import pytest

from repro.experiments.parameter_impact import (
    DEFAULT_SWEEPS,
    run_all_parameters,
    run_parameter_impact,
)
from repro.experiments.runner import ExperimentScale
from repro.experiments import selection_quality
from repro.experiments.selection_quality import run_selection_quality

TINY = ExperimentScale(n_users=30, n_services=60, n_slices=1, reruns=1, seed=5)
MID = ExperimentScale(n_users=80, n_services=160, n_slices=1, reruns=1, seed=5)


class TestParameterImpact:
    def test_structure(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_SWEEPS, "rank", (2, 10))
        result = run_parameter_impact(TINY, parameter="rank")
        assert result.values == (2, 10)
        assert len(result.mre) == 2
        assert all(np.isfinite(result.mre))
        assert "rank" in result.to_text()

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            run_parameter_impact(TINY, parameter="gamma")

    def test_default_sweeps_cover_paper_values(self):
        assert 10 in DEFAULT_SWEEPS["rank"]
        assert 0.8 in DEFAULT_SWEEPS["learning_rate"]
        assert 0.3 in DEFAULT_SWEEPS["beta"]
        assert 1e-3 in DEFAULT_SWEEPS["lambda"]

    def test_paper_rank_near_optimal(self, monkeypatch):
        """The paper's rank (d = 10) sits within noise of the best swept
        value — the additive-dominant structure means tiny ranks are not
        catastrophically better or worse, so we check relative closeness
        rather than a strict ordering."""
        monkeypatch.setitem(DEFAULT_SWEEPS, "rank", (1, 10))
        result = run_parameter_impact(MID, parameter="rank")
        best = min(result.mre)
        assert result.mre[result.values.index(10)] <= best * 1.15

    def test_run_all_parameters_keys(self):
        results = run_all_parameters(TINY.with_updates(n_users=20, n_services=40))
        assert set(results) == set(DEFAULT_SWEEPS)


class TestSelectionQuality:
    @pytest.fixture(scope="class")
    def result(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selection_quality, "POOL_SIZE", 8)
            patch.setattr(selection_quality, "N_POOLS", 150)
            return run_selection_quality(MID, density=0.2)

    def test_structure(self, result):
        assert set(result.metrics) == {"UPCC", "IPCC", "UIPCC", "PMF", "AMF"}
        for metrics in result.metrics.values():
            assert set(metrics) == {"top-1 hit", "top-3 hit", "regret (s)", "SLA accuracy"}
            assert 0.0 <= metrics["top-1 hit"] <= 1.0
            assert metrics["top-1 hit"] <= metrics["top-3 hit"]
            assert metrics["regret (s)"] >= 0.0

    def test_timeseries_coverage_is_zero(self, result):
        """Candidate pools are held-out pairs: per-pair forecasters have no
        history for them."""
        assert result.timeseries_coverage == 0.0

    def test_amf_beats_random_guessing(self, result):
        assert result.metrics["AMF"]["top-1 hit"] > 1.0 / result.pool_size
        assert result.metrics["AMF"]["top-3 hit"] > 3.0 / result.pool_size

    def test_to_text(self, result):
        text = result.to_text()
        assert "Candidate-selection quality" in text
        assert "coverage" in text


class TestAllSlices:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.all_slices import run_all_slices

        return run_all_slices(
            ExperimentScale(n_users=40, n_services=80, n_slices=3, reruns=1, seed=5),
            density=0.2,
        )

    def test_structure(self, result):
        assert set(result.per_slice) == {"UIPCC", "PMF", "AMF"}
        for series in result.per_slice.values():
            assert len(series) == 3
            for entry in series:
                assert set(entry) == {"MAE", "MRE", "NPRE"}

    def test_averages_consistent(self, result):
        manual = np.mean([s["MRE"] for s in result.per_slice["AMF"]])
        assert result.average("AMF", "MRE") == pytest.approx(manual)

    def test_series_accessor(self, result):
        series = result.series("UIPCC", "NPRE")
        assert len(series) == 3
        assert all(np.isfinite(series))

    def test_to_text(self, result):
        text = result.to_text()
        assert "all slices" in text and "per-slice MRE" in text
