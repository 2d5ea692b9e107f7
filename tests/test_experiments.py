"""Tests for the experiment modules: each one runs at tiny scale and must
produce a structurally valid result with the paper's qualitative shape.
"""

import numpy as np
import pytest

from repro.experiments import distributions, error_dist, runner, scalability, spectrum
from repro.experiments.accuracy import Table1Result, run_table1
from repro.experiments.data_stats import run_data_stats
from repro.experiments.density_impact import run_density_impact
from repro.experiments.distributions import run_distributions
from repro.experiments.efficiency import run_efficiency
from repro.experiments.error_dist import run_error_dist
from repro.experiments.runner import (
    ApproachResult,
    ExperimentScale,
    average_results,
    compare_on_slice,
    make_amf_config,
    make_pmf_config,
)
from repro.experiments.scalability import run_scalability
from repro.experiments.spectrum import run_spectrum
from repro.experiments.transform_impact import run_transform_impact

TINY = ExperimentScale(n_users=30, n_services=60, n_slices=3, reruns=1, seed=5)
# Shape assertions (who wins, what decreases) need enough data to rise above
# sampling noise; MID is the smallest scale where they hold across seeds.
MID = ExperimentScale(n_users=60, n_services=120, n_slices=3, reruns=1, seed=5)


class TestRunnerHelpers:
    def test_scale_presets(self):
        assert ExperimentScale.paper().n_services == 4500
        assert ExperimentScale.quick().n_users == 142
        assert ExperimentScale.tiny().reruns == 1

    def test_make_amf_config_attributes(self):
        assert make_amf_config("rt").alpha == -0.007
        assert make_amf_config("throughput").value_max == 7000.0
        with pytest.raises(ValueError):
            make_amf_config("jitter")

    def test_make_pmf_config_ranges(self):
        assert make_pmf_config("rt").value_max == 20.0
        assert make_pmf_config("tp").value_max == 7000.0

    def test_average_results(self):
        runs = [
            {"A": ApproachResult("A", {"MRE": 0.2}, fit_seconds=1.0)},
            {"A": ApproachResult("A", {"MRE": 0.4}, fit_seconds=3.0)},
        ]
        averaged = average_results(runs)
        assert averaged["A"].metrics["MRE"] == pytest.approx(0.3)
        assert averaged["A"].fit_seconds == pytest.approx(2.0)

    def test_average_results_empty_rejected(self):
        with pytest.raises(ValueError):
            average_results([])

    def test_compare_on_slice_approach_filter(self, monkeypatch):
        monkeypatch.setattr(runner, "APPROACHES", ("PMF",))
        matrix = TINY.dataset("response_time").slice(0)
        results = compare_on_slice(matrix, "response_time", 0.3, rng=0)
        assert set(results) == {"PMF"}


class TestDataStats:
    def test_structure(self):
        result = run_data_stats(TINY)
        assert result.rt_stats["n_users"] == 30
        assert len(result.pair_series) == 3  # one point per slice
        assert np.all(np.diff(result.user_series) >= 0)  # sorted
        text = result.to_text()
        assert "Fig. 6" in text

    def test_fig2a_pair_is_fully_observed(self):
        result = run_data_stats(TINY)
        data = TINY.dataset("response_time")
        assert data.mask[:, result.pair_user, result.pair_service].all()


class TestDistributions:
    def test_rt_structure(self, monkeypatch):
        monkeypatch.setattr(distributions, "BINS", 20)
        result = run_distributions(TINY, attribute="response_time")
        assert result.raw_centers.shape == (20,)
        assert result.raw_density.sum() <= 1.0 + 1e-9
        assert 0 <= result.transformed_centers.min() <= 1

    def test_transform_reduces_skew(self):
        """The Fig. 7 -> Fig. 8 story."""
        result = run_distributions(TINY, attribute="response_time")
        assert abs(result.skewness_transformed) < abs(result.skewness_raw)

    def test_tp_cutoff(self):
        result = run_distributions(TINY, attribute="throughput")
        assert result.raw_centers.max() < 150.0


class TestSpectrum:
    def test_structure(self, monkeypatch):
        monkeypatch.setattr(spectrum, "TOP_K", 10)
        result = run_spectrum(TINY)
        assert result.rt_spectrum[0] == pytest.approx(1.0)
        assert result.tp_spectrum[0] == pytest.approx(1.0)
        assert np.all(np.diff(result.rt_spectrum) <= 1e-12)

    def test_low_rank_shape(self, monkeypatch):
        """Fig. 9: the tail of the spectrum is far below the head."""
        monkeypatch.setattr(spectrum, "TOP_K", 20)
        result = run_spectrum(TINY)
        assert result.rt_spectrum[-1] < 0.35
        assert result.rt_effective_rank <= 15


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self) -> Table1Result:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "APPROACHES", ("UIPCC", "PMF", "AMF"))
            return run_table1(TINY, densities=(0.2, 0.4), attributes=("response_time",))

    def test_structure(self, result):
        assert set(result.results["response_time"]) == {0.2, 0.4}
        cell = result.results["response_time"][0.2]
        assert set(cell) == {"UIPCC", "PMF", "AMF"}
        for approach in cell.values():
            assert set(approach.metrics) == {"MAE", "MRE", "NPRE"}

    def test_amf_wins_npre(self, result):
        """The paper's most robust headline: AMF dominates NPRE."""
        for density in (0.2, 0.4):
            cell = result.results["response_time"][density]
            others = min(
                cell[name].metrics["NPRE"] for name in cell if name != "AMF"
            )
            assert cell["AMF"].metrics["NPRE"] < others

    def test_improvement_row(self, result):
        value = result.improvement("response_time", 0.2, "NPRE")
        assert value > 0

    def test_to_text_contains_rows(self, result):
        text = result.to_text()
        assert "AMF" in text and "Improve.(%)" in text and "NPRE@20%" in text


class TestErrorDist:
    def test_structure(self, monkeypatch):
        monkeypatch.setattr(error_dist, "BINS", 24)
        result = run_error_dist(TINY, density=0.3)
        assert set(result.densities) == {"UIPCC", "PMF", "AMF"}
        for histogram in result.densities.values():
            assert histogram.shape == (24,)

    def test_fig10_shape(self, monkeypatch):
        # Fig. 10 shape: AMF concentrates the most mass near zero error.
        monkeypatch.setattr(error_dist, "BINS", 24)
        result = run_error_dist(MID, density=0.3)
        assert result.central_mass["AMF"] >= max(
            result.central_mass["UIPCC"], result.central_mass["PMF"]
        )


class TestTransformImpact:
    def test_ordering(self):
        result = run_transform_impact(MID, densities=(0.3,))
        assert set(result.mre) == {"PMF", "AMF(alpha=1)", "AMF"}
        # Fig. 11 shape: tuned AMF at least matches the linear variant, and
        # beats PMF outright.
        assert result.mre["AMF"][0] < result.mre["PMF"][0]
        assert result.mre["AMF"][0] <= result.mre["AMF(alpha=1)"][0] * 1.1


class TestDensityImpact:
    def test_error_decreases_with_density(self):
        result = run_density_impact(TINY, densities=(0.05, 0.2, 0.5))
        mre_series = result.metrics["MRE"]
        assert mre_series[-1] < mre_series[0]
        assert set(result.metrics) == {"MAE", "MRE", "NPRE"}


class TestEfficiency:
    def test_structure(self):
        result = run_efficiency(TINY)  # all 3 slices
        assert set(result.seconds) == {"UIPCC", "PMF", "AMF (retrain)", "AMF"}
        for series in result.seconds.values():
            assert len(series) == 3
            assert all(s >= 0 for s in series)

    def test_text_rendering(self):
        result = run_efficiency(TINY)
        assert "Fig. 13" in result.to_text()


class TestScalability:
    @pytest.fixture(scope="class")
    def result(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scalability, "WARMUP_EPOCHS", 10)
            patch.setattr(scalability, "POST_JOIN_EPOCHS", 10)
            return run_scalability(MID, checkpoint_updates=5_000)

    def test_checkpoints_recorded(self, result):
        assert len(result.checkpoints) >= 3
        assert result.join_updates > 0

    def test_new_entities_tracked_only_after_join(self, result):
        for cp in result.checkpoints:
            if cp.updates <= result.join_updates:
                assert np.isnan(cp.mre_new)
            else:
                assert np.isfinite(cp.mre_new)

    def test_fig14_shape(self, result):
        """Existing-entity MRE stays roughly flat; new-entity MRE drops."""
        assert abs(result.existing_drift()) < 0.15
        post = [cp.mre_new for cp in result.checkpoints if np.isfinite(cp.mre_new)]
        assert post[-1] <= post[0] + 0.02  # drops, modulo checkpoint noise

    def test_text_rendering(self, result):
        assert "Fig. 14" in result.to_text()
