"""Tests for repro.observability: registry primitives, Prometheus
rendering/parsing, timing helpers, and the stream-accuracy drift monitor."""

import math
import threading

import numpy as np
import pytest

from repro.metrics.errors import mae, mre, npre
from repro.observability import (
    Histogram,
    MetricsRegistry,
    StreamAccuracyMonitor,
    get_registry,
    parse_prometheus_text,
    timed,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("c_total", "help")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("c_total")
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1.0)

    def test_concurrent_increments_are_not_lost(self, registry):
        """8 threads x 1000 increments must land exactly: unprotected
        ``+=`` under free-threading would drop updates."""
        counter = registry.counter("c_total")
        n_threads, n_incs = 8, 1000

        def hammer():
            for __ in range(n_incs):
                counter.inc()

        threads = [threading.Thread(target=hammer) for __ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * n_incs


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.inc(-3.0)
        assert gauge.value == 4.0

    def test_set_function_reads_lazily(self, registry):
        gauge = registry.gauge("g")
        state = {"v": 1.0}
        gauge.set_function(lambda: state["v"])
        assert gauge.value == 1.0
        state["v"] = 7.0
        assert gauge.value == 7.0

    def test_raising_callback_reads_as_nan(self, registry):
        gauge = registry.gauge("g")
        gauge.set_function(lambda: 1 / 0)
        assert math.isnan(gauge.value)


class TestHistogram:
    def test_quantiles_nearest_rank(self, registry):
        hist = registry.histogram("h")  # quantiles 0.5 / 0.9 / 0.99
        for v in range(1, 101):
            hist.observe(float(v))
        q = hist.quantile_values()
        assert q[0.5] == 50.0
        assert q[0.9] == 90.0
        assert q[0.99] == 99.0
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050.0)

    def test_window_bounds_memory_but_not_totals(self, registry):
        hist = registry.histogram("h")
        n = 3 * Histogram.window
        for v in range(n):
            hist.observe(float(v))
        # Quantiles summarize the last ``window`` observations only...
        assert hist.quantile_values()[0.5] >= n - Histogram.window
        # ...while count/sum stay exact over everything observed.
        assert hist.count == n
        assert hist.sum == pytest.approx(sum(range(n)))

    def test_empty_histogram_quantiles_are_nan(self, registry):
        hist = registry.histogram("h")
        assert all(math.isnan(v) for v in hist.quantile_values().values())

    def test_time_context_manager_observes_duration(self, registry):
        hist = registry.histogram("h")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.sum >= 0.0


class TestFamilies:
    def test_labels_create_independent_children(self, registry):
        family = registry.counter("f_total", "help", labelnames=("kind",))
        family.labels(kind="a").inc()
        family.labels(kind="a").inc()
        family.labels(kind="b").inc(5)
        assert family.labels(kind="a").value == 2
        assert family.labels(kind="b").value == 5

    def test_wrong_label_names_rejected(self, registry):
        family = registry.counter("f_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(other="x")

    def test_get_or_create_returns_same_object(self, registry):
        first = registry.counter("same_total")
        second = registry.counter("same_total")
        assert first is second

    def test_re_registration_with_different_kind_rejected(self, registry):
        registry.counter("clash")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("clash")

    def test_re_registration_with_different_labels_rejected(self, registry):
        registry.counter("clash_total", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("clash_total", labelnames=("b",))

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")

    def test_invalid_label_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", labelnames=("0bad",))


class TestRenderAndParse:
    def test_roundtrip(self, registry):
        registry.counter("req_total", "requests", labelnames=("code",)).labels(
            code="200"
        ).inc(3)
        registry.gauge("temp", "temperature").set(21.5)
        hist = registry.histogram("lat_seconds", "latency")
        hist.observe(0.1)
        hist.observe(0.3)
        families = parse_prometheus_text(registry.render())
        assert families["req_total"]["type"] == "counter"
        assert families["req_total"]["samples"][
            ("req_total", (("code", "200"),))
        ] == 3
        assert families["temp"]["samples"][("temp", ())] == 21.5
        assert families["lat_seconds"]["type"] == "summary"
        assert families["lat_seconds"]["samples"][
            ("lat_seconds_count", ())
        ] == 2
        assert families["lat_seconds"]["samples"][
            ("lat_seconds_sum", ())
        ] == pytest.approx(0.4)

    def test_label_values_are_escaped(self, registry):
        registry.counter("esc_total", labelnames=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        text = registry.render()
        families = parse_prometheus_text(text)
        (key,) = [
            k for k in families["esc_total"]["samples"] if k[0] == "esc_total"
        ]
        # The parser keeps escape sequences verbatim; the round trip must
        # at least survive strict parsing and preserve one sample.
        assert families["esc_total"]["samples"][key] == 1

    def test_parse_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            parse_prometheus_text("orphan_metric 1\n")

    def test_parse_rejects_malformed_type_line(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus_text("# TYPE incomplete\n")

    def test_parse_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_prometheus_text("# TYPE m weird\n")

    def test_parse_rejects_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus_text("# TYPE m counter\n# TYPE m counter\n")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("# TYPE m counter\nm notanumber extra junk\n")

    def test_parse_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="malformed label set"):
            parse_prometheus_text('# TYPE m counter\nm{a=unquoted} 1\n')

    def test_non_finite_values_render_and_parse(self, registry):
        registry.gauge("g_nan").set(float("nan"))
        registry.gauge("g_inf").set(float("inf"))
        families = parse_prometheus_text(registry.render())
        assert math.isnan(families["g_nan"]["samples"][("g_nan", ())])
        assert math.isinf(families["g_inf"]["samples"][("g_inf", ())])


class TestRegistryLifecycle:
    def test_reset_zeroes_in_place(self, registry):
        counter = registry.counter("c_total")
        hist = registry.histogram("h")
        gauge = registry.gauge("g")
        counter.inc(5)
        hist.observe(1.0)
        gauge.set_function(lambda: 42.0)
        registry.reset()
        assert counter.value == 0.0  # same object, zeroed
        assert hist.count == 0
        assert gauge.value == 0.0  # callback cleared too
        assert registry.counter("c_total") is counter

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestTimingHelpers:
    def test_timed_decorator(self, registry):
        hist = registry.histogram("h")

        @timed(hist)
        def work(x):
            return x * 2

        assert work(21) == 42
        assert hist.count == 1


class TestStreamAccuracyMonitor:
    def test_matches_reference_error_metrics(self):
        """The inlined windowed formulas must agree with repro.metrics."""
        rng = np.random.default_rng(0)
        actual = rng.uniform(0.1, 5.0, size=200)
        predicted = actual * rng.uniform(0.8, 1.2, size=200)
        monitor = StreamAccuracyMonitor()  # window 512, NPRE at the 90th
        for p, a in zip(predicted, actual):
            monitor.record(float(p), float(a))
        snap = monitor.snapshot()
        assert snap["window"] == 200
        assert snap["mae"] == pytest.approx(mae(predicted, actual))
        assert snap["mre"] == pytest.approx(mre(predicted, actual))
        assert snap["npre"] == pytest.approx(npre(predicted, actual, 90.0))

    def test_window_evicts_old_pairs(self):
        monitor = StreamAccuracyMonitor()
        window = StreamAccuracyMonitor.window
        for __ in range(50):
            monitor.record(2.0, 1.0)  # absolute error 1
        for __ in range(window):
            monitor.record(1.0, 1.0)  # absolute error 0 fills the window
        snap = monitor.snapshot()
        assert snap["window"] == window
        assert snap["mae"] == 0.0

    def test_empty_snapshot_is_nan(self):
        snap = StreamAccuracyMonitor().snapshot()
        assert snap["window"] == 0
        assert math.isnan(snap["mae"])
        assert math.isnan(snap["mre"])
        assert math.isnan(snap["npre"])

    def test_non_finite_pairs_ignored(self):
        monitor = StreamAccuracyMonitor()
        monitor.record(float("nan"), 1.0)
        monitor.record(1.0, float("inf"))
        assert monitor.snapshot()["window"] == 0

    def test_bind_registers_gauges(self):
        registry = MetricsRegistry()
        monitor = StreamAccuracyMonitor()
        monitor.bind(registry, prefix="acc")
        monitor.record(1.5, 1.0)
        families = parse_prometheus_text(registry.render())
        assert families["acc_mae"]["samples"][("acc_mae", ())] == pytest.approx(
            0.5
        )
        assert families["acc_window_size"]["samples"][
            ("acc_window_size", ())
        ] == 1
