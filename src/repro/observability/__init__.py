"""Observability for the online-prediction loop (extension).

A QoS manager adapting at runtime (Section III of the paper) needs to see
how the predictor behind it is doing: replay throughput and convergence,
WAL/checkpoint latency, crash/restart churn, which fallback sources are
serving, and whether live accuracy is drifting.  This package provides a
dependency-free metrics layer for all of that:

* :mod:`repro.observability.registry` — thread-safe counters, gauges, and
  bounded histograms in a get-or-create :class:`MetricsRegistry`, rendered
  in the Prometheus text exposition format (and strictly re-parsable via
  :func:`parse_prometheus_text`).
* :mod:`repro.observability.timing` — ``with time_block(hist)`` /
  ``@timed(hist)`` wall-clock helpers.
* :mod:`repro.observability.drift` — :class:`StreamAccuracyMonitor`, the
  windowed live MAE/MRE/NPRE (Section V-B metrics computed online).

Every instrumented module records into the shared default registry
(:func:`get_registry`), which ``GET /metrics`` on the prediction server
renders.  Recording is cheap enough to stay on by default;
:func:`set_enabled` exists so benchmarks can quantify the overhead.
"""

from repro._lazy import lazy_exports
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    is_enabled,
    parse_prometheus_text,
    set_enabled,
)
from repro.observability.timing import time_block, timed

# The drift monitor is the one export that needs numpy.
__getattr__ = lazy_exports(
    __name__, {"StreamAccuracyMonitor": "repro.observability.drift"}
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StreamAccuracyMonitor",
    "get_registry",
    "is_enabled",
    "parse_prometheus_text",
    "set_enabled",
    "time_block",
    "timed",
]
