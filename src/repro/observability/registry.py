"""Thread-safe, dependency-free metrics primitives with Prometheus output.

The serving stack (Fig. 3 of the paper) is consulted by a QoS manager that
must *see* the predictor: replay throughput, convergence behavior, WAL
latency, how often degraded fallbacks are served.  This module provides the
minimal metric vocabulary for that, using only the standard library:

* :class:`Counter` — monotonically increasing total.
* :class:`Gauge` — a value that goes up and down, or is computed at scrape
  time via :meth:`Gauge.set_function` (e.g. "seconds since the trainer last
  applied a batch").
* :class:`Histogram` — exact count/sum plus a *bounded* reservoir of the
  most recent observations from which quantiles are computed at read time.
  Memory is O(window) regardless of traffic, and the hot-path cost of
  :meth:`Histogram.observe` is one lock and one deque append.

All metrics hang off a :class:`MetricsRegistry`; :func:`get_registry`
returns the process-wide default every instrumented module shares, so one
``GET /metrics`` scrape covers the model core, the trainers, and the
durability layer at once.  :meth:`MetricsRegistry.render` emits the
Prometheus text exposition format (version 0.0.4); histograms render as
``summary`` families with quantile lines.  :func:`parse_prometheus_text`
is the matching strict parser, used by tests and the chaos drill to fail
on malformed output.

Instrumentation is designed to stay on in production; :func:`set_enabled`
exists so a harness can measure its overhead (the budget is < 5% of replay
throughput; the benchmark reports the traced share of a request as
``bench.trace_overhead_share``).
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque
from collections.abc import Iterator

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class _Switch:
    """Process-wide instrumentation on/off flag (a plain attribute read in
    the hot path, shared by every metric instance)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


_SWITCH = _Switch()


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable metric recording (scrapes keep working)."""
    _SWITCH.enabled = bool(enabled)


def is_enabled() -> bool:
    return _SWITCH.enabled


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class Counter:
    """A monotonically increasing total; thread-safe."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        if not _SWITCH.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up, down, or be computed at scrape time."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = None

    def set(self, value: float) -> None:
        if not _SWITCH.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _SWITCH.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn) -> None:
        """Compute the gauge lazily: ``fn()`` is called at every read.

        The callback must be cheap and must not raise; a raising callback
        reads as NaN rather than failing the whole scrape.
        """
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:  # noqa: BLE001 — a broken probe must not kill a scrape
            return float("nan")

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._fn = None


class _Timer:
    """Context manager that observes its wall-clock duration on exit."""

    __slots__ = ("_metric", "_start")

    def __init__(self, metric: "Histogram") -> None:
        self._metric = metric
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._metric.observe(time.perf_counter() - self._start)


class Histogram:
    """Exact count/sum plus bounded recent-window quantiles.

    ``window`` bounds memory: quantiles summarize the most recent
    observations only, which is the right semantics for drift-style
    monitoring (old latencies should age out).  ``quantiles`` are the
    summary points rendered on a scrape (nearest-rank over the window).
    """

    __slots__ = ("_lock", "_window", "_count", "_sum", "quantiles")

    def __init__(
        self,
        window: int = 1024,
        quantiles: tuple[float, ...] = (0.5, 0.9, 0.99),
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        for q in quantiles:
            if not (0.0 < q < 1.0):
                raise ValueError(f"quantiles must be in (0, 1), got {q}")
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self.quantiles = tuple(quantiles)

    def observe(self, value: float) -> None:
        if not _SWITCH.enabled:
            return
        value = float(value)
        with self._lock:
            self._window.append(value)
            self._count += 1
            self._sum += value

    def time(self) -> _Timer:
        """``with hist.time(): ...`` observes the block's duration."""
        return _Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile_values(self) -> dict[float, float]:
        """Nearest-rank quantiles over the bounded window (NaN when empty)."""
        with self._lock:
            data = sorted(self._window)
        if not data:
            return {q: float("nan") for q in self.quantiles}
        n = len(data)
        return {
            q: data[min(n - 1, max(0, math.ceil(q * n) - 1))]
            for q in self.quantiles
        }

    def _reset(self) -> None:
        with self._lock:
            self._window.clear()
            self._count = 0
            self._sum = 0.0


class _Family:
    """One named metric family: help text, type, and labeled children."""

    def __init__(self, name: str, help: str, kind: str, labelnames, factory) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._factory = factory
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = factory()

    def labels(self, **labels):
        """The child metric for one label-value combination (created lazily)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory()
                self._children[key] = child
            return child

    @property
    def unlabeled(self):
        return self._children[()]

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def _label_string(self, key: tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render_lines(self) -> Iterator[str]:
        exposition_type = "summary" if self.kind == "histogram" else self.kind
        if self.help:
            yield f"# HELP {self.name} {_escape_help(self.help)}"
        yield f"# TYPE {self.name} {exposition_type}"
        for key, metric in self.children():
            if self.kind in ("counter", "gauge"):
                yield f"{self.name}{self._label_string(key)} {_format_value(metric.value)}"
                continue
            for q, value in metric.quantile_values().items():
                if math.isnan(value):
                    continue
                labels = self._label_string(key, extra=f'quantile="{q}"')
                yield f"{self.name}{labels} {_format_value(value)}"
            labels = self._label_string(key)
            yield f"{self.name}_sum{labels} {_format_value(metric.sum)}"
            yield f"{self.name}_count{labels} {_format_value(metric.count)}"


class MetricsRegistry:
    """Get-or-create registry of metric families with Prometheus rendering.

    Creation is idempotent: asking twice for the same name returns the same
    object, so instrumented modules can bind handles at import time and
    tests can look the same metric up by name.  Re-registering a name with
    a different type or label set is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, name: str, help: str, kind: str, labelnames, factory):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help, kind, labelnames, factory)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} with "
                    f"labels {family.labelnames}; cannot re-register as {kind} "
                    f"with labels {tuple(labelnames)}"
                )
        return family if family.labelnames else family.unlabeled

    def counter(self, name: str, help: str = "", labelnames=()) -> "Counter | _Family":
        """A counter (or, with ``labelnames``, a family of counters)."""
        return self._get_or_create(name, help, "counter", labelnames, Counter)

    def gauge(self, name: str, help: str = "", labelnames=()) -> "Gauge | _Family":
        return self._get_or_create(name, help, "gauge", labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        window: int = 1024,
        quantiles: tuple[float, ...] = (0.5, 0.9, 0.99),
    ) -> "Histogram | _Family":
        return self._get_or_create(
            name,
            help,
            "histogram",
            labelnames,
            lambda: Histogram(window=window, quantiles=quantiles),
        )

    def families(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: list[str] = []
        for family in families:
            lines.extend(family.render_lines())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every metric in place (test isolation).

        Metric objects keep their identity — module-level handles bound at
        import time stay valid — but values, histogram windows, and gauge
        callbacks are cleared.
        """
        with self._lock:
            families = list(self._families.values())
        for family in families:
            for __, metric in family.children():
                metric._reset()


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry all instrumented modules share."""
    return _DEFAULT_REGISTRY


_SAMPLE_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+\d+)?$"  # optional timestamp
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Strictly parse Prometheus text exposition; raise ``ValueError`` on
    malformed input.

    Returns ``{family_name: {"type": ..., "samples": {(name, labels): value}}}``
    where ``labels`` is a sorted tuple of ``(label, value)`` pairs.  Every
    sample must belong to a family declared by a preceding ``# TYPE`` line
    (``summary`` families also own their ``_sum``/``_count`` series).
    """
    families: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {raw!r}")
            __, __, name, kind = parts
            if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
            families[name] = {"type": kind, "samples": {}}
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {raw!r}")
        name = match.group("name")
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: malformed sample value {value_text!r}"
            ) from exc
        family_name = name
        if family_name not in families:
            for suffix in ("_sum", "_count", "_bucket"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    family_name = name[: -len(suffix)]
                    break
        family = families.get(family_name)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding TYPE declaration"
            )
        labels_text = match.group("labels") or ""
        labels = []
        if labels_text:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(labels_text):
                labels.append((pair.group(1), pair.group(2)))
                consumed = pair.end()
            remainder = labels_text[consumed:].strip().strip(",")
            if remainder:
                raise ValueError(
                    f"line {lineno}: malformed label set {labels_text!r}"
                )
        family["samples"][(name, tuple(sorted(labels)))] = value
    return families
