"""Rolling stream-accuracy monitor: live MAE/MRE/NPRE against arrivals.

The paper evaluates prediction quality offline with MAE, MRE, and NPRE
(Section V-B).  A serving deployment needs the same signal *online*: every
arriving observation is also a ground-truth label for the prediction the
model would have served a moment earlier, so comparing the pre-update
prediction against the observed value yields a continuously updated
accuracy estimate — exactly the drift signal outlier-resilient QoS work
shows live streams need.

:class:`StreamAccuracyMonitor` keeps a bounded window of
``(predicted, actual)`` pairs and computes the three Section V-B metrics
over it on demand.  The formulas intentionally mirror
:mod:`repro.metrics.errors` (floor-clamped relative errors) but are inlined
here so the observability layer stays free of intra-repo dependencies.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

#: Same zero-guard as repro.metrics.errors.relative_errors.
_RELATIVE_FLOOR = 1e-9


class StreamAccuracyMonitor:
    """Windowed MAE/MRE/NPRE of the live observation stream.

    ``window`` is how many most-recent ``(predicted, actual)`` pairs are
    scored; it bounds memory and makes the metrics *drift* metrics (old
    accuracy ages out).  ``percentile`` is the NPRE percentile (the paper
    uses 90).
    """

    window = 512
    percentile = 90.0

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._predicted: deque[float] = deque(maxlen=self.window)
        self._actual: deque[float] = deque(maxlen=self.window)

    def record(self, predicted: float, actual: float) -> None:
        """Score one arrival against the prediction that preceded it.

        Non-finite pairs are ignored — a poisoned model is the health
        system's problem; here it would only corrupt the accuracy window.
        """
        predicted = float(predicted)
        actual = float(actual)
        if not (np.isfinite(predicted) and np.isfinite(actual)):
            return
        with self._lock:
            self._predicted.append(predicted)
            self._actual.append(actual)

    def snapshot(self) -> dict[str, float]:
        """Current windowed metrics: ``{window, mae, mre, npre}``.

        The error metrics are NaN while the window is empty.
        """
        with self._lock:
            predicted = np.array(self._predicted, dtype=float)
            actual = np.array(self._actual, dtype=float)
        if predicted.size == 0:
            return {
                "window": 0,
                "mae": float("nan"),
                "mre": float("nan"),
                "npre": float("nan"),
            }
        absolute = np.abs(predicted - actual)
        relative = absolute / np.maximum(np.abs(actual), _RELATIVE_FLOOR)
        return {
            "window": int(predicted.size),
            "mae": float(absolute.mean()),
            "mre": float(np.median(relative)),
            "npre": float(np.percentile(relative, self.percentile)),
        }

    def bind(self, registry, prefix: str = "qos_stream") -> None:
        """Expose the windowed metrics as scrape-time gauges on ``registry``.

        Registers ``{prefix}_mae`` / ``_mre`` / ``_npre`` / ``_window_size``
        gauges whose values are computed from the monitor at read time.
        """
        specs = {
            "mae": "Windowed mean absolute error of served predictions vs arrivals",
            "mre": "Windowed median relative error of served predictions vs arrivals",
            "npre": "Windowed 90th-percentile relative error vs arrivals",
        }
        for key, help_text in specs.items():
            gauge = registry.gauge(f"{prefix}_{key}", help_text)
            gauge.set_function(lambda key=key: self.snapshot()[key])
        size = registry.gauge(
            f"{prefix}_window_size",
            "Number of (prediction, observation) pairs in the accuracy window",
        )
        size.set_function(lambda: self.snapshot()["window"])
