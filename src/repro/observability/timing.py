"""Timing helper over the metric primitives.

Thin sugar so instrumented code reads as *what* is being timed rather than
perf_counter arithmetic: the ``@timed(histogram)`` decorator observes every
call's wall-clock duration into any object with an ``observe(seconds)``
method (normally a :class:`~repro.observability.registry.Histogram`).
"""

from __future__ import annotations

import functools
import time


def timed(metric):
    """Decorator: observe every call's duration into ``metric``."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                metric.observe(time.perf_counter() - started)

        return wrapper

    return decorate
