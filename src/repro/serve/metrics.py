"""In-memory service metrics behind ``GET /metrics``.

The service keeps its own thread-safe counter registry so ``/metrics``
can answer instantly from memory; every increment is mirrored to
:mod:`repro.obs`, so a traced service run (``REPRO_TRACE``) leaves the
same ``serve.*`` counters in its trace files for ``python -m repro.obs
report`` -- one name, two sinks.

Latency is tracked as a bounded reservoir of the most recent request
durations; ``/metrics`` reports count/mean/p50/p95/max over that
window, which is what an operator actually wants from an always-on
service (recent behavior, not lifetime averages).
"""

from __future__ import annotations

import threading
from collections import deque

from repro import obs
from repro.obs.report import percentile

#: Request latencies retained for the percentile window.
LATENCY_WINDOW = 1024


class ServeMetrics:
    """Thread-safe counters + a latency reservoir for one service."""

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._latencies: "deque[float]" = deque(maxlen=window)

    def incr(self, name: str, n: int = 1) -> None:
        """Count ``n`` occurrences of ``name`` (mirrored to repro.obs)."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n
        obs.counter(name, n=n)

    def observe_latency(self, seconds: float) -> None:
        """Record one finished request's wall-clock duration."""
        with self._lock:
            self._latencies.append(seconds)

    def count(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def counters(self) -> dict[str, int]:
        """A snapshot of every counter, sorted by name."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def latency(self) -> dict[str, float | int]:
        """count/mean/p50/p95/max (milliseconds) over the window."""
        with self._lock:
            window = list(self._latencies)
        if not window:
            return {"count": 0}
        ordered = sorted(window)
        return {
            "count": len(ordered),
            "mean_ms": 1e3 * sum(ordered) / len(ordered),
            "p50_ms": 1e3 * percentile(ordered, 0.50),
            "p95_ms": 1e3 * percentile(ordered, 0.95),
            "max_ms": 1e3 * ordered[-1],
        }
