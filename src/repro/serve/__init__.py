"""repro.serve: the always-on asynchronous evaluation service.

Everything the reproduction computes is keyed by
:meth:`repro.eval.request.EvalRequest.key` and persisted in the
fcntl-locked :class:`~repro.dse.store.ResultStore`; this package puts
a long-running service in front of that cache so many clients (plot
scripts, CI jobs, notebook sessions) share one warm process instead of
each paying cold-start profiling and store scans.

Layers, bottom up:

- :mod:`repro.serve.cache` -- the in-memory LRU hot tier;
- :mod:`repro.serve.metrics` -- thread-safe counters + a latency
  window behind ``GET /metrics``, mirrored to :mod:`repro.obs`;
- :mod:`repro.serve.service` -- :class:`EvalService`: single-flight
  request coalescing and hot/store tiers in front of the evaluation
  engine (:mod:`repro.dse.engine`), which retries under a
  :class:`~repro.dse.retry.RetryPolicy` and runs process-isolated
  workers on a supervised :class:`~repro.dse.pool.WatchdogPool`;
- :mod:`repro.serve.http` -- a stdlib asyncio HTTP/1.1 front end
  (``/eval``, ``/eval/batch``, ``/summary``, ``/pareto``,
  ``/healthz``, ``/metrics``, and a static dashboard);
- ``python -m repro.serve`` -- the CLI entry point with graceful
  SIGINT/SIGTERM draining.

The service is the supported way to evaluate concurrently: the
in-process memo in :mod:`repro.eval.api` is neither thread- nor
task-safe (see its docstring), and the service's single-flight layer
is the replacement.
"""

from repro.serve.cache import DEFAULT_HOT_MAX, HotCache
from repro.serve.http import HttpFrontend, start_http
from repro.serve.metrics import ServeMetrics
from repro.serve.service import DEFAULT_QUEUE_MAX, EvalService, Outcome

__all__ = [
    "DEFAULT_HOT_MAX",
    "DEFAULT_QUEUE_MAX",
    "EvalService",
    "HotCache",
    "HttpFrontend",
    "Outcome",
    "ServeMetrics",
    "start_http",
]
