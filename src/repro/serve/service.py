"""The always-on evaluation service: single-flight, hot tier, workers.

:class:`EvalService` answers :class:`~repro.eval.request.EvalRequest`
questions through four tiers, cheapest first:

1. **hot** -- an in-memory LRU (:class:`~repro.serve.cache.HotCache`)
   of settled outcomes, each holding its deserialized result and that
   result's JSON bytes, encoded once when the entry was filled;
2. **in-flight coalescing** -- identical concurrent requests (same
   config-hash key) attach to the one evaluation already running
   instead of starting their own.  This is the *single-flight* layer
   that replaces :mod:`repro.eval.api`'s per-process memo, which is
   not safe for concurrent callers (see that module's docstring);
3. **store** -- the fcntl-locked persistent
   :class:`~repro.dse.store.ResultStore`: one namespace under the
   root, holding every backend's records and shared with every
   campaign and CLI run.  A key already in the loaded namespace's
   in-memory index is answered on the event loop; only a read of the
   file goes to a thread.  The first read loads the file whole; after
   an index miss the refresh reads only the lines appended since the
   last read, other processes' included, and a file that was
   compacted or replaced is read whole.  The store keeps each
   result's JSON bytes (:func:`~repro.dse.store.encode_json`, the
   encoding of its record lines too), encoded on the key's first
   store hit, so a key evicted from the hot tier is not encoded again;
4. **compute** -- the evaluation engine
   (:func:`~repro.dse.engine.settle_all`), the one that runs campaign
   points and guided-search probes.  ``workers=0`` evaluates misses
   inline on the dispatch thread (no subprocesses; the low-latency
   single-host mode) unless the retry policy sets a timeout, which
   only a watchdog can enforce; ``workers>=1``, or a timeout, fans
   each batch of misses out over the supervised, self-healing
   :class:`~repro.dse.pool.WatchdogPool`, so a crashing or hanging
   evaluation costs one worker process, never the service.

The engine retries transient failures per the
:class:`~repro.dse.retry.RetryPolicy` (poison errors fail fast) and
commits every computed result from this process -- worker processes
only compute.  A computed result's record holds ``request.to_dict()``
as its ``point``, as every other producer's does.  The service counts
its ``serve.*`` metrics from the settled outcomes.

The service is asyncio-native: :meth:`EvalService.submit` is awaited
by the HTTP layer, and blocking work runs via ``asyncio.to_thread``:
evaluation batches, and the store lookups that must read the file or
may stall under an armed fault plan.  Draining
(:meth:`EvalService.drain`) lets in-flight evaluations finish while
new misses are rejected -- the graceful half of a SIGTERM.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import faults
from repro.dse.engine import Settled, settle_all
from repro.dse.executor import evaluate_point
from repro.dse.retry import PointFailure, RetryPolicy
from repro.dse.store import ResultStore, encode_json
from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult
from repro.obs import observe, trace
from repro.serve.cache import DEFAULT_HOT_MAX, HotCache
from repro.serve.metrics import ServeMetrics

#: Default bound on queued (accepted but not yet dispatched) misses;
#: past it the service answers 503 instead of hoarding latency.
DEFAULT_QUEUE_MAX = 64


@dataclass(frozen=True)
class Outcome:
    """One settled request: a result, or a classified failure.

    ``source`` says which tier answered: ``hot``, ``store``,
    ``computed``, or ``coalesced`` (this caller attached to another
    request's in-flight evaluation).  On failure ``result`` is ``None``
    and ``error``/``etype``/``kind`` describe the last attempt;
    ``kind`` is ``"exception"``, a watchdog kind (``timeout``,
    ``heartbeat-silent``, ``worker-died``), ``"rejected"`` (queue
    saturated), or ``"draining"``.  ``result_json`` is
    :func:`~repro.dse.store.encode_json` of ``result.to_dict()``:
    the store's bytes for a store hit, else encoded here once, and
    carried along by every copy of the outcome.
    """

    key: str
    result: EvalResult | None = None
    source: str = "computed"
    attempts: int = 0
    error: str | None = None
    etype: str | None = None
    kind: str = "exception"
    poisoned: bool = False
    result_json: bytes | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.result is not None and self.result_json is None:
            object.__setattr__(self, "result_json",
                               encode_json(self.result.to_dict()))

    @property
    def ok(self) -> bool:
        return self.result is not None


class EvalService:
    """Single-flight cached evaluation over a persistent store root."""

    def __init__(self,
                 store_root: str | Path | None = None,
                 *,
                 workers: int = 0,
                 hot_max: int = DEFAULT_HOT_MAX,
                 queue_max: int = DEFAULT_QUEUE_MAX,
                 policy: RetryPolicy | None = None) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if queue_max < 1:
            raise ValueError(f"queue_max must be >= 1, got {queue_max}")
        self.store_root = (Path(store_root) if store_root is not None
                           else None)
        self.workers = workers
        self.queue_max = queue_max
        self.policy = policy or RetryPolicy()
        self.hot = HotCache(hot_max)
        self.metrics = ServeMetrics()
        self.store = ResultStore(self.store_root)
        self._inflight: dict[str, "asyncio.Future[Outcome]"] = {}
        self._queue: "asyncio.Queue[EvalRequest] | None" = None
        self._dispatcher: "asyncio.Task[None] | None" = None
        self._draining = False
        self._started_mono = time.monotonic()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Create the miss queue and dispatcher (call once, in a loop)."""
        if self._queue is not None:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue(maxsize=self.queue_max)
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch")
        self._started_mono = time.monotonic()

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout_s: float | None = 30.0) -> bool:
        """Stop taking new misses, let in-flight work finish, shut down.

        Already-queued and executing evaluations complete and commit;
        new cache misses are rejected with a ``draining`` outcome (hot
        and store tiers keep answering until shutdown).  Returns
        ``True`` if everything settled within ``timeout_s``.
        """
        self._draining = True
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        settled = True
        while self._inflight:
            if deadline is not None and time.monotonic() > deadline:
                settled = False
                break
            await asyncio.sleep(0.02)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        return settled

    # -- the request path ------------------------------------------------
    async def submit(self, request: EvalRequest) -> Outcome:
        """Answer one request through hot -> coalesce -> store -> compute.

        A hot hit, and a store hit from the loaded namespace's in-memory
        index, settle without an await, so a duplicate key later in
        the same batch finds the hot tier rather than a flight to
        coalesce onto.  Raises ``ValueError`` for an invalid request;
        every other failure mode comes back as a settled
        :class:`Outcome` (the HTTP layer maps those to status codes).
        """
        if self._queue is None:
            raise RuntimeError("service not started; await start() first")
        request.validate()
        key = request.key()
        start = time.perf_counter()
        self.metrics.incr("serve.requests")
        try:
            hot = self.hot.get(key)
            if hot is not None:
                self.metrics.incr("serve.cache.hot_hit")
                return hot

            inflight = self._inflight.get(key)
            if inflight is not None:
                self.metrics.incr("serve.coalesced")
                outcome = await asyncio.shield(inflight)
                return replace(outcome, source="coalesced")

            if not faults.enabled():
                # The in-memory index answers on the loop once the
                # thread path below has loaded the file; a miss takes
                # the thread path, as does every lookup while a fault
                # plan may stall it.
                with trace("serve.store_lookup", backend=request.backend):
                    stored = self.store.result_with_json(key, load=False)
                if stored is not None:
                    return self._store_hit(key, *stored)

            future: "asyncio.Future[Outcome]" = \
                asyncio.get_running_loop().create_future()
            self._inflight[key] = future

            try:
                stored = await asyncio.to_thread(
                    self._load_stored, request, key)
                if stored is not None:
                    self._settle(key, self._store_hit(key, *stored))
                else:
                    self.metrics.incr("serve.cache.miss")
                    if self._draining:
                        self._settle(key, Outcome(
                            key=key, kind="draining",
                            error="service is draining; "
                                  "try another replica"))
                    else:
                        try:
                            self._queue.put_nowait(request)
                        except asyncio.QueueFull:
                            self.metrics.incr("serve.rejected")
                            self._settle(key, Outcome(
                                key=key, kind="rejected",
                                error=f"evaluation queue is saturated "
                                      f"({self.queue_max} pending)"))
            except BaseException as exc:
                # The leader must never leave coalesced waiters hanging
                # on an unsettled future (lookup error, cancellation).
                failure = PointFailure.from_exception(exc)
                self._settle(key, Outcome(key=key, error=failure.error,
                                          etype=failure.etype))
                raise
            return await asyncio.shield(future)
        finally:
            elapsed = time.perf_counter() - start
            self.metrics.observe_latency(elapsed)
            observe("serve.request", elapsed, key=key)

    def _remember(self, key: str, result: EvalResult,
                  result_json: bytes | None = None) -> Outcome:
        """Fill the hot tier with ``result`` and its bytes (encoded here
        unless given); returns the outcome every later hot hit on
        ``key`` answers with."""
        hot = Outcome(key=key, result=result, source="hot",
                      result_json=result_json)
        self.hot.put(key, hot)
        return hot

    def _store_hit(self, key: str, result: EvalResult,
                   result_json: bytes) -> Outcome:
        self.metrics.incr("serve.cache.store_hit")
        return replace(self._remember(key, result, result_json),
                       source="store")

    def _settle(self, key: str, outcome: Outcome) -> None:
        """Resolve ``key``'s future (leader and coalesced waiters)."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(outcome)

    def _load_stored(self, request: EvalRequest,
                     key: str) -> tuple[EvalResult, bytes] | None:
        """Blocking store lookup (runs off-loop; chaos-instrumented).

        :meth:`submit` calls it before the namespace is loaded, for a
        key its in-memory index missed, and for every lookup while a
        fault plan is armed.  It refreshes the index, then looks the
        key up once.  The first refresh reads the file whole; later ones
        read only the lines appended since, so a record another process
        (a campaign shard, a sibling service) appended is found without
        re-parsing the namespace, and a file compacted by ``dse gc`` is
        read whole again.
        """
        if faults.serve_read_fault(key) is not None:
            self.metrics.incr("serve.faults.slow_read")
        try:
            with trace("serve.store_lookup", backend=request.backend):
                self.store.refresh()
                return self.store.result_with_json(key, load=False)
        except OSError as exc:
            self.metrics.incr("serve.store_errors")
            observe("serve.store_error", 0.0, error=type(exc).__name__)
            return None

    # -- the compute path ------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Pull queued misses, run them as one batch, settle futures."""
        assert self._queue is not None
        while True:
            requests = [await self._queue.get()]
            while not self._queue.empty():
                requests.append(self._queue.get_nowait())
            try:
                outcomes = await asyncio.to_thread(self._run_batch, requests)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 -- dispatcher survives
                self.metrics.incr("serve.batch_errors")
                failure = PointFailure.from_exception(exc)
                outcomes = {
                    request.key(): Outcome(key=request.key(), attempts=1,
                                           error=failure.error,
                                           etype=failure.etype)
                    for request in requests
                }
            for key, outcome in outcomes.items():
                self._settle(key, outcome)

    def _run_batch(self,
                   requests: list[EvalRequest]) -> dict[str, Outcome]:
        """Evaluate one batch of misses (blocking; runs off-loop)
        through the evaluation engine, inline at ``workers=0`` unless
        the policy sets a timeout."""
        unique = list({request.key(): request
                       for request in requests}.values())
        settled = settle_all(unique, evaluate_point, site="serve",
                             store=self.store, policy=self.policy,
                             workers=self.workers)
        return {key: self._outcome(done) for key, done in settled.items()}

    def _outcome(self, done: Settled) -> Outcome:
        """Count one settled miss; a success fills the hot tier."""
        metrics = self.metrics
        if done.timeouts:
            metrics.incr("serve.timed_out", done.timeouts)
        if done.attempts > 1:
            metrics.incr("serve.retried")
        if done.result is None:
            failure = done.failures[-1]
            metrics.incr("serve.failed")
            if done.poisoned:
                metrics.incr("serve.poisoned")
            return Outcome(key=done.key, attempts=done.attempts,
                           error=failure.error, etype=failure.etype,
                           kind=failure.kind, poisoned=done.poisoned)
        if not done.persisted:
            # An unwritable store costs persistence, not the answer.
            metrics.incr("serve.persist_failures")
        metrics.incr("serve.evaluated")
        if done.last_error is not None and "InjectedFault" in done.last_error:
            metrics.incr("serve.faults.recovered")
        hot = self._remember(done.key, done.result)
        return replace(hot, source="computed", attempts=done.attempts)

    # -- introspection ---------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` payload: counters, gauges, latency window."""
        return {
            "counters": self.metrics.counters(),
            "gauges": {
                "serve.inflight": len(self._inflight),
                "serve.queue_depth": (self._queue.qsize()
                                      if self._queue is not None else 0),
                "serve.hot_entries": len(self.hot),
                "serve.hot_max": self.hot.max_entries,
                "serve.workers": self.workers,
                "serve.uptime_s": time.monotonic() - self._started_mono,
                "serve.draining": int(self._draining),
            },
            "latency": self.metrics.latency(),
        }

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` payload (status + load gauges)."""
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.monotonic() - self._started_mono,
            "in_flight": len(self._inflight),
            "queue_depth": (self._queue.qsize()
                            if self._queue is not None else 0),
            "workers": self.workers,
            "hot_entries": len(self.hot),
        }
