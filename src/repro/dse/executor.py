"""Self-healing parallel campaign execution.

The executor fans the campaign's evaluation points out over supervised
worker processes (:class:`~repro.dse.pool.WatchdogPool`).  Workers
only compute; the parent process owns the result store and appends
records as results stream back, so resuming an interrupted campaign
re-evaluates only the missing points.

Failure handling is layered so one bad point -- or one bad worker --
costs exactly itself:

- a worker exception streams back as a
  :class:`~repro.dse.retry.PointFailure` payload (the pool keeps
  draining, completed results still persist);
- a worker that hangs past the :class:`~repro.dse.retry.RetryPolicy`
  deadline, goes heartbeat-silent, or dies without a payload
  (OOM-killed) is detected by the parent-side watchdog, killed, and
  replaced;
- failed attempts are retried with exponential backoff up to the
  policy's budget, except *poison* errors (deterministic bugs that
  would fail identically every time), which are quarantined at once
  (:meth:`~repro.dse.retry.RetryPolicy.settle` decides, for the pool
  and the serial :func:`~repro.dse.pool.run_inline` alike);
- SIGINT/SIGTERM stop dispatch gracefully: completed results are
  already on disk, the summary says how to resume, and the exit code
  is ``128 + signum``.

Points are :class:`~repro.eval.request.EvalRequest` objects: workers
receive the requests themselves, and each record's ``point`` is
``request.to_dict()``, as for every other producer.  Every point's
record, whatever its backend, lands in the campaign's store, whose
namespace is one digest of the whole source tree, so any edit
re-evaluates every point.

Before a pool of two or more workers starts, a *profile pass* splits
the weight profiling of the pending model points' networks layer by
layer over its own :class:`~repro.dse.pool.WatchdogPool` (same retry
policy, same stop signal).  It profiles each weight identity once
(:func:`~repro.sparsity.profiles.unprofiled_layers`), so networks
that differ only in batch or output size cost one profile.  It
dispatches layers in network order: largest-first raised the pool
workers' peak RSS by a fifth (glibc's dynamic mmap threshold, raised
by the first freed multi-megabyte draw, sends the later draws to the
heap).  The parent installs the returned
profiles, so the point workers it forks next -- respawns included --
inherit them, and no layer is profiled twice.  A profile task that
fails or is killed is dropped, not retried: the point's worker then
profiles that layer itself, under the per-point watchdog.  Serial
runs and simulator-only campaigns profile lazily in the evaluating
process, as before.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import Any, Callable, Generic, Protocol, TypeVar, cast

from repro import faults
from repro.dse.pool import WatchdogPool, run_inline
from repro.dse.records import make_record, result_from_dict, result_to_dict
from repro.dse.retry import PointFailure, RetryPolicy
from repro.dse.spec import CampaignSpec, Shard
from repro.dse.store import ResultStore
from repro.eval.registry import get_backend
from repro.eval.request import MODEL_BACKEND, EvalRequest
from repro.eval.result import EvalResult
from repro.obs import counter, flush, observe, trace
from repro.sparsity.profiles import (
    install_layer_stats,
    layer_weight_stats,
    network_weight_stats,
    unprofiled_layers,
)
from repro.sparsity.stats import LayerWeightStats
from repro.workloads.spec import LayerSpec

#: ``progress(done, total, label, *, cached, elapsed_s)``
ProgressFn = Callable[..., None]

#: ``before_fork(pending, jobs, policy, should_stop)`` (see
#: :func:`drive_points`).
BeforeForkFn = Callable[
    [list[Any], int, RetryPolicy, Callable[[], bool]], None]


class CampaignPoint(Protocol):
    """What the shared driver needs from a grid point."""

    @property
    def label(self) -> str: ...

    def key(self) -> str: ...

    def to_dict(self) -> dict[str, Any]: ...


class NamedSpec(Protocol):
    """What a run needs from its campaign spec."""

    @property
    def name(self) -> str: ...


PointT = TypeVar("PointT", bound=CampaignPoint)
ResultT = TypeVar("ResultT")


def evaluate_point(request: EvalRequest) -> EvalResult:
    """Compute (never cache) one grid point through its backend."""
    request.validate()
    with trace("eval.evaluate", backend=request.backend,
               workload=request.workload):
        return get_backend(request.backend).evaluate(request)


def _worker(request: EvalRequest) -> tuple[str, dict[str, Any], float]:
    start = time.perf_counter()
    result = evaluate_point(request)
    return request.key(), result_to_dict(result), time.perf_counter() - start


#: perf_counter stamp of this worker process's previous point, so the
#: gap to the next point (pool queue/dispatch wait plus idling) can be
#: reported as ``dse.worker.queue_wait``.
_WORKER_LAST_DONE: float | None = None


class _FailureTolerant:
    """Picklable worker wrapper turning exceptions into failure payloads.

    One poisoned point must cost exactly that point, not the pool: an
    exception escaping a pool worker would kill the worker and force
    the watchdog to respawn it for nothing.

    Also the worker-side observability and fault-injection hook: each
    attempt runs under a ``dse.point`` span with the point bound as the
    fault-injection context (so ``eval`` and deep ``gemm`` site faults
    fire deterministically per ``(key, attempt)``), the gap since the
    process's previous point is reported as ``dse.worker.queue_wait``,
    and buffered trace events are flushed after every point -- worker
    teardown does not run ``atexit`` hooks, so unflushed events would
    otherwise vanish with the process.
    """

    def __init__(self, worker: Callable[[Any], tuple[str, Any, float]]):
        self.worker = worker

    def __call__(self, point: CampaignPoint,
                 attempt: int = 0) -> tuple[str, Any, float]:
        global _WORKER_LAST_DONE
        start = time.perf_counter()
        if _WORKER_LAST_DONE is not None:
            observe("dse.worker.queue_wait", start - _WORKER_LAST_DONE)
        faults.set_point_context(point.key(), attempt)
        try:
            with trace("dse.point", label=point.label, attempt=attempt):
                faults.fire("eval")
                return self.worker(point)
        except Exception as exc:  # noqa: BLE001 -- any worker fault
            counter("dse.point.exception", error=type(exc).__name__,
                    label=point.label)
            return (point.key(), PointFailure.from_exception(exc),
                    time.perf_counter() - start)
        finally:
            faults.clear_point_context()
            _WORKER_LAST_DONE = time.perf_counter()
            flush()


class _SignalGuard:
    """Graceful SIGINT/SIGTERM: first signal requests a stop, second
    one force-quits.

    Installed only in the main thread of the parent process (workers
    ignore SIGINT themselves; see :func:`~repro.dse.pool._worker_main`).
    The campaign loop polls :meth:`stop_requested` between points, so
    every already-completed result is committed before the run returns
    with ``interrupted`` set.
    """

    def __init__(self) -> None:
        self.signum: int | None = None
        self._previous: dict[int, Any] = {}

    def _handle(self, signum: int, frame: FrameType | None) -> None:
        if self.signum is not None:
            # Second signal: the operator means it. Restore the default
            # disposition and end the process the conventional way.
            for sig, previous in self._previous.items():
                signal.signal(sig, previous)
            raise KeyboardInterrupt
        self.signum = signum

    def stop_requested(self) -> bool:
        return self.signum is not None

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is not threading.main_thread():
            return self  # signal.signal is main-thread-only
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()


@dataclass
class CampaignRun(Generic[PointT, ResultT]):
    """Outcome of one campaign-driver invocation.

    Evaluation grids run as ``CampaignRun[EvalRequest, EvalResult]``;
    the type parameters keep the driver (:func:`drive_points`)
    independent of the point and result types it moves.
    """

    spec: NamedSpec
    store_path: Path
    points: list[PointT]
    total: int = 0
    cached: int = 0
    evaluated: int = 0
    #: Evaluations whose records could not be written (store down).
    persist_failures: int = 0
    #: Results for an already-committed key streaming back again
    #: (defensive: a driver bug, or a caller bypassing point dedupe).
    recommits: int = 0
    #: Points whose final outcome needed more than one attempt.
    retried: int = 0
    #: Watchdog kill events (timeout or heartbeat silence), counted
    #: per event -- a point that timed out once and then succeeded
    #: still shows up here.
    timed_out: int = 0
    #: Points quarantined immediately because their error was
    #: classified poison (deterministic; retrying would be waste).
    poisoned: int = 0
    #: The run stopped early on SIGINT/SIGTERM; completed results are
    #: committed, the rest resume on the next invocation.
    interrupted: bool = False
    interrupt_signum: int | None = None
    #: config-hash key -> worker error, points whose evaluation failed
    #: for good (budget exhausted or poison).
    failed: dict[str, str] = field(default_factory=dict)
    #: config-hash key -> most recent error seen, including transient
    #: ones a later attempt recovered from.
    last_error: dict[str, str] = field(default_factory=dict)
    #: config-hash key -> attempts consumed (only settled points).
    attempts: dict[str, int] = field(default_factory=dict)
    #: config-hash key -> deserialized/computed result, all points.
    results: dict[str, ResultT] = field(default_factory=dict)
    #: Worker-measured evaluation seconds, summed over fresh points.
    eval_seconds: float = 0.0
    #: Parent-measured store-persist seconds (record build + locked
    #: append), summed -- reported separately so a slow disk is not
    #: misattributed to the evaluation backends.
    persist_seconds: float = 0.0

    def result_for(self, point: PointT) -> ResultT:
        return self.results[point.key()]

    def failure_for(self, point: PointT) -> str | None:
        """The worker error for ``point``, or ``None`` if it succeeded."""
        return self.failed.get(point.key())

    def failed_labels(self) -> list[str]:
        """Display labels of the points whose evaluation failed."""
        return [point.label for point in self.points
                if point.key() in self.failed]

    @property
    def remaining(self) -> int:
        """Points not yet settled (nonzero only after an interrupt)."""
        return self.total - self.cached - self.evaluated - len(self.failed)

    def grid(self) -> dict[tuple[str, str], ResultT]:
        """``(config label, network) -> result``."""
        if self.failed:
            # Harness grids (Fig. 13-17) need every cell; a partial
            # grid would KeyError later with no hint of the cause.
            raise RuntimeError(
                f"{len(self.failed)} campaign points failed: "
                + ", ".join(sorted(self.failed_labels())))
        return {
            (cast(EvalRequest, point).config_label,
             cast(EvalRequest, point).workload): self.result_for(point)
            for point in self.points
        }

    @property
    def summary_line(self) -> str:
        line = (
            f"campaign {self.spec.name}: total={self.total} "
            f"cached={self.cached} evaluated={self.evaluated} "
            f"failed={len(self.failed)}"
        )
        # Self-healing accounting rides along only when it happened, so
        # a clean run's line stays byte-identical to what it always was.
        if self.retried:
            line += f" retried={self.retried}"
        if self.timed_out:
            line += f" timed_out={self.timed_out}"
        if self.poisoned:
            line += f" poisoned={self.poisoned}"
        line += f" store={self.store_path}"
        if self.evaluated:
            line += (f" (eval={self.eval_seconds:.2f}s "
                     f"persist={self.persist_seconds:.2f}s)")
        if self.recommits:
            line += f" (note: {self.recommits} re-committed results)"
        if self.persist_failures:
            line += f" (WARNING: {self.persist_failures} results not persisted)"
        if self.failed:
            line += (f" (ERROR: {len(self.failed)} points failed: "
                     + ", ".join(sorted(self.failed_labels())) + ")")
        if self.interrupted:
            line += (f" (INTERRUPTED: {self.remaining} points not "
                     f"evaluated; rerun the same command to resume)")
        return line


def resolve_jobs(jobs: int) -> int:
    """``0`` means one worker per available CPU."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs or os.cpu_count() or 1


def drive_points(
    points: list[PointT],
    run: CampaignRun[PointT, ResultT],
    *,
    jobs: int,
    worker: Callable[[PointT], tuple[str, Any, float]],
    cached_result: Callable[[PointT], ResultT | None],
    make_point_record: Callable[[PointT, Any, float], dict[str, Any]],
    decode_result: Callable[[Any], ResultT],
    store: ResultStore,
    force: bool = False,
    progress: ProgressFn | None = None,
    policy: RetryPolicy | None = None,
    before_fork: BeforeForkFn | None = None,
) -> None:
    """Shared campaign driver: cache scan, supervised fan-out, retries,
    store commits.

    :func:`run_campaign` drives evaluation grids through it.
    Parameterized by:

    - ``worker(point) -> (key, result_payload, elapsed_s)`` -- pool task;
    - ``cached_result(point)`` -- decoded stored value or ``None``;
    - ``make_point_record(point, payload, elapsed_s)`` -- store record;
    - ``decode_result(payload)`` -- worker payload to stored value;
    - ``store`` -- the store every record lands in;
    - ``before_fork(pending, jobs, policy, should_stop)`` -- optional;
      runs in the parent after the cache scan, inside the signal
      guard, when the pending points go to a pool of two or more
      workers, which inherit whatever it caches.

    ``run`` accumulates ``results``/``cached``/``evaluated``/``failed``
    (and the self-healing counters) in place.  The parent process owns
    all store writes; workers only compute.  Failed attempts retry per
    ``policy`` (default :class:`~repro.dse.retry.RetryPolicy`); only
    terminal outcomes emit progress events, so a retried point still
    reports exactly once.  Duplicate-key points are dropped up front
    with a warning so one result can never double-commit or overrun
    the progress accounting.
    """
    jobs = resolve_jobs(jobs)
    if policy is None:
        policy = RetryPolicy()
    by_key: dict[str, PointT] = {}
    unique: list[PointT] = []
    for point in points:
        key = point.key()
        if key in by_key:
            warnings.warn(
                f"campaign point {point.label!r} duplicates the key of "
                f"{by_key[key].label!r} ({key}); dropping the duplicate",
                RuntimeWarning, stacklevel=2)
            continue
        by_key[key] = point
        unique.append(point)
    if len(unique) != len(points):
        # Keep the run's own view consistent too: reporting paths
        # (failed_labels, grid, per-point CLI lines) iterate run.points
        # and must not see one point twice.
        run.total = len(unique)
        run.points = list(unique)
    points = unique

    drive_start = time.perf_counter()
    pending = []
    done = 0
    with trace("dse.cache_scan", campaign=run.spec.name):
        for point in points:
            result = None if force else cached_result(point)
            if result is not None:
                run.results[point.key()] = result
                run.cached += 1
                done += 1
                if progress is not None:
                    progress(done, run.total, point.label,
                             cached=True, elapsed_s=None)
            else:
                pending.append(point)

    store_down = False

    def commit(key: str, payload: Any, elapsed: float) -> None:
        """Persist and account one successful result (terminal)."""
        nonlocal done, store_down
        point = by_key[key]
        recommit = key in run.results
        run.eval_seconds += elapsed
        if store_down:
            run.persist_failures += 1
        else:
            persist_start = time.perf_counter()
            try:
                record = make_point_record(point, payload, elapsed)
                attempts = run.attempts.get(key, 1)
                if attempts > 1:
                    # The record remembers its bumpy history: attempt
                    # count and the transient error recovered from.
                    record = dict(record)
                    record["attempts"] = attempts
                    record["last_error"] = run.last_error.get(key)
                with trace("dse.persist", label=point.label):
                    store.put(key, record)
            except OSError:
                # An unwritable store costs persistence, not the run.
                store_down = True
                run.persist_failures += 1
            finally:
                run.persist_seconds += time.perf_counter() - persist_start
        run.results[key] = decode_result(payload)
        if recommit:
            # The same key streaming back twice must not inflate the
            # progress counters past run.total (101/100-style lines).
            run.recommits += 1
        else:
            run.evaluated += 1
            done = min(done + 1, run.total)
        if progress is not None:
            progress(done, run.total, point.label,
                     cached=False, elapsed_s=elapsed)

    def fail_point(key: str, failure: PointFailure, elapsed: float) -> None:
        """Account one settled (budget-exhausted or poison) failure."""
        nonlocal done
        point = by_key[key]
        run.failed[key] = failure.error
        done = min(done + 1, run.total)
        if progress is not None:
            # Mark the live line: an operator watching a long run
            # should see the fault when it happens, not only in the
            # final summary.
            progress(done, run.total,
                     f"FAILED {point.label}: {failure.error}",
                     cached=False, elapsed_s=elapsed)

    def on_outcome(point: Any, attempt: int, key: Any, payload: Any,
                   elapsed: float, reason: str) -> float | None:
        """Settle or reschedule one attempt; returns a backoff delay
        to retry, ``None`` when the point is settled.

        ``key`` is the worker-returned store key on ``"ok"`` outcomes
        (the committer trusts it, preserving the recommit-detection
        semantics of the plain-pool era); parent-synthesized failures
        carry no payload, so the point's own key stands in.
        """
        if key is None:
            key = point.key()
        if reason != "ok":
            # The parent killed (or buried) the worker; there is no
            # payload. Synthesize the failure the policy classifies.
            if reason in ("timeout", "heartbeat-silent"):
                run.timed_out += 1
            failure = PointFailure.killed(reason, elapsed, attempt)
        elif isinstance(payload, PointFailure):
            failure = payload
        else:
            run.attempts[key] = attempt + 1
            if attempt > 0:
                run.retried += 1
                counter("dse.point.recovered", label=point.label,
                        attempts=attempt + 1)
            commit(key, payload, elapsed)
            return None

        run.last_error[key] = failure.error
        backoff = policy.settle(key, attempt, failure)
        if backoff is not None:
            observe("dse.retry.backoff", backoff, label=point.label,
                    attempt=attempt + 1, error=failure.etype)
            return backoff
        run.attempts[key] = attempt + 1
        if attempt > 0:
            run.retried += 1
        if policy.poisoned(failure):
            run.poisoned += 1
            counter("dse.point.poison", label=point.label,
                    error=failure.etype)
        fail_point(key, failure, elapsed)
        return None

    safe_worker = _FailureTolerant(worker)
    with _SignalGuard() as guard:
        use_pool = bool(pending) and (
            (jobs > 1 and len(pending) > 1) or policy.needs_watchdog())
        if use_pool:
            workers = min(jobs, len(pending))
            if before_fork is not None and workers > 1:
                before_fork(pending, jobs, policy, guard.stop_requested)
            if guard.stop_requested():
                # Interrupted during before_fork: fork no point pool.
                run.interrupted = True
            else:
                pool = WatchdogPool(safe_worker, workers,
                                    policy, should_stop=guard.stop_requested)
                if not pool.run(pending, on_outcome):
                    run.interrupted = True
        elif not run_inline(safe_worker, pending, on_outcome,
                            guard.stop_requested):
            run.interrupted = True
        run.interrupt_signum = guard.signum

    # Run-level accounting, emitted by the parent (the one process that
    # owns the commit path) so the trace report's counters match the
    # campaign summary exactly.
    observe("dse.drive", time.perf_counter() - drive_start,
            campaign=run.spec.name)
    for name, value in (
        ("dse.points.total", run.total),
        ("dse.points.cached", run.cached),
        ("dse.points.evaluated", run.evaluated),
        ("dse.points.failed", len(run.failed)),
        ("dse.points.persist_failures", run.persist_failures),
        ("dse.points.recommits", run.recommits),
        ("dse.points.retried", run.retried),
        ("dse.points.timed_out", run.timed_out),
        ("dse.points.poisoned", run.poisoned),
    ):
        counter(name, n=value, campaign=run.spec.name)
    if run.interrupted:
        counter("dse.interrupted", signum=run.interrupt_signum,
                remaining=run.remaining, campaign=run.spec.name)
    flush()


def _profile_task(spec: LayerSpec,
                  attempt: int = 0) -> tuple[str, Any, float]:
    """Profile-pass pool task: the layer's profile, or its error text.

    Never raises, as a pool task must not, and fires no faults: the
    pass only warms caches, and a fault plan targets campaign points.
    """
    start = time.perf_counter()
    try:
        payload: Any = layer_weight_stats(spec)
    except Exception as exc:  # noqa: BLE001 -- dropped; profiled lazily
        payload = PointFailure.from_exception(exc).error
    return spec.name, payload, time.perf_counter() - start


def _profile_pass(points: list[EvalRequest], jobs: int, policy: RetryPolicy,
                  should_stop: Callable[[], bool]) -> None:
    """Profile the pending model points' networks once, layer by layer
    over ``jobs`` workers, and cache the profiles in this process.

    Each network whose layers all came back is also loaded into
    :func:`~repro.sparsity.profiles.network_weight_stats`.  A network
    with a dropped layer (or one an interrupt left unprofiled) is not:
    loading it here would profile that layer in the parent, outside
    any watchdog.
    """
    if multiprocessing.get_start_method() != "fork":
        return  # spawned point workers would inherit nothing
    networks = list(dict.fromkeys(
        point.workload for point in points if point.backend == MODEL_BACKEND))
    layers = unprofiled_layers(networks)
    if not layers:
        return
    profiled: list[tuple[LayerSpec, LayerWeightStats]] = []

    def keep(spec: LayerSpec, attempt: int, key: Any, payload: Any,
             elapsed: float, reason: str) -> None:
        if isinstance(payload, LayerWeightStats):
            profiled.append((spec, payload))
        else:
            counter("dse.profile.dropped", network=spec.network,
                    layer=spec.name,
                    reason=payload if reason == "ok" else reason)

    with trace("dse.profile", networks=len(networks), layers=len(layers)):
        WatchdogPool(_profile_task, jobs, policy,
                     should_stop=should_stop).run(layers, keep)
        install_layer_stats(profiled)
        for network in networks:
            if not unprofiled_layers([network]):
                network_weight_stats(network)
    counter("dse.profile.layers", n=len(profiled))


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | None = None,
    *,
    jobs: int = 1,
    force: bool = False,
    progress: ProgressFn | None = None,
    shard: Shard | None = None,
    policy: RetryPolicy | None = None,
) -> CampaignRun[EvalRequest, EvalResult]:
    """Run (or resume) a campaign; returns the result grid.

    Points whose key already exists in ``store`` are served from disk
    unless ``force`` re-evaluates them; ``store`` holds every point's
    record, whatever its backend.  ``jobs > 1`` evaluates the pending
    points on a supervised process pool, after a profile pass (see the
    module docstring) has profiled their networks once; ``jobs=0``
    uses every CPU.  ``shard`` restricts the run to one deterministic
    slice of the grid (see :class:`repro.dse.spec.Shard`) so N
    processes/hosts can split a campaign and later ``merge`` their
    stores.  ``policy`` (default: the spec's ``retry`` field, else
    :class:`RetryPolicy`'s defaults) governs retries, per-point
    timeouts, and poison quarantine.
    """
    spec.validate()
    if store is None:
        store = ResultStore()
    if policy is None:
        policy = spec.retry or RetryPolicy()
    points = spec.points()
    if shard is not None:
        points = shard.select(points)
    run: CampaignRun[EvalRequest, EvalResult] = CampaignRun(
        spec=spec, store_path=store.path, points=points, total=len(points))
    drive_points(
        points, run,
        jobs=jobs,
        worker=_worker,
        cached_result=lambda point: store.result(point.key()),
        make_point_record=make_record,
        decode_result=result_from_dict,
        store=store,
        force=force,
        progress=progress,
        policy=policy,
        before_fork=_profile_pass,
    )
    return run
