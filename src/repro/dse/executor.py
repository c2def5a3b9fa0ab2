"""Self-healing parallel campaign execution.

:func:`run_campaign` expands a :class:`~repro.dse.spec.CampaignSpec`,
drops duplicate keys, serves every point already in the store, and
hands the rest to the evaluation engine
(:func:`~repro.dse.engine.settle_all`), which computes, retries and
commits them inline or over supervised worker processes.  Workers only
compute; the parent process owns the result store and appends records
as results stream back, so resuming an interrupted campaign
re-evaluates only the missing points.

Failure handling is the engine's, so one bad point -- or one bad
worker -- costs exactly itself: an exception becomes a
:class:`~repro.dse.retry.PointFailure`, a worker that hangs past the
:class:`~repro.dse.retry.RetryPolicy` deadline, goes heartbeat-silent
or dies without a payload is killed and replaced, and failed attempts
retry with exponential backoff up to the policy's budget, except
*poison* errors, which are quarantined at once.  What is the
campaign's own: the cache scan, progress events, the counters of
:class:`CampaignRun` (mirrored to ``dse.points.*``), the profile pass
below, and SIGINT/SIGTERM, which stop dispatch gracefully: completed
results are already on disk, the summary says how to resume, and the
exit code is ``128 + signum``.

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
runs and simulator-only campaigns have no profile pass.  A serial run
profiles a network in its own process when a point first needs it,
one thread per CPU (:func:`~repro.utils.layermap.map_layers`); a pool
worker profiles serially, because the pool already owns the CPUs.
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
from typing import Any, Callable

from repro.dse.engine import Settled, settle_all
from repro.dse.pool import WatchdogPool
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


def evaluate_point(request: EvalRequest) -> EvalResult:
    """Compute (never cache) one grid point through its backend."""
    request.validate()
    with trace("eval.evaluate", backend=request.backend,
               workload=request.workload):
        return get_backend(request.backend).evaluate(request)


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
class CampaignRun:
    """Outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    store_path: Path
    #: The campaign's points, one per key.
    points: list[EvalRequest]
    cached: int = 0
    evaluated: int = 0
    #: Evaluations whose records could not be written (store down).
    persist_failures: int = 0
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
    results: dict[str, EvalResult] = field(default_factory=dict)
    #: Worker-measured evaluation seconds, summed over fresh points.
    eval_seconds: float = 0.0
    #: Parent-measured store-persist seconds (record build + locked
    #: append), summed -- reported separately so a slow disk is not
    #: misattributed to the evaluation backends.
    persist_seconds: float = 0.0

    @property
    def total(self) -> int:
        return len(self.points)

    def result_for(self, point: EvalRequest) -> EvalResult:
        return self.results[point.key()]

    def failure_for(self, point: EvalRequest) -> str | None:
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

    def grid(self) -> dict[tuple[str, str], EvalResult]:
        """``(config label, network) -> result``."""
        if self.failed:
            # Harness grids (Fig. 13-17) need every cell; a partial
            # grid would KeyError later with no hint of the cause.
            raise RuntimeError(
                f"{len(self.failed)} campaign points failed: "
                + ", ".join(sorted(self.failed_labels())))
        return {(point.config_label, point.workload): self.result_for(point)
                for point in self.points}

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
        if self.persist_failures:
            line += f" (WARNING: {self.persist_failures} results not persisted)"
        if self.failed:
            line += (f" (ERROR: {len(self.failed)} points failed: "
                     + ", ".join(sorted(self.failed_labels())) + ")")
        if self.interrupted:
            line += (f" (INTERRUPTED: {self.remaining} points not "
                     f"evaluated; rerun the same command to resume)")
        return line

    def account(self, outcome: Settled) -> None:
        """Fold one settled evaluation into the run's counters."""
        key, label = outcome.key, outcome.subject.label
        self.attempts[key] = outcome.attempts
        if outcome.failures:
            self.last_error[key] = outcome.failures[-1].error
        self.timed_out += outcome.timeouts
        if outcome.attempts > 1:
            self.retried += 1
        if outcome.result is not None:
            self.results[key] = outcome.result
            self.evaluated += 1
            self.eval_seconds += outcome.elapsed_s
            self.persist_seconds += outcome.persist_s
            if not outcome.persisted:
                self.persist_failures += 1
            if outcome.attempts > 1:
                counter("dse.point.recovered", label=label,
                        attempts=outcome.attempts)
        else:
            self.failed[key] = outcome.failures[-1].error
            if outcome.poisoned:
                self.poisoned += 1
                counter("dse.point.poison", label=label,
                        error=outcome.failures[-1].etype)


def resolve_jobs(jobs: int) -> int:
    """``0`` means one worker per available CPU."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs or os.cpu_count() or 1


def _profile_task(spec: LayerSpec, attempt: int = 0) -> tuple[Any, float]:
    """Profile-pass pool task: the layer's profile, or its error text.

    Never raises, as a pool task must not, and fires no faults: the
    pass only warms caches, and a fault plan targets campaign points.
    """
    start = time.perf_counter()
    try:
        payload: Any = layer_weight_stats(spec)
    except Exception as exc:  # noqa: BLE001 -- dropped; profiled lazily
        payload = PointFailure.from_exception(exc).error
    return payload, time.perf_counter() - start


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

    def keep(spec: LayerSpec, attempt: int, payload: Any,
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


def _unique(points: list[EvalRequest]) -> list[EvalRequest]:
    """``points`` less any whose key repeats an earlier one's, with a
    warning: one result must never commit or report twice."""
    by_key: dict[str, EvalRequest] = {}
    for point in points:
        key = point.key()
        if key in by_key:
            warnings.warn(
                f"campaign point {point.label!r} duplicates the key of "
                f"{by_key[key].label!r} ({key}); dropping the duplicate",
                RuntimeWarning, stacklevel=3)
            continue
        by_key[key] = point
    return list(by_key.values())


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | None = None,
    *,
    jobs: int = 1,
    force: bool = False,
    progress: ProgressFn | None = None,
    shard: Shard | None = None,
    policy: RetryPolicy | None = None,
) -> CampaignRun:
    """Run (or resume) a campaign; returns the result grid.

    Points whose key already exists in ``store`` are served from disk
    unless ``force`` re-evaluates them; ``store`` holds every point's
    record, whatever its backend.  The pending points go to the
    evaluation engine (:func:`~repro.dse.engine.settle_all`): in this
    process at ``jobs=1``, else on a supervised process pool of up to
    ``jobs`` workers, after a profile pass (see the module docstring)
    has profiled their networks once; ``jobs=0`` uses every CPU.
    ``shard`` restricts the run to one deterministic slice of the grid
    (see :class:`repro.dse.spec.Shard`) so N processes/hosts can split
    a campaign and later ``merge`` their stores.  ``policy`` (default:
    the spec's ``retry`` field, else :class:`RetryPolicy`'s defaults)
    governs retries, per-point timeouts, and poison quarantine.
    Progress events fire once per point, when it settles.
    """
    spec.validate()
    if store is None:
        store = ResultStore()
    if policy is None:
        policy = spec.retry or RetryPolicy()
    jobs = resolve_jobs(jobs)
    points = spec.points()
    if shard is not None:
        points = shard.select(points)
    run = CampaignRun(spec=spec, store_path=store.path,
                      points=_unique(points))

    drive_start = time.perf_counter()
    pending = []
    with trace("dse.cache_scan", campaign=spec.name):
        for point in run.points:
            result = None if force else store.result(point.key())
            if result is None:
                pending.append(point)
                continue
            run.results[point.key()] = result
            run.cached += 1
            if progress is not None:
                progress(run.total - run.remaining, run.total, point.label,
                         cached=True, elapsed_s=None)

    def settled(outcome: Settled) -> None:
        run.account(outcome)
        if progress is not None:
            # A failure marks the live line: an operator watching a
            # long run should see it when it happens.
            label = (outcome.subject.label if outcome.ok else
                     f"FAILED {outcome.subject.label}: {outcome.last_error}")
            progress(run.total - run.remaining, run.total, label,
                     cached=False, elapsed_s=outcome.elapsed_s)

    # One job is this process; so is a single pending point, unless a
    # timeout needs the watchdog's pool.
    workers = jobs if jobs > 1 and len(pending) > 1 else 0
    with _SignalGuard() as guard:
        if workers:
            _profile_pass(pending, jobs, policy, guard.stop_requested)
        if not guard.stop_requested():  # else fork no point pool
            settle_all(pending, evaluate_point, site="eval", store=store,
                       policy=policy, workers=workers,
                       should_stop=guard.stop_requested,
                       on_settled=settled)
        run.interrupt_signum = guard.signum
    run.interrupted = run.remaining > 0

    # Run-level accounting, emitted by the parent (the one process that
    # owns the commit path) so the trace report's counters match the
    # campaign summary exactly.
    observe("dse.drive", time.perf_counter() - drive_start,
            campaign=spec.name)
    for name, value in (
        ("dse.points.total", run.total),
        ("dse.points.cached", run.cached),
        ("dse.points.evaluated", run.evaluated),
        ("dse.points.failed", len(run.failed)),
        ("dse.points.persist_failures", run.persist_failures),
        ("dse.points.retried", run.retried),
        ("dse.points.timed_out", run.timed_out),
        ("dse.points.poisoned", run.poisoned),
    ):
        counter(name, n=value, campaign=spec.name)
    if run.interrupted:
        counter("dse.interrupted", signum=run.interrupt_signum,
                remaining=run.remaining, campaign=spec.name)
    flush()
    return run
