"""One evaluation engine: compute, retry and commit keyed subjects.

Campaigns (:func:`repro.dse.executor.run_campaign`), the evaluation
service (:class:`repro.serve.service.EvalService`) and guided search
(:class:`repro.opt.objective.Objective`) each look their subjects up
in their own tiers, then hand the misses to :func:`settle_all`, which
returns one :class:`Settled` outcome per key:

- every attempt runs through one failure-tolerant worker: the point
  context that deep fault sites key off, the caller's fault site, a
  ``dse.point`` span, any exception turned into a
  :class:`~repro.dse.retry.PointFailure`, and a trace flush (pool
  workers leave without running ``atexit`` hooks);
- every outcome settles through one handler: a watchdog kill becomes
  :meth:`PointFailure.killed <repro.dse.retry.PointFailure.killed>`,
  and :meth:`~repro.dse.retry.RetryPolicy.settle` decides between a
  backoff and a terminal failure;
- every success commits through one :func:`~repro.dse.records.make_record`
  and :meth:`~repro.dse.store.ResultStore.put`, recording the attempts,
  the last error and the caller's ``extra``.  An ``OSError`` there
  costs persistence, not the answer.

Subjects run inline, or on a :class:`~repro.dse.pool.WatchdogPool`
when the caller asks for worker processes or the policy sets a
timeout, which only the watchdog can enforce.  Outcomes are keyed by
the subject that was dispatched, never by anything a worker returns.
The caller counts its own counters from the outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro import faults
from repro.dse.pool import WatchdogPool, run_inline
from repro.dse.records import (
    Keyed,
    make_record,
    result_from_dict,
    result_to_dict,
)
from repro.dse.retry import PointFailure, RetryPolicy
from repro.dse.store import ResultStore
from repro.eval.result import EvalResult
from repro.obs import counter, flush, observe, trace

#: ``compute(subject) -> EvalResult``.  Module-level, so a spawned pool
#: worker can unpickle it.
ComputeFn = Callable[[Any], EvalResult]

#: Failure kinds that mean the watchdog killed a silent or late worker.
_KILL_KINDS = ("timeout", "heartbeat-silent")

#: perf_counter stamp of this process's previous attempt, so the gap to
#: the next one (pool queue/dispatch wait plus idling) can be reported
#: as ``dse.worker.queue_wait``.
_LAST_DONE: float | None = None


@dataclass(frozen=True)
class Settled:
    """One subject's final outcome: its result, or the failure that
    ended it, with every failed attempt before."""

    key: str
    subject: Any
    result: EvalResult | None
    #: Every failed attempt, in order; a success's are the transient
    #: ones it recovered from.
    failures: tuple[PointFailure, ...] = ()
    #: Seconds the last attempt took, measured where it ran.
    elapsed_s: float = 0.0
    #: Whether the record reached the store.
    persisted: bool = False
    #: Seconds spent building and appending the record.
    persist_s: float = 0.0
    #: The terminal failure is poison (never retried).
    poisoned: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def attempts(self) -> int:
        return len(self.failures) + (1 if self.ok else 0)

    @property
    def last_error(self) -> str | None:
        return self.failures[-1].error if self.failures else None

    @property
    def timeouts(self) -> int:
        """Watchdog kills for a deadline overrun or heartbeat silence."""
        return sum(failure.kind in _KILL_KINDS for failure in self.failures)


class _Attempt:
    """The one failure-tolerant attempt, a picklable pool task.

    Never raises: one broken subject must cost exactly itself, not the
    worker process the watchdog would otherwise respawn for nothing.
    """

    def __init__(self, compute: ComputeFn, site: str) -> None:
        self.compute = compute
        self.site = site
        self.kinds = faults.ATTEMPT_KINDS.get(site)

    def __call__(self, task: tuple[str, Any],
                 attempt: int = 0) -> tuple[Any, float]:
        global _LAST_DONE
        key, subject = task
        start = time.perf_counter()
        if _LAST_DONE is not None:
            observe("dse.worker.queue_wait", start - _LAST_DONE)
        faults.set_point_context(key, attempt)
        try:
            with trace("dse.point", key=key, attempt=attempt):
                faults.fire(self.site, kinds=self.kinds)
                payload: Any = result_to_dict(self.compute(subject))
        except Exception as exc:  # noqa: BLE001 -- any attempt fault
            counter("dse.point.exception", error=type(exc).__name__, key=key)
            payload = PointFailure.from_exception(exc)
        finally:
            faults.clear_point_context()
            _LAST_DONE = time.perf_counter()
            flush()
        return payload, time.perf_counter() - start


def pool_size(subjects: int, workers: int, policy: RetryPolicy) -> int:
    """Worker processes :func:`settle_all` forks for ``subjects``; 0
    runs them inline.  A timeout forces at least one."""
    if not subjects or not (workers or policy.needs_watchdog()):
        return 0
    return max(1, min(workers, subjects))


def _commit(key: str, subject: Keyed, payload: Mapping[str, Any],
            elapsed: float, failures: list[PointFailure],
            store: ResultStore,
            extra: Mapping[str, Any] | None) -> tuple[bool, float]:
    """Persist one success; returns whether it was stored and how long
    that took."""
    start = time.perf_counter()
    record = make_record(
        subject, payload, elapsed,
        attempts=len(failures) + 1 if failures else None,
        last_error=failures[-1].error if failures else None,
        extra=extra)
    try:
        with trace("dse.persist", key=key):
            store.put(key, record)
    except OSError:
        return False, time.perf_counter() - start
    return True, time.perf_counter() - start


def settle_all(
    subjects: Sequence[Keyed],
    compute: ComputeFn,
    *,
    site: str,
    store: ResultStore,
    policy: RetryPolicy,
    workers: int = 0,
    extra: Mapping[str, Any] | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_settled: Callable[[Settled], None] | None = None,
) -> dict[str, Settled]:
    """Compute, retry and commit every subject; one outcome per key.

    ``subjects`` must have distinct keys.  ``compute`` runs under the
    ``site`` fault hook; ``workers`` worker processes (0: inline) run
    the attempts, see :func:`pool_size`.  ``extra`` is stamped into
    every record.  ``on_settled`` sees each outcome as it settles.
    Once ``should_stop`` returns true no new subject starts, and the
    subjects it left unsettled are missing from the result.
    """
    tasks = [(subject.key(), subject) for subject in subjects]
    failures: dict[str, list[PointFailure]] = {key: [] for key, _ in tasks}
    outcomes: dict[str, Settled] = {}

    def handle(task: tuple[str, Any], attempt: int, payload: Any,
               elapsed: float, reason: str) -> float | None:
        key, subject = task
        tried = failures[key]
        if reason == "ok" and not isinstance(payload, PointFailure):
            persisted, persist_s = _commit(key, subject, payload, elapsed,
                                           tried, store, extra)
            outcome = Settled(key, subject, result_from_dict(payload),
                              tuple(tried), elapsed, persisted, persist_s)
        else:
            # A watchdog kill streams no payload: synthesize its failure.
            failure = (payload if reason == "ok"
                       else PointFailure.killed(reason, elapsed, attempt))
            tried.append(failure)
            backoff = policy.settle(key, attempt, failure)
            if backoff is not None:
                observe("dse.retry.backoff", backoff, key=key,
                        attempt=attempt + 1, error=failure.etype)
                return backoff
            outcome = Settled(key, subject, None, tuple(tried), elapsed,
                              poisoned=policy.poisoned(failure))
        outcomes[key] = outcome
        if on_settled is not None:
            on_settled(outcome)
        return None

    attempt = _Attempt(compute, site)
    size = pool_size(len(tasks), workers, policy)
    if size:
        WatchdogPool(attempt, size, policy,
                     should_stop=should_stop).run(tasks, handle)
    else:
        run_inline(attempt, tasks, handle, should_stop)
    return outcomes
