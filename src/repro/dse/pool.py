"""A self-healing worker pool with a parent-side watchdog.

The evaluation engine (:mod:`repro.dse.engine`) runs its attempts on
it whenever a caller asks for worker processes or a timeout, and the
campaign's profile pass warms caches on it.  The stdlib
``multiprocessing.Pool`` cannot survive the failure modes long
campaigns actually hit: a hung worker stalls ``imap_unordered``
forever, and a worker that dies without streaming a payload
(OOM-killed, hard crash) aborts the whole iteration.  This pool gives
the parent full custody:

- one task queue **per worker**, dispatched one point at a time, so
  the parent always knows exactly which point each worker holds;
- a heartbeat thread in every worker (silenced by an injected ``hang``
  fault, exactly like a hard-frozen process), so the watchdog detects
  both deadline overruns and heartbeat silence;
- kill-and-respawn: a hung or dead worker is SIGKILLed, its in-flight
  point handed back to the outcome handler (which decides retry vs
  quarantine), and a fresh worker takes its slot;
- cooperative shutdown: a stop callable (wired to SIGINT/SIGTERM by
  the campaign) halts dispatch, kills in-flight workers, and returns
  with completed results already committed.

The pool is deliberately policy-free: every outcome -- success,
worker exception, timeout, heartbeat silence, death -- is reported,
with the point the parent dispatched, to a single ``handle`` callback
which returns either ``None`` (point settled) or a backoff delay in
seconds (schedule a retry).  The engine's handler keeps the
bookkeeping; :meth:`~repro.dse.retry.RetryPolicy.settle` makes the
decision.  :func:`run_inline` is the in-process twin.
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue as queue_mod
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import faults
from repro.dse.retry import RetryPolicy
from repro.obs import counter

#: Worker heartbeat period; the watchdog's silence threshold is the
#: policy's ``heartbeat_timeout_s`` (many periods, so a busy box never
#: false-positives).
HEARTBEAT_INTERVAL_S = 0.5

#: Parent poll granularity: the longest the watchdog sleeps between
#: deadline checks while no results arrive.
POLL_S = 0.05

#: How long to wait for a SIGKILLed worker to be reaped.
KILL_JOIN_S = 5.0

#: ``handle(point, attempt, payload, elapsed_s, reason)`` returns a
#: backoff in seconds to schedule a retry, or ``None`` when settled.
#: ``reason`` is ``"ok"`` when the worker streamed ``payload`` back for
#: the point it was handed; else one of ``"timeout" |
#: "heartbeat-silent" | "worker-died"`` with ``payload`` ``None``.
OutcomeFn = Callable[[Any, int, Any, float, str], float | None]

#: ``fn(point, attempt) -> (payload, elapsed_s)`` -- the
#: failure-tolerant worker callable (never raises).
TaskFn = Callable[[Any, int], "tuple[Any, float]"]


def _worker_main(wid: int, tasks: "multiprocessing.Queue[Any]",
                 results: "multiprocessing.Queue[Any]",
                 fn: TaskFn) -> None:
    """One worker process: heartbeat thread + task loop.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    foreground process group) cannot kill workers out from under the
    parent's graceful-shutdown path -- the parent owns worker death.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL_S):
            if faults.hang_active():
                continue  # a hung worker is heartbeat-silent, by design
            try:
                results.put(("hb", wid))
            except Exception:  # noqa: BLE001 -- parent gone; just exit
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            task = tasks.get()
            if task is None:
                break
            point, attempt = task
            payload, elapsed = fn(point, attempt)
            results.put(("done", wid, payload, elapsed))
    finally:
        stop.set()


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    wid: int
    process: multiprocessing.Process
    tasks: "multiprocessing.Queue[Any]"
    point: Any = None          #: in-flight point (None = idle)
    attempt: int = 0
    started_at: float = 0.0    #: monotonic stamp of the dispatch
    last_beat: float = field(default_factory=time.monotonic)


class WatchdogPool:
    """Dispatch points over supervised workers until all are settled."""

    def __init__(self, worker: TaskFn, jobs: int, policy: RetryPolicy,
                 should_stop: Callable[[], bool] | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"pool needs jobs >= 1, got {jobs}")
        self.worker = worker
        self.jobs = jobs
        self.policy = policy
        self._should_stop = should_stop or (lambda: False)

    def run(self, points: list[Any], handle: OutcomeFn) -> bool:
        """Drive every point to a settled outcome; ``True`` if all
        settled, ``False`` when stopped early (interrupt)."""
        if not points:
            return True
        results: "multiprocessing.Queue[Any]" = multiprocessing.Queue()
        workers: dict[int, _Worker] = {}
        next_wid = 0
        ready: deque[tuple[Any, int]] = deque((p, 0) for p in points)
        #: min-heap of (ready_at, seq, point, attempt) retry waits.
        delayed: list[tuple[float, int, Any, int]] = []
        seq = 0
        outstanding = len(points)

        def spawn() -> _Worker:
            nonlocal next_wid
            wid = next_wid
            next_wid += 1
            tasks: "multiprocessing.Queue[Any]" = multiprocessing.Queue()
            process = multiprocessing.Process(
                target=_worker_main, args=(wid, tasks, results, self.worker),
                daemon=True)
            process.start()
            worker = _Worker(wid=wid, process=process, tasks=tasks)
            workers[wid] = worker
            return worker

        def settle(point: Any, attempt: int, payload: Any,
                   elapsed: float, reason: str) -> None:
            nonlocal outstanding, seq
            backoff = handle(point, attempt, payload, elapsed, reason)
            if backoff is None:
                outstanding -= 1
            else:
                seq += 1
                heapq.heappush(
                    delayed,
                    (time.monotonic() + backoff, seq, point, attempt + 1))

        def reap(worker: _Worker, reason: str) -> None:
            """Kill a misbehaving worker, settle its point, refill."""
            point, attempt = worker.point, worker.attempt
            elapsed = time.monotonic() - worker.started_at
            del workers[worker.wid]
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(KILL_JOIN_S)
            worker.tasks.close()
            worker.tasks.cancel_join_thread()
            counter("dse.worker.killed", reason=reason,
                    exitcode=worker.process.exitcode)
            if point is not None:
                settle(point, attempt, None, elapsed, reason)
            if outstanding > 0 and not self._should_stop():
                spawn()

        for _ in range(max(1, min(self.jobs, len(points)))):
            spawn()

        try:
            while outstanding > 0:
                if self._should_stop():
                    return False
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, point, attempt = heapq.heappop(delayed)
                    ready.append((point, attempt))
                for worker in workers.values():
                    if worker.point is None and ready:
                        worker.point, worker.attempt = ready.popleft()
                        worker.started_at = time.monotonic()
                        worker.last_beat = worker.started_at
                        worker.tasks.put((worker.point, worker.attempt))

                messages: list[Any] = []
                try:
                    messages.append(results.get(timeout=POLL_S))
                    while True:
                        messages.append(results.get_nowait())
                except queue_mod.Empty:
                    pass
                for message in messages:
                    kind, wid = message[0], message[1]
                    worker = workers.get(wid)
                    if worker is None:
                        continue  # late message from a reaped worker
                    if kind == "hb":
                        worker.last_beat = time.monotonic()
                    elif kind == "done":
                        _, _, payload, elapsed = message
                        point, attempt = worker.point, worker.attempt
                        worker.point = None
                        if point is not None:
                            settle(point, attempt, payload, elapsed, "ok")

                now = time.monotonic()
                timeout_s = self.policy.timeout_s
                beat_timeout = self.policy.heartbeat_timeout_s
                for worker in list(workers.values()):
                    if worker.point is not None:
                        if timeout_s is not None \
                                and now - worker.started_at > timeout_s:
                            reap(worker, "timeout")
                            continue
                        if beat_timeout is not None \
                                and now - worker.last_beat > beat_timeout:
                            reap(worker, "heartbeat-silent")
                            continue
                    if not worker.process.is_alive():
                        if worker.point is not None:
                            reap(worker, "worker-died")
                        else:
                            # Died between tasks: drop it, refill only
                            # if there is still work to hand out.
                            del workers[worker.wid]
                            worker.tasks.close()
                            worker.tasks.cancel_join_thread()
                            if (ready or delayed) \
                                    and not self._should_stop():
                                spawn()
            return True
        finally:
            self._shutdown(workers)
            results.close()
            results.cancel_join_thread()

    @staticmethod
    def _shutdown(workers: dict[int, _Worker]) -> None:
        """Stop every remaining worker: sentinel for the idle, SIGKILL
        for the in-flight (their points are either settled or about to
        be retried by a fresh run -- parent state is authoritative)."""
        for worker in workers.values():
            if worker.point is None:
                try:
                    worker.tasks.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for worker in workers.values():
            worker.process.join(1.0 if worker.point is None else 0.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(KILL_JOIN_S)
            worker.tasks.close()
            worker.tasks.cancel_join_thread()


def run_inline(worker: TaskFn, points: list[Any], handle: OutcomeFn,
               should_stop: Callable[[], bool] | None = None) -> bool:
    """:meth:`WatchdogPool.run` in this process, with no watchdog.

    The stop signal is checked before each point and before each
    backoff sleep; a point stopped between attempts is left unsettled.
    """
    stopped = should_stop or (lambda: False)
    for point in points:
        if stopped():
            return False
        attempt = 0
        while True:
            backoff = handle(point, attempt, *worker(point, attempt), "ok")
            if backoff is None:
                break
            if stopped():
                return False
            time.sleep(backoff)
            attempt += 1
    return True
