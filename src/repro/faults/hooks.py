"""Runtime fault injection: plan activation and in-process hooks.

Mirrors :mod:`repro.obs.tracer`'s activation discipline: a single
module global holds the active :class:`~repro.faults.plan.FaultPlan`
(``None`` = disabled, and every hook bails after one global read), the
plan is exported through ``$REPRO_FAULTS`` so forked/spawned pool
workers inherit it, and hooks live at three sites:

- ``eval`` -- :func:`fire` at the top of each worker evaluation
  attempt (crash / hang / die / slow_io);
- ``gemm`` -- :func:`fire` inside the simulator's per-plane GEMM loop,
  using the point context set by the worker (stalls *mid*-evaluation);
- ``store`` -- :func:`store_write_fault` at the
  :class:`~repro.dse.store.ResultStore` append boundary (slow or torn
  writes).

``hang`` faults also silence the worker's heartbeat
(:func:`hang_active`), so a hung worker looks exactly like a
hard-frozen process to the parent-side watchdog -- which is the point.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

from repro.faults.plan import FaultClause, FaultPlan
from repro.obs import counter, flush

#: Environment variable carrying the active plan's canonical spec;
#: presence enables injection (inherited by worker processes).
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status a ``die`` fault kills the worker with (mimics the
#: kernel OOM killer's SIGKILL disposition).
DIE_EXIT_CODE = 137

#: The kinds an evaluation attempt's :func:`fire` executes, for the
#: sites that split their kinds between two hooks (absent: every
#: kind).  The ``serve`` site's ``slow_io`` clauses stall its store
#: reads instead (:func:`serve_read_fault`).
ATTEMPT_KINDS: dict[str, tuple[str, ...]] = {
    "serve": ("crash", "hang", "die"),
}


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault (classified retryable, like the
    transient infrastructure errors it stands in for)."""


#: The process-wide plan; ``None`` means injection is disabled and
#: every hook returns immediately.
_PLAN: FaultPlan | None = None

#: ``(key, attempt)`` of the point this process is evaluating, set by
#: the engine's attempt so deep sites (the GEMM loop) can key decisions.
_CONTEXT: tuple[str, int] | None = None

#: Per-site call ordinals within the current point context, so each
#: visit to a repeated site gets its own deterministic draw.
_SITE_CALLS: dict[str, int] = {}

#: Per-key store-write ordinals (process lifetime): the Nth write of a
#: key is its own decision, so a retried point's re-append re-rolls.
_WRITE_CALLS: dict[str, int] = {}

#: Per-key serve-side store-read ordinals (process lifetime): like
#: store writes, the Nth read of a key is its own decision, so
#: ``slow_io:attempt<1:site=serve`` stalls only a key's first lookup.
_READ_CALLS: dict[str, int] = {}

#: Set while a ``hang`` fault is stalling this process; the worker
#: heartbeat thread goes silent while it is set.
_HANGING = threading.Event()


def configure(plan: FaultPlan | str | None) -> FaultPlan | None:
    """Activate a fault plan (``None`` disables).

    Accepts a parsed plan or a spec string.  Exports the canonical spec
    through :data:`FAULTS_ENV` so worker processes -- forked or spawned
    -- inject from the identical plan.
    """
    global _PLAN
    _WRITE_CALLS.clear()  # a fresh plan starts with fresh ordinals
    _READ_CALLS.clear()
    if plan is None:
        _PLAN = None
        os.environ.pop(FAULTS_ENV, None)
        return None
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _PLAN = plan
    os.environ[FAULTS_ENV] = plan.spec()
    return plan


def active_plan() -> FaultPlan | None:
    """The currently active plan, or ``None`` when disabled."""
    return _PLAN


def enabled() -> bool:
    """Whether fault injection is active in this process."""
    return _PLAN is not None


def hang_active() -> bool:
    """Whether a ``hang`` fault is currently stalling this process."""
    return _HANGING.is_set()


def set_point_context(key: str, attempt: int) -> None:
    """Bind deep injection sites to the point being evaluated."""
    global _CONTEXT
    if _PLAN is None:
        return
    _CONTEXT = (key, attempt)
    _SITE_CALLS.clear()


def clear_point_context() -> None:
    """Unbind the point context (end of one evaluation attempt)."""
    global _CONTEXT
    _CONTEXT = None
    _SITE_CALLS.clear()


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _execute(clause: FaultClause, site: str, plan: FaultPlan) -> None:
    counter("faults.injected", kind=clause.kind, site=site)
    # Flush *before* breaking anything: a hang ends in SIGKILL and a
    # die never returns, so a buffered event would vanish with the
    # worker and the trace report could not be checked against the
    # plan's injection count.
    flush()
    if clause.kind == "crash":
        raise InjectedFault(f"injected crash at {site}")
    if clause.kind == "slow_io":
        time.sleep(plan.slow_s)
        return
    if clause.kind == "die":
        if not _in_worker():
            # Killing the main process would take the campaign (and
            # the test runner) with it; inline execution degrades the
            # fault to a crash, which the retry path still exercises.
            raise InjectedFault(
                f"injected die at {site} (inline: converted to crash)")
        os._exit(DIE_EXIT_CODE)
    if clause.kind == "hang":
        if not _in_worker():
            # No parent-side watchdog is watching the main process; a
            # real hang would stall the campaign forever.
            raise InjectedFault(
                f"injected hang at {site} (inline: converted to crash)")
        _HANGING.set()  # heartbeats go silent: a convincing freeze
        time.sleep(plan.hang_s)
        _HANGING.clear()


def fire(site: str, key: str | None = None,
         attempt: int | None = None,
         kinds: tuple[str, ...] | None = None) -> None:
    """Inject whatever the plan schedules at this execution point.

    ``key``/``attempt`` default to the bound point context; with no
    plan, or no context at a deep site, this is a no-op costing one
    global read.  ``kinds`` restricts which fault kinds this hook will
    execute (sites with several physical hooks split the kinds between
    them).  May raise :class:`InjectedFault`, sleep, or kill the
    process -- exactly what real infrastructure does.
    """
    plan = _PLAN
    if plan is None:
        return
    if key is None or attempt is None:
        if _CONTEXT is None:
            return
        key, attempt = _CONTEXT
    call = _SITE_CALLS.get(site, 0)
    _SITE_CALLS[site] = call + 1
    clause = plan.decide(site, key, attempt, call, kinds=kinds)
    if clause is not None:
        _execute(clause, site, plan)


def store_write_fault(key: str) -> str | None:
    """The store-site decision for one record append.

    Applies a ``slow_io`` stall inline and returns ``"torn_write"``
    when the append should be torn mid-line (the caller owns the
    actual tearing -- it knows the bytes).  At this site the per-key
    write ordinal stands in for the attempt, so ``attempt<1`` tears
    only a key's *first* append -- the re-append after a resume
    re-evaluation lands intact, which is how a chaos test proves the
    store heals.
    """
    plan = _PLAN
    if plan is None:
        return None
    call = _WRITE_CALLS.get(key, 0)
    _WRITE_CALLS[key] = call + 1
    clause = plan.decide("store", key, call, call)
    if clause is None:
        return None
    if clause.kind == "slow_io":
        counter("faults.injected", kind="slow_io", site="store")
        time.sleep(plan.slow_s)
        return None
    if clause.kind == "torn_write":
        counter("faults.injected", kind="torn_write", site="store")
        return "torn_write"
    _execute(clause, "store", plan)
    return None


def serve_read_fault(key: str) -> str | None:
    """The ``serve``-site decision for one service store read.

    Only ``slow_io`` clauses apply here (a flaky disk under the result
    store); the process-breaking kinds at ``site=serve`` belong to the
    attempt hook (:func:`fire` inside each evaluation attempt), so a
    ``crash:site=serve`` plan breaks evaluations -- which the service
    retries -- rather than the read path of every request.  As at the
    store-write site, the per-key read ordinal stands in for the
    attempt.  Returns the fired kind (so the service can surface the
    stall in its own ``/metrics`` counters), or ``None``.
    """
    plan = _PLAN
    if plan is None:
        return None
    call = _READ_CALLS.get(key, 0)
    _READ_CALLS[key] = call + 1
    clause = plan.decide("serve", key, call, call, kinds=("slow_io",))
    if clause is None:
        return None
    _execute(clause, "serve", plan)
    return clause.kind


def _init_from_env() -> None:
    """Pick up ``$REPRO_FAULTS`` at import (covers spawned workers)."""
    global _PLAN
    spec = os.environ.get(FAULTS_ENV)
    if spec:
        try:
            _PLAN = FaultPlan.parse(spec)
        except ValueError:
            _PLAN = None  # unusable spec: stay disabled


_init_from_env()
