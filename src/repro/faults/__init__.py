"""``repro.faults``: deterministic fault injection for chaos testing.

A seeded, fully deterministic fault-injection framework the campaign
layer uses to exercise its own failure handling in CI: every decision
is a pure function of ``(seed, kind, site, key, attempt, call)``, so a
plan like ``"seed=7,crash:0.2:attempt<1,hang:key=3fa"`` injects the
*same* faults on every run and tests can assert the exact retry and
timeout counters it must produce.

Fault kinds: ``crash`` (raise), ``hang`` (stall past any deadline,
heartbeat-silent), ``slow_io`` (stall one operation), ``torn_write``
(tear a store append mid-line), ``die`` (kill the worker process,
OOM-style).  Sites: ``eval`` (the worker evaluation entry), ``gemm``
(inside the simulator's per-plane GEMM loop), ``store`` (the
:class:`~repro.dse.store.ResultStore` append boundary), and ``serve``
(the evaluation service's request path: ``slow_io`` stalls its store
reads, the process-breaking kinds fire inside its evaluation
attempts).

Enable with ``--inject SPEC`` on ``python -m repro.dse run|sim`` or by
exporting ``REPRO_FAULTS=SPEC`` (inherited by pool workers).  Disabled
-- the default -- every hook is a single global read.
"""

from repro.faults.hooks import (
    ATTEMPT_KINDS,
    DIE_EXIT_CODE,
    FAULTS_ENV,
    InjectedFault,
    active_plan,
    clear_point_context,
    configure,
    enabled,
    fire,
    hang_active,
    serve_read_fault,
    set_point_context,
    store_write_fault,
)
from repro.faults.plan import (
    DEFAULT_SITES,
    FAULT_KINDS,
    FAULT_SITES,
    FaultClause,
    FaultPlan,
)

__all__ = [
    "ATTEMPT_KINDS",
    "DEFAULT_SITES",
    "DIE_EXIT_CODE",
    "FAULTS_ENV",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultClause",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "clear_point_context",
    "configure",
    "enabled",
    "fire",
    "hang_active",
    "serve_read_fault",
    "set_point_context",
    "store_write_fault",
]
