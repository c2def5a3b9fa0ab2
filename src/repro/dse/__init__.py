"""Design-space exploration engine.

Declarative evaluation campaigns (:class:`CampaignSpec`) over the
accelerator x network x variant x backend grid, whose points are
:class:`repro.eval.EvalRequest` objects, executed in parallel over a
process pool (:func:`run_campaign`) with canonical
:class:`repro.eval.EvalResult` records persisted in a
:class:`ResultStore` keyed by stable config hashes -- so re-runs are
incremental and grids are shared across processes and sessions.

Campaigns shard across processes/hosts deterministically
(:class:`Shard`, ``run --shard i/N``), shard stores fold back together
with :meth:`ResultStore.merge`, and :func:`repro.dse.gc.collect_garbage`
compacts live store namespaces and evicts stale ones.

Execution is self-healing (the evaluation engine in
:mod:`repro.dse.engine`, which campaigns, the service and guided search
share: :class:`RetryPolicy` + the watchdog pool in
:mod:`repro.dse.pool`): worker exceptions become per-point failure
records instead of aborting the pool, transient failures retry with
exponential backoff, hung or dead workers are killed and respawned,
poison points are quarantined, and SIGINT/SIGTERM stop a run
gracefully with completed results committed.  The machinery is
chaos-tested through deterministic fault injection (:mod:`repro.faults`,
``run --inject``).

CLI: ``python -m repro.dse {init,points,run,summary,pareto,merge,gc}``.
"""

from repro.dse.executor import CampaignRun, evaluate_point, run_campaign
from repro.dse.gc import collect_garbage, live_namespaces
from repro.dse.pool import WatchdogPool
from repro.dse.retry import PointFailure, RetryPolicy
from repro.dse.records import make_record, result_from_dict, result_to_dict
from repro.dse.spec import CampaignSpec, Shard, config_hash, paper_grid
from repro.dse.store import (
    CompactStats,
    ResultStore,
    ScanResult,
    default_store_root,
)
from repro.dse.summary import (
    METRICS,
    campaign_pareto,
    pareto_table,
    summary_table,
)
from repro.eval.fingerprints import code_fingerprint

__all__ = [
    "METRICS",
    "CampaignRun",
    "CampaignSpec",
    "CompactStats",
    "PointFailure",
    "ResultStore",
    "RetryPolicy",
    "ScanResult",
    "Shard",
    "WatchdogPool",
    "campaign_pareto",
    "code_fingerprint",
    "collect_garbage",
    "config_hash",
    "default_store_root",
    "evaluate_point",
    "live_namespaces",
    "make_record",
    "paper_grid",
    "pareto_table",
    "result_from_dict",
    "result_to_dict",
    "run_campaign",
    "summary_table",
]
