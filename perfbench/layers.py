"""The per-layer table: which public callables the traced pass wraps,
and how its tallies become the ``per_layer`` metrics.

Every timed row reports ``.calls``, ``.s`` (total busy seconds) and
``.self_s`` (seconds not covered by another wrapped call).  A row whose
callable a later change removes reads 0 and is listed as missing in
the run record.
"""

from __future__ import annotations

from typing import Any

from perfbench.tracer import Target


def _weights(args: tuple, kwargs: dict, result: Any,
             before: Any) -> dict[str, float]:
    weights = args[0] if args else kwargs.get("weights")
    return {"weights": float(getattr(weights, "size", 0))}


def _profile_misses(args: tuple, kwargs: dict) -> int:
    from repro.sparsity.profiles import network_weight_stats

    return network_weight_stats.cache_info().misses


def _profiled(args: tuple, kwargs: dict, result: Any,
              before: int) -> dict[str, float]:
    # A call that missed the per-process lru_cache computed a profile.
    if _profile_misses(args, kwargs) == before:
        return {}
    network = args[0] if args else kwargs.get("network")
    return {"computed": 1.0, f"network={network}": 1.0}


def _macs(args: tuple, kwargs: dict, result: Any,
          before: Any) -> dict[str, float]:
    weights, activations = args[1], args[2]  # (self, weights, acts)
    k, c = weights.shape
    return {"macs": float(activations.shape[0] * k * c)}


def _store_size(args: tuple, kwargs: dict) -> int:
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _put_bytes(args: tuple, kwargs: dict, result: Any,
               before: int) -> dict[str, float]:
    return {"bytes": float(_store_size(args, kwargs) - before)}


def _scan_lines(args: tuple, kwargs: dict, result: Any,
                before: Any) -> dict[str, float]:
    return {"lines": float(getattr(result, "raw_lines", 0))}


TARGETS = (
    Target("workloads.synthetic_weights",
           "repro.workloads.synthetic:synthetic_weights"),
    Target("sparsity.compute_layer_stats",
           "repro.sparsity.stats:compute_layer_stats", extra=_weights),
    Target("sparsity.network_weight_stats",
           "repro.sparsity.profiles:network_weight_stats",
           extra=_profiled, before=_profile_misses),
    Target("core.bcs_compress", "repro.core.compression:bcs_compress"),
    Target("accelerators.evaluate_workload",
           "repro.accelerators.base:Accelerator.evaluate_workload"),
    Target("sim.run_fc", "repro.sim.npu:BitWaveNPU.run_fc", extra=_macs),
    Target("eval.simulate_layer", "repro.eval.lowering:simulate_layer"),
    Target("eval.layer_stats_for_sim",
           "repro.eval.lowering:layer_stats_for_sim"),
    Target("eval.model_backend", "repro.eval.backends:ModelBackend.evaluate"),
    Target("eval.sim_backend", "repro.eval.backends:SimBackend.evaluate"),
    Target("eval.request_key", "repro.eval.request:EvalRequest.key"),
    Target("eval.fingerprint", "repro.eval.fingerprints:code_fingerprint"),
    Target("eval.fingerprint",
           "repro.eval.fingerprints:sim_backend_fingerprint"),
    Target("dse.evaluate_point", "repro.dse.executor:evaluate_point"),
    Target("dse.store.put", "repro.dse.store:ResultStore.put",
           extra=_put_bytes, before=_store_size),
    Target("dse.store.result", "repro.dse.store:ResultStore.result"),
    Target("dse.store.scan", "repro.dse.store:scan_jsonl", extra=_scan_lines),
    Target("dse.result_to_dict", "repro.dse.records:result_to_dict"),
    Target("dse.result_from_dict", "repro.dse.records:result_from_dict"),
    Target("dse.pool.run", "repro.dse.pool:WatchdogPool.run"),
    Target("serve.submit", "repro.serve.service:EvalService.submit"),
    Target("serve.dispatch", "repro.serve.http:HttpFrontend.dispatch"),
    Target("serve.payload", "repro.serve.http:outcome_payload"),
)

#: Rows reported as ``.calls`` / ``.s`` / ``.self_s``.
TIMED = tuple(dict.fromkeys(target.name for target in TARGETS))

#: ``(name, unit, better)`` of every other per-layer metric.
DERIVED = (
    ("sparsity.compute_layer_stats.weights", "count", "lower"),
    ("sparsity.network_weight_stats.computed", "count", "lower"),
    ("sparsity.network_weight_stats.per_network", "ratio", "lower"),
    ("sim.run_fc.macs", "count", "lower"),
    ("sim.ns_per_mac", "ns", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("dse.store.put.bytes", "B", "lower"),
    ("dse.store.scan.lines", "count", "lower"),
    ("dse.points.evaluated", "count", "lower"),
    ("dse.points.cached", "count", "higher"),
    ("dse.points.failed", "count", "lower"),
    ("dse.points.retried", "count", "lower"),
    ("dse.pool.busy_share", "ratio", "higher"),
    ("serve.requests.hot", "count", "higher"),
    ("serve.requests.store", "count", "lower"),
    ("serve.requests.coalesced", "count", "higher"),
    ("serve.requests.computed", "count", "lower"),
    ("serve.hot_hit_ratio", "ratio", "higher"),
    ("serve.latency.hot", "ms", "lower"),
    ("serve.latency.store", "ms", "lower"),
    ("serve.latency.computed", "ms", "lower"),
    ("serve.latency.batch", "ms", "lower"),
    ("serve.scans_per_miss", "ratio", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in order."""
    specs = []
    for name in TIMED:
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
    return specs + list(DERIVED)


def per_layer_values(rows: dict[str, list[float]], extra: dict[str, float],
                     facts: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values of one traced round.

    ``rows``/``extra`` are the merged tallies; ``facts`` carries what
    the round itself counted (campaign points, pool jobs, client-side
    serve tiers and latencies, tracing overhead).
    """
    values: dict[str, float] = {}
    for name in TIMED:
        calls, total, self_s = rows.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = self_s
    for key in ("sparsity.compute_layer_stats.weights",
                "sparsity.network_weight_stats.computed",
                "sim.run_fc.macs", "dse.store.put.bytes",
                "dse.store.scan.lines"):
        values[key] = extra.get(key, 0.0)
    networks = sum(1 for key in extra
                   if key.startswith("sparsity.network_weight_stats.network="))
    computed = values["sparsity.network_weight_stats.computed"]
    values["sparsity.network_weight_stats.per_network"] = (
        computed / networks if networks else 0.0)
    macs = values["sim.run_fc.macs"]
    values["sim.ns_per_mac"] = (values["sim.run_fc.s"] * 1e9 / macs
                                if macs else 0.0)
    jobs = facts.get("pool_jobs", 0)
    pool_s = values["dse.pool.run.s"]
    values["dse.pool.busy_share"] = (
        values["dse.evaluate_point.s"] / (pool_s * jobs)
        if pool_s and jobs else 0.0)
    computed_requests = facts.get("serve.computed_total", 0)
    values["serve.scans_per_miss"] = (
        values["dse.store.scan.calls"] / computed_requests
        if computed_requests else 0.0)
    for name, _, _ in DERIVED:
        if name not in values:
            values[name] = float(facts.get(name, 0.0))
    return values
