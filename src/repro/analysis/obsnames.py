"""The checked-in registry of observability event names.

Every span, counter, and gauge name the tree emits
(:mod:`repro.obs`: ``trace`` / ``observe`` / ``counter`` / ``gauge``,
plus the serving layer's mirrored ``ServeMetrics.incr``) must follow
one grammar -- ``layer.noun`` or ``layer.noun.verb``, lowercase
``snake_case`` segments -- and appear here.  The ``obs-names`` lint
rule (:mod:`repro.analysis.rules`) enforces both, so a typo'd or
ad-hoc metric name fails ``python -m repro.analysis check`` instead of
silently fragmenting the trace reports and the CI counter assertions
that pin exact values against these names.

Adding an instrumentation point is a two-line change: emit the event,
add its name to the matching set below.  The obs report CLI and the CI
smokes key on these exact strings, so the registry doubles as the
single place to see every signal the system can produce.
"""

from __future__ import annotations

import re

#: ``layer.noun`` or ``layer.noun.verb``: 2-3 lowercase snake segments.
NAME_GRAMMAR = re.compile(
    r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)?$")

#: Span names (``trace(...)`` context managers and caller-timed
#: ``observe(...)`` durations; both land in the per-phase tables).
SPAN_NAMES = frozenset({
    "dse.cache_scan",
    "dse.drive",
    "dse.persist",
    "dse.point",
    "dse.profile",
    "dse.retry.backoff",
    "dse.worker.queue_wait",
    "eval.evaluate",
    "eval.lower.layer",
    "eval.lower.sim_call",
    "eval.lower.stats",
    "eval.lower.weights",
    "eval.model",
    "eval.persist",
    "eval.store_lookup",
    "opt.probe",
    "opt.round",
    "opt.scalar",
    "serve.persist",
    "serve.point",
    "serve.request",
    "serve.retry.backoff",
    "serve.store_error",
    "serve.store_lookup",
    "sim.compute",
    "sim.decode",
    "sim.encode",
    "sim.energy_epilog",
    "sim.plane_gemm",
    "store.load",
    "store.lock_wait",
    "store.put",
})

#: Counter names (monotonic event counts; includes the names the
#: campaign executor emits from its run-summary table and the
#: ``serve.*`` counters ``ServeMetrics`` mirrors into repro.obs).
COUNTER_NAMES = frozenset({
    "dse.interrupted",
    "dse.point.exception",
    "dse.point.poison",
    "dse.point.recovered",
    "dse.points.cached",
    "dse.points.evaluated",
    "dse.points.failed",
    "dse.points.persist_failures",
    "dse.points.poisoned",
    "dse.points.recommits",
    "dse.points.retried",
    "dse.points.timed_out",
    "dse.points.total",
    "dse.profile.dropped",
    "dse.profile.layers",
    "dse.worker.killed",
    "eval.cache",
    "faults.injected",
    "opt.cosearch.front",
    "opt.cosearch.moves",
    "opt.grid.size",
    "opt.probe_errors",
    "opt.probes.evaluated",
    "opt.probes.failed",
    "opt.probes.saved",
    "opt.rounds",
    "opt.sampled",
    "serve.batch_errors",
    "serve.cache.hot_hit",
    "serve.cache.miss",
    "serve.cache.store_hit",
    "serve.coalesced",
    "serve.evaluated",
    "serve.failed",
    "serve.faults.recovered",
    "serve.faults.slow_read",
    "serve.http.errors",
    "serve.persist_failures",
    "serve.poisoned",
    "serve.rejected",
    "serve.requests",
    "serve.retried",
    "serve.store_errors",
    "serve.timed_out",
    "sim.column_ops",
    "sim.kernel_dispatch",
    "store.corrupt_lines",
})

#: Gauge names (sampled values; none emitted yet -- the rule keeps the
#: set honest the day one lands).
GAUGE_NAMES: frozenset[str] = frozenset()

#: Every registered observability name, for membership checks.
ALL_NAMES = SPAN_NAMES | COUNTER_NAMES | GAUGE_NAMES


def valid_grammar(name: str) -> bool:
    """Whether ``name`` spells ``layer.noun[.verb]`` in snake_case."""
    return NAME_GRAMMAR.fullmatch(name) is not None


def registered(name: str) -> bool:
    """Whether ``name`` is in the checked-in registry."""
    return name in ALL_NAMES
