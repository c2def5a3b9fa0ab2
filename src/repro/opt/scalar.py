"""Bound-expanding scalar search for single-axis tuning.

The objective-callback / tolerance / auto-expanding-bounds shape of
OpenNVRAM's characterizer binary search, adapted to our cached
``evaluate()``: give it a monotonic ``fn(x) -> value`` and a target
value, and it brackets the target (widening the bounds geometrically
when the initial ones miss it), then bisects until the value is within
tolerance or the try budget runs out.  Probes are failure-tolerant:
an ``fn`` that raises is retried by
:meth:`repro.dse.retry.RetryPolicy.call` (deterministic backoff), and
a probe that stays broken ends the search with the best point found so
far rather than an exception.

:func:`tune_arch_field` adapts the driver to one hardware-description
axis: probe ``x`` becomes the arch override ``"<base>@<field>=<x>"``,
evaluated through the shared result store (origin ``opt:tune``), so
tuning runs populate the same cache campaigns read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.arch import DEFAULT_ARCH
from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.dse.summary import resolve_metric
from repro.eval.request import EvalRequest
from repro.obs import counter, trace
from repro.opt.objective import Objective

#: Provenance tag stamped into records a tuning run writes.
TUNE_ORIGIN = "opt:tune"


@dataclass(frozen=True)
class ScalarSearchResult:
    """Outcome of one bound-expanding search."""

    #: Probe input whose value landed closest to the target.
    best_x: float
    #: ``fn(best_x)``.
    best_value: float
    target: float
    #: Whether ``|best_value - target| <= tolerance``.
    converged: bool
    #: Every ``(x, value)`` probed, in order; a failed probe records
    #: ``value=None``.  Pinned by the determinism tests.
    probes: tuple[tuple[float, float | None], ...]
    #: Bound widenings performed before the target was bracketed.
    expansions: int
    #: Final bracket.
    lo: float
    hi: float

    @property
    def tries(self) -> int:
        return len(self.probes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "best_x": self.best_x,
            "best_value": self.best_value,
            "target": self.target,
            "converged": self.converged,
            "probes": [list(p) for p in self.probes],
            "expansions": self.expansions,
            "lo": self.lo,
            "hi": self.hi,
        }


def bound_expanding_search(
    fn: Callable[[float], float | None],
    target: float,
    *,
    lo: float,
    hi: float,
    tolerance: float,
    max_tries: int = 32,
    expand_factor: float = 2.0,
    max_expansions: int = 8,
    increasing: bool = True,
    integer: bool = False,
    policy: RetryPolicy | None = None,
) -> ScalarSearchResult:
    """Find ``x`` in (an expansion of) ``[lo, hi]`` with
    ``fn(x) ~ target``.

    ``fn`` must be monotonic over the searched range -- increasing by
    default, ``increasing=False`` for objectives that fall as ``x``
    grows (cycles vs. a widening unroll).  When the initial bounds do
    not bracket the target, the deficient bound is pushed outward
    geometrically (``expand_factor``) up to ``max_expansions`` times --
    the auto-widening that lets callers start from a guess instead of a
    guarantee.  ``integer=True`` snaps probes to integers and stops
    when the bracket closes to adjacent integers.

    A probe that raises is retried under ``policy`` (deterministic
    backoff keyed by the probe value); one that exhausts the budget --
    or returns ``None`` -- is recorded as failed, and the search ends
    early with the best point found so far (``converged`` reflects the
    tolerance, not the interruption).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if max_tries < 2:
        raise ValueError(f"max_tries must be >= 2, got {max_tries}")
    if expand_factor <= 1.0:
        raise ValueError(
            f"expand_factor must be > 1, got {expand_factor}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    policy = policy or RetryPolicy()
    sense = 1.0 if increasing else -1.0

    probes: list[tuple[float, float | None]] = []
    best: tuple[float, float] | None = None  # (|value-target|, x) winner

    def snap(x: float) -> float:
        return float(round(x)) if integer else x

    def probe(x: float) -> float | None:
        x = snap(x)
        value, failures = policy.call(f"scalar|{x!r}", lambda attempt: fn(x))
        for failure in failures:
            counter("opt.probe_errors", origin=TUNE_ORIGIN,
                    etype=failure.etype)
        probes.append((x, value))
        nonlocal best
        if value is not None:
            gap = abs(value - target)
            if best is None or gap < abs(best[1] - target):
                best = (x, value)
        return value

    def finish(lo: float, hi: float, expansions: int) -> ScalarSearchResult:
        if best is None:
            # Every probe failed; report the midpoint with an infinite
            # gap so the caller can tell nothing was measured.
            return ScalarSearchResult(
                best_x=snap((lo + hi) / 2.0), best_value=float("nan"),
                target=target, converged=False, probes=tuple(probes),
                expansions=expansions, lo=lo, hi=hi)
        return ScalarSearchResult(
            best_x=best[0], best_value=best[1], target=target,
            converged=abs(best[1] - target) <= tolerance,
            probes=tuple(probes), expansions=expansions, lo=lo, hi=hi)

    with trace("opt.scalar", target=target, increasing=increasing):
        f_lo = probe(lo)
        if f_lo is None:
            return finish(lo, hi, 0)
        if abs(f_lo - target) <= tolerance:
            return finish(lo, hi, 0)
        f_hi = probe(hi)
        if f_hi is None:
            return finish(lo, hi, 0)

        # Auto-widen until [f(lo), f(hi)] brackets the target (in the
        # monotone sense): push hi out while f(hi) is still short of
        # the target, lo out while f(lo) already overshoots it.
        expansions = 0
        span = hi - lo
        while sense * (f_hi - target) < 0 and expansions < max_expansions:
            span *= expand_factor
            hi = snap(lo + span)
            expansions += 1
            f_hi = probe(hi)
            if f_hi is None:
                return finish(lo, hi, expansions)
        while sense * (f_lo - target) > 0 and expansions < max_expansions:
            span *= expand_factor
            lo = snap(hi - span)
            expansions += 1
            f_lo = probe(lo)
            if f_lo is None:
                return finish(lo, hi, expansions)
        if sense * (f_lo - target) > 0 or sense * (f_hi - target) < 0:
            # Expansion budget exhausted without a bracket.
            return finish(lo, hi, expansions)

        while len(probes) < max_tries:
            if integer and hi - lo <= 1:
                break
            mid = snap((lo + hi) / 2.0)
            if integer and mid in (lo, hi):
                break
            value = probe(mid)
            if value is None:
                return finish(lo, hi, expansions)
            if abs(value - target) <= tolerance:
                break
            if sense * (value - target) < 0:
                lo = mid
            else:
                hi = mid
        return finish(lo, hi, expansions)


def tune_arch_field(
    field: str,
    target: float,
    store: ResultStore,
    *,
    network: str,
    metric: str = "cycles",
    accelerator: str = "BitWave",
    backend: str = "model",
    base_arch: str = DEFAULT_ARCH,
    lo: float,
    hi: float,
    tolerance: float,
    max_tries: int = 32,
    expand_factor: float = 2.0,
    max_expansions: int = 8,
    increasing: bool = True,
    integer: bool = True,
    policy: RetryPolicy | None = None,
) -> ScalarSearchResult:
    """Tune one arch-override axis toward a target metric value.

    Probe ``x`` evaluates ``base_arch@field=x`` on ``network`` through
    the shared store (records stamped ``origin=opt:tune``), extracting
    ``metric`` from the result.  An unparseable override value raises
    immediately (poison, not weather); an evaluation failure is retried
    by the underlying :class:`~repro.opt.objective.Objective`.
    """
    resolved = resolve_metric(metric)
    objective = Objective(store, origin=TUNE_ORIGIN, policy=policy)

    def fn(x: float) -> float | None:
        spelled = f"{int(x)}" if integer else f"{x:g}"
        probe = objective.probe(EvalRequest(
            network, accelerator, backend=backend,
            arch=f"{base_arch}@{field}={spelled}"))
        if probe.result is None:
            return None
        return resolved.extract(probe.result)

    return bound_expanding_search(
        fn, target, lo=lo, hi=hi, tolerance=tolerance,
        max_tries=max_tries, expand_factor=expand_factor,
        max_expansions=max_expansions, increasing=increasing,
        integer=integer, policy=policy)
