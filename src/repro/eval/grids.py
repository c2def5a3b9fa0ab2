"""Shared evaluation grids for the experiment harnesses.

The Fig. 13-17 harnesses all consume the same 6 accelerators x 4
networks grid (plus the Fig. 13 BitWave ablation ladder), now expressed
as :class:`EvalRequest` batches through :func:`repro.eval.evaluate` --
so harness runs, DSE campaigns, and ad-hoc calls share one store-backed
result set.  ``prewarm_grids`` fans the grid out over the DSE pool
executor to fill the store (and this process's memo) in parallel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.accelerators import BITWAVE_VARIANTS, SOTA_ACCELERATORS
from repro.arch import DEFAULT_ARCH
from repro.eval.api import evaluate
from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult
from repro.workloads.nets import NETWORKS

if TYPE_CHECKING:
    from repro.dse.executor import CampaignRun

#: The Fig. 13 ablation ladder, in presentation order.
BREAKDOWN_VARIANTS = BITWAVE_VARIANTS


def evaluation(
    workload: str,
    accelerator: str = "BitWave",
    variant: "str | None" = None,
    backend: str = "model",
    arch: str = DEFAULT_ARCH,
) -> EvalResult:
    """One cached evaluation (thin :func:`evaluate` wrapper)."""
    return evaluate(EvalRequest(
        workload=workload, accelerator=accelerator,
        variant=variant, backend=backend, arch=arch))


def sota_grid(
    networks: tuple[str, ...] = NETWORKS,
    accelerators: "tuple[str, ...] | None" = None,
    backend: str = "model",
    arch: str = DEFAULT_ARCH,
) -> dict[tuple[str, str], EvalResult]:
    """``(accelerator, network) -> result`` for a sub-grid."""
    accelerators = SOTA_ACCELERATORS if accelerators is None else accelerators
    return {
        (acc, net): evaluation(net, accelerator=acc, backend=backend,
                               arch=arch)
        for net in networks
        for acc in accelerators
    }


def breakdown_grid(
    networks: tuple[str, ...] = NETWORKS,
    variants: tuple[str, ...] = BREAKDOWN_VARIANTS,
    arch: str = DEFAULT_ARCH,
) -> dict[tuple[str, str], EvalResult]:
    """``(variant, network) -> result`` for the ablation ladder."""
    return {
        (variant, net): evaluation(net, accelerator="BitWave",
                                   variant=variant, arch=arch)
        for net in networks
        for variant in variants
    }


def prewarm_grids(
    networks: tuple[str, ...] = NETWORKS,
    jobs: int = 1,
    progress: "Callable[..., None] | None" = None,
) -> "CampaignRun | None":
    """Populate store + memo for the full Fig. 13-17 grids, optionally
    in parallel.  Returns ``None`` when no store is available (parallel
    results could not be handed back to this process's memo cheaply, so
    the harnesses would recompute serially anyway)."""
    from repro.dse.executor import run_campaign
    from repro.dse.spec import CampaignSpec
    from repro.eval import api

    store = api.default_store()
    if store is None:
        return None
    spec = CampaignSpec(
        name="experiments-grid",
        accelerators=SOTA_ACCELERATORS,
        networks=networks,
        variants=BREAKDOWN_VARIANTS,
    )
    run = run_campaign(spec, store, jobs=jobs, progress=progress)
    if run.failed:
        # The executor tolerates per-point faults, but a prewarm must
        # hand the harnesses a complete grid.
        raise RuntimeError(
            f"{len(run.failed)} prewarm points failed: "
            + ", ".join(sorted(run.failed_labels())))
    for point in run.points:
        api.memoize(point, run.results[point.key()])
    return run
