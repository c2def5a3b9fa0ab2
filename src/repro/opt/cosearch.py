"""Joint accuracy x hardware co-search over ``{strategy x arch}``.

The paper's Algorithm 1 (:func:`repro.core.search.greedy_bitflip_search`)
searches Bit-Flip strategies for *fidelity only*; this module closes
the loop it leaves open.  The greedy search supplies a trajectory of
strategy snapshots (one per accepted move, scored by a data-free
fidelity proxy on the tiny executable network), and each snapshot is
priced in hardware by the analytical BitWave model under every
candidate arch: the snapshot's per-layer zero-column targets cap the
workload's weight statistics exactly
(:meth:`~repro.sparsity.stats.LayerWeightStats.with_bitflip`), so
cycles/energy reflect the strategy, not the default flip table.  A
nondominated archive over ``(accuracy, TOPS/W)`` -- via
:func:`repro.core.pareto.pareto_front` -- emits the accuracy-vs-TOPS/W
frontier across ``{strategy x arch}``.

Pricing probes go through :meth:`repro.opt.objective.Objective.answer`
like every guided probe, so the evaluation engine prices them (same
counters, fault site, retries, timeout and record stamping) with
:func:`_price` as its compute function, and they persist in the store
the co-search is given, beside the other records (keys hash the probe
kind + strategy + arch + workload), so re-running a co-search
re-prices nothing, and records carry ``origin="opt:cosearch"``
provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.accelerators import build_accelerator, config_arch_reads
from repro.arch import canonical_arch, parse_arch
from repro.core.pareto import pareto_front
from repro.core.search import (
    Strategy,
    apply_strategy,
    empty_strategy,
    greedy_bitflip_search,
)
from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.dse.summary import METRICS
from repro.eval.request import config_hash
from repro.eval.result import EvalResult, from_network_evaluation
from repro.models import BUILDERS
from repro.models.fidelity import make_evaluator
from repro.obs import counter, trace
from repro.opt.objective import Objective
from repro.sparsity.profiles import network_weight_stats
from repro.workloads.nets import network_layers

#: Provenance tag stamped into every record a co-search writes.
COSEARCH_ORIGIN = "opt:cosearch"


def strategy_signature(strategy: Strategy) -> dict[str, dict[str, int]]:
    """Canonical JSON shape of a strategy: nonzero targets only, string
    group-size keys, deterministically ordered by ``config_hash``'s
    sorted-key serialization."""
    signature: dict[str, dict[str, int]] = {}
    for layer in sorted(strategy):
        targets = {str(gs): z for gs, z in sorted(strategy[layer].items())
                   if z > 0}
        if targets:
            signature[layer] = targets
    return signature


def effective_zero_columns(strategy: Strategy) -> dict[str, int]:
    """Per-layer zero-column cap a strategy guarantees in hardware.

    Flips at several group sizes compose (each pass only adds zero
    columns at its own granularity), so the strongest single-granularity
    target lower-bounds the zero columns every group of that layer
    carries -- the cap the BCS statistics price with.
    """
    return {layer: max(targets.values())
            for layer, targets in strategy.items()
            if targets and max(targets.values()) > 0}


@dataclass(frozen=True)
class CosearchProbe:
    """One ``{strategy x arch}`` pricing request (a store-keyable point).

    Satisfies the record protocol (``key()`` / ``to_dict()``) so
    :func:`repro.dse.records.make_record` persists it like any
    evaluation point.  The key keeps only the arch overrides the
    BitWave model reads, as an :class:`repro.eval.EvalRequest` key
    does, so ``bitwave-16nm@group=16`` prices as ``bitwave-16nm``.
    """

    workload: str
    arch: str
    preset: str
    strategy: Strategy

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "cosearch-probe",
            "workload": self.workload,
            "arch": canonical_arch(self.arch, config_arch_reads("BitWave")),
            "preset": self.preset,
            "strategy": strategy_signature(self.strategy),
        }

    def key(self) -> str:
        return config_hash(self.to_dict())


@dataclass(frozen=True)
class CosearchConfig:
    """Knobs of one co-search run (all deterministic)."""

    #: Benchmark network: accuracy side runs its tiny executable build,
    #: hardware side prices its workload layer table (names match).
    network: str = "cnn_lstm"
    preset: str = "tiny"
    #: Candidate hardware design points.
    archs: tuple[str, ...] = ("bitwave-16nm", "bitwave-dense-16nm")
    #: Algorithm 1's ``macc`` stopping constraint, on the network's
    #: fidelity-proxy scale (PESQ-shaped [1, 4.5] for cnn_lstm).
    min_accuracy: float = 3.5
    #: Accepted greedy moves to explore (each yields one snapshot).
    max_moves: int = 3
    group_sizes: tuple[int, ...] = (16,)
    #: Calibration-input batch and seed for the fidelity proxy.
    batch: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.network not in BUILDERS:
            raise ValueError(
                f"unknown network {self.network!r}; one of "
                f"{tuple(BUILDERS)}")
        if not self.archs:
            raise ValueError("cosearch needs at least one arch")
        object.__setattr__(self, "archs", tuple(self.archs))
        object.__setattr__(self, "group_sizes", tuple(self.group_sizes))
        for arch in self.archs:
            canonical_arch(arch)  # raises on unknown presets/fields
        if self.max_moves < 0:
            raise ValueError(f"max_moves must be >= 0, got {self.max_moves}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


@dataclass(frozen=True)
class CosearchResult:
    """The co-search's archive, frontier, and accounting."""

    config: CosearchConfig
    #: Accepted greedy moves: ``(layer, group_size, new_target,
    #: accuracy)`` -- paper Algorithm 1's trajectory.
    history: tuple[tuple[str, int, int, float], ...]
    #: Every ``{strategy x arch}`` row priced (the archive).
    rows: tuple[dict[str, Any], ...]
    #: Nondominated rows over (accuracy, TOPS/W), both maximized.
    front: tuple[dict[str, Any], ...]
    #: Probe keys in call order (cache hits included).
    trajectory: tuple[str, ...]
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "origin": COSEARCH_ORIGIN,
            "network": self.config.network,
            "preset": self.config.preset,
            "archs": list(self.config.archs),
            "min_accuracy": self.config.min_accuracy,
            "seed": self.config.seed,
            "history": [list(move) for move in self.history],
            "rows": [dict(row) for row in self.rows],
            "front": [dict(row) for row in self.front],
            "trajectory": list(self.trajectory),
            "counts": dict(self.counts),
        }


def _price(probe: CosearchProbe) -> EvalResult:
    """Hardware-price one strategy snapshot under one arch.

    The fully-enabled BitWave model evaluates the workload against
    weight statistics capped by the *strategy's* zero-column targets
    (layers the strategy leaves alone keep their profiled statistics
    -- no default flip table is applied).
    """
    arch = parse_arch(probe.arch)
    accelerator = build_accelerator("BitWave", arch)
    stats = dict(network_weight_stats(probe.workload))
    for layer, z in effective_zero_columns(probe.strategy).items():
        if layer in stats:
            stats[layer] = stats[layer].with_bitflip(z)
    specs = network_layers(probe.workload)
    evaluation = accelerator.evaluate_workload(
        specs, stats, probe.workload)
    return from_network_evaluation(
        evaluation, backend="model",
        clock_hz=accelerator.arch.tech.clock_frequency_hz)


def cosearch(
    store: ResultStore,
    config: CosearchConfig | None = None,
    policy: RetryPolicy | None = None,
) -> CosearchResult:
    """Run the accuracy x hardware co-search.

    Deterministic end to end: the model's weights and calibration
    inputs are seeded, Algorithm 1 is deterministic given both, and
    pricing is analytic -- so the same config replays the identical
    move history, probe trajectory, archive, and frontier.
    """
    config = config or CosearchConfig()
    objective = Objective(store, origin=COSEARCH_ORIGIN, policy=policy)

    with trace("opt.round", origin=COSEARCH_ORIGIN, round=0,
               phase="accuracy-search"):
        model = BUILDERS[config.network](config.preset)
        inputs = model.sample_inputs(config.batch, seed=config.seed)
        evaluate = make_evaluator(model, inputs)
        weights = model.weights_int8()
        baseline = evaluate(apply_strategy(weights, empty_strategy(weights)))
        search = greedy_bitflip_search(
            weights, evaluate, config.min_accuracy,
            group_sizes=config.group_sizes, max_moves=config.max_moves)
    counter("opt.cosearch.moves", n=len(search.history))

    # Snapshot trajectory: the empty strategy, then the strategy after
    # each accepted move -- every rung of the accuracy ladder gets
    # priced, not just the end point.
    snapshots: list[tuple[Strategy, float]] = [
        (empty_strategy(weights), baseline)]
    replay = empty_strategy(weights)
    for layer, gs, new_z, accuracy in search.history:
        replay = {name: dict(t) for name, t in replay.items()}
        replay[layer][gs] = new_z
        snapshots.append((replay, accuracy))

    tops_per_w = METRICS["tops_per_w"]
    cycles = METRICS["cycles"]
    energy = METRICS["energy"]
    rows: list[dict[str, Any]] = []
    archive: list[tuple[float, float, dict[str, Any]]] = []
    for round_index, (strategy, accuracy) in enumerate(snapshots):
        with trace("opt.round", origin=COSEARCH_ORIGIN, round=round_index,
                   phase="pricing", archs=len(config.archs)):
            for arch in config.archs:
                probe = CosearchProbe(
                    workload=config.network, arch=arch,
                    preset=config.preset, strategy=strategy)
                result, _, _ = objective.answer(
                    probe, _price, round_index=round_index,
                    backend="model", workload=probe.workload)
                if result is None:
                    continue
                efficiency = tops_per_w.extract(result)
                row = {
                    "key": probe.key(),
                    "moves": round_index,
                    "arch": canonical_arch(arch),
                    "strategy": strategy_signature(strategy),
                    "accuracy": accuracy,
                    "tops_per_w": efficiency,
                    "cycles": cycles.extract(result),
                    "energy": energy.extract(result),
                }
                rows.append(row)
                if efficiency is not None:
                    archive.append((accuracy, efficiency, row))

    front = pareto_front(archive, maximize=(True, True))
    counter("opt.cosearch.front", n=len(front))
    return CosearchResult(
        config=config,
        history=tuple(search.history),
        rows=tuple(rows),
        front=tuple(row for _, _, row in front),
        trajectory=tuple(objective.trajectory),
        counts=objective.counts(),
    )
