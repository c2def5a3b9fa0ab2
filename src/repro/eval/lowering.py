"""Lowering workload layers onto the structural BitWave NPU.

The simulator executes matmuls: an FC layer runs directly, and every
convolution lowers to its im2col matrix (the layout
:func:`repro.workloads.synthetic.synthetic_weights` already uses).
This module turns a :class:`repro.workloads.spec.LayerSpec` into one
:meth:`BitWaveNPU.matmul_counters` call over the layer's full output
row count and prices the counters with the whole-network fusion rules.

The counters need no activations: a layer's cycle count follows from
its weights' index bytes, and output contexts beyond the spatial
``OXu`` unroll only serialize, so every row count is counted exactly
without running a GEMM.

:func:`analytic_compute_cycles` is the matching analytical-model half
(BitWave's lock-stepped column cycle formula).  :func:`lower_layer`
puts both halves of one layer into a :class:`repro.eval.result.LayerResult`
-- the unit the ``sim-vectorized`` backend stores and the Section V-B
validation table reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.arch import ArchSpec
from repro.eval.result import LayerResult
from repro.obs import trace
from repro.sim.energy import (
    SimEnergyBreakdown,
    fused_dram_elems,
    price_matmul,
    weight_stream_passes,
)
from repro.sim.npu import SEGMENT_KERNELS, BitWaveNPU, MatmulCounters
from repro.sparsity.stats import LayerWeightStats, compute_layer_stats
from repro.workloads.spec import LayerSpec
from repro.workloads.synthetic import synthetic_weights


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _sram_capacities(arch: ArchSpec) -> tuple[int, int]:
    """(weight SRAM bytes, activation fusion-tile bytes) of a spec.

    Both thresholds come from the spec's own accessors -- the same
    split the analytical mapper consumes -- so the fusion/re-stream
    rules cannot drift between the backends.
    """
    return arch.weight_sram_bytes(), arch.act_fusion_tile_bytes()


@dataclass(frozen=True)
class SimLayerRun(MatmulCounters):
    """Full-layer counters of one simulated layer, priced."""

    #: Activation words of the full layer.
    act_words: int
    #: Output contexts of the full layer.
    total_rows: int
    #: Full-layer counters priced with the spec's technology
    #: (:mod:`repro.sim.energy`).
    energy: SimEnergyBreakdown

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj


def matmul_reduction(spec: LayerSpec) -> int:
    """Reduction width of the layer's lowered matmul."""
    if spec.kind == "dwconv":
        return spec.fy * spec.fx
    return spec.fy * spec.fx * spec.c


def layer_matmul_weights(spec: LayerSpec) -> np.ndarray:
    """The ``(K, reduction)`` int8 matrix the simulator streams.

    Identical weights to the analytical model's sparsity profiles
    (:mod:`repro.sparsity.profiles`), so model-vs-sim comparisons see
    the same bit patterns.
    """
    return synthetic_weights(spec)


def output_rows(spec: LayerSpec) -> int:
    """Output contexts the datapath serializes over ``OXu``."""
    return spec.b * spec.ox * spec.oy


def simulate_layer(
    spec: LayerSpec,
    npu: BitWaveNPU,
    weights: np.ndarray | None = None,
) -> SimLayerRun:
    """Count one layer's matmul on ``npu`` over every output context.

    ``weights`` lets a caller that already materialized the layer's
    synthetic weights (they are not cached) reuse them.  Each call
    emits an ``eval.lower.layer`` span (with the simulator call under
    ``eval.lower.sim_call``) when tracing is on.
    """
    with trace("eval.lower.layer", layer=spec.name, network=spec.network,
               kind=spec.kind):
        if weights is None:
            with trace("eval.lower.weights", layer=spec.name):
                weights = layer_matmul_weights(spec)
        rows = output_rows(spec)
        with trace("eval.lower.sim_call", layer=spec.name):
            counters = npu.matmul_counters(weights, rows)

        # Energy epilog at full-layer counts.  The ZCIP payload is the
        # weight stream minus the per-group index bytes; every streamed
        # column engages G lanes once per output context.
        k, reduction = weights.shape
        act_words = rows * reduction
        n_groups = _ceil_div(reduction, npu.group_size)
        payload_bits = counters.weight_bits_fetched - 8 * k * n_groups
        weight_sram_bytes, act_tile_bytes = _sram_capacities(npu.arch)
        energy = price_matmul(
            npu.tech,
            lane_cycles=float(payload_bits) * rows,
            weight_stream_bytes=counters.weight_bits_fetched / 8.0,
            dram_act_in_elems=fused_dram_elems(spec.input_count,
                                               act_tile_bytes),
            dram_act_out_elems=fused_dram_elems(spec.output_count,
                                                act_tile_bytes),
            act_elems=float(act_words),
            out_elems=float(rows * k),
            n_mac=float(rows) * k * reduction,
            weight_passes=weight_stream_passes(
                k * reduction, spec.input_count,
                weight_sram_bytes, act_tile_bytes),
        )
        return SimLayerRun(**asdict(counters), act_words=act_words,
                           total_rows=rows, energy=energy)


def analytic_compute_cycles(
    stats: LayerWeightStats,
    k: int,
    reduction: int,
    rows: int,
    group_size: int = 8,
    ku: int = 32,
    oxu: int = 16,
    dense_precision: int | None = None,
) -> float:
    """BitWave's analytical compute-cycle model for one matmul.

    Segments of :data:`SEGMENT_KERNELS` kernels advance in lockstep, so
    a segment context costs the expected *maximum* non-zero-column
    count over its ``64 / G`` groups; ``Ku / 8`` segments stream through
    parallel banks and contexts beyond ``OXu`` serialize.  This is the
    model half of the paper's Section V-B validation (<6% vs RTL).
    ``dense_precision`` models the ZCIP dense mode instead (every group
    streams exactly that many columns, no skipping).
    """
    if dense_precision is not None:
        cpm = float(dense_precision)
    else:
        sync_domain = max(64 // group_size, 1)
        cpm = stats.expected_max_nz_columns(group_size, sync_domain)
    n_segments = (_ceil_div(k, SEGMENT_KERNELS)
                  * _ceil_div(reduction, group_size))
    streams = max(ku // SEGMENT_KERNELS, 1)
    contexts = _ceil_div(rows, oxu)
    return n_segments * cpm / streams * contexts


def layer_stats_for_sim(
    spec: LayerSpec,
    group_size: int,
    weights: np.ndarray | None = None,
) -> LayerWeightStats:
    """Sparsity profile of the simulated weights at one group size."""
    if weights is None:
        weights = layer_matmul_weights(spec)
    return compute_layer_stats(weights, group_sizes=(group_size,))


def analytic_energy_pj(
    stats: LayerWeightStats,
    spec: LayerSpec,
    k: int,
    reduction: int,
    rows: int,
    arch: ArchSpec,
) -> float:
    """The analytical model's energy for one lowered matmul (eq. (4)).

    The statistics-derived half of the sim-energy validation: BCS
    compression from ``stats.bcs_cr`` instead of the counted stream,
    mean non-zero columns instead of the summed sync counters, the same
    fusion thresholds and unit energies.  The per-layer deviation from
    the simulator's counter-priced energy is reported next to the
    compute-cycle deviation (:func:`model_vs_sim_deviation`).
    """
    group_size = arch.group_size
    n_mac = float(rows) * k * reduction
    if arch.columns == "dense":
        # ZCIP dense mode: every group streams exactly the configured
        # precision; the packed stream keeps its per-group index byte
        # (matching the simulator's fetch counters).
        mean_columns = float(arch.dense_precision)
        weight_elems = (k * reduction * arch.dense_precision / 8.0
                        + k * _ceil_div(reduction, group_size))
    else:
        mean_columns = max(stats.mean_nz_columns(group_size), 0.0)
        weight_elems = k * reduction / stats.bcs_cr[group_size]
    weight_sram_bytes, act_tile_bytes = _sram_capacities(arch)
    # Same pricing function as the simulator's epilog -- only the
    # inputs differ (statistics-derived instead of counted).
    return price_matmul(
        arch.technology(),
        lane_cycles=n_mac * mean_columns,
        weight_stream_bytes=weight_elems,
        dram_act_in_elems=fused_dram_elems(spec.input_count, act_tile_bytes),
        dram_act_out_elems=fused_dram_elems(spec.output_count,
                                            act_tile_bytes),
        act_elems=float(rows) * reduction,
        out_elems=float(rows) * k,
        n_mac=n_mac,
        weight_passes=weight_stream_passes(
            k * reduction, spec.input_count,
            weight_sram_bytes, act_tile_bytes),
    ).total_pj


def model_vs_sim_deviation(simulated_cycles: int, analytic: float) -> float:
    """Relative deviation of the analytical model from the simulator."""
    return abs(simulated_cycles - analytic) / simulated_cycles


def energy_deviation(simulated_pj: float, analytic_pj: float) -> float:
    """Relative deviation of the analytical energy from the simulator's."""
    if simulated_pj == 0.0:
        return 0.0 if analytic_pj == 0.0 else float("inf")
    return abs(simulated_pj - analytic_pj) / simulated_pj


def lower_layer(
    spec: LayerSpec,
    arch: ArchSpec,
    weights: np.ndarray | None = None,
) -> LayerResult:
    """One layer's simulated counters next to the matched analytical
    predictions and their deviations (the Section V-B methodology).

    ``weights`` is the layer's ``(K, reduction)`` int8 matrix; it
    defaults to the workload's synthetic weights.
    """
    if weights is None:
        with trace("eval.lower.weights", layer=spec.name):
            weights = layer_matmul_weights(spec)
    run = simulate_layer(spec, BitWaveNPU(arch=arch), weights=weights)
    with trace("eval.lower.stats", layer=spec.name):
        stats = layer_stats_for_sim(spec, arch.group_size, weights=weights)
    reduction = matmul_reduction(spec)
    analytic = analytic_compute_cycles(
        stats,
        k=spec.k,
        reduction=reduction,
        rows=run.total_rows,
        group_size=arch.group_size,
        ku=arch.ku,
        oxu=arch.oxu,
        dense_precision=(arch.dense_precision
                         if arch.columns == "dense" else None),
    )
    analytic_pj = analytic_energy_pj(
        stats, spec, k=spec.k, reduction=reduction, rows=run.total_rows,
        arch=arch)
    return LayerResult(
        name=spec.name,
        macs=spec.macs,
        cycles=float(run.total_cycles),
        energy_pj=run.energy.total_pj,
        energy=run.energy.components(),
        traffic={
            "weight_bits_fetched": float(run.weight_bits_fetched),
            "dense_weight_bits": float(run.dense_weight_bits),
            "act_words_fetched": float(run.act_words),
        },
        detail={
            "kind": spec.kind,
            "compute_cycles": run.compute_cycles,
            "fetch_cycles": run.fetch_cycles,
            "column_ops": run.column_ops,
            "analytic_cycles": analytic,
            "model_deviation": model_vs_sim_deviation(
                run.compute_cycles, analytic),
            "analytic_energy_pj": analytic_pj,
            "energy_deviation": energy_deviation(
                run.energy.total_pj, analytic_pj),
            "total_rows": run.total_rows,
        },
    )
