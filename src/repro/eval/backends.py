"""Built-in evaluation backends: the analytical model and the simulator.

- ``model`` answers requests through the STEP1-STEP4 analytical
  pipeline (:class:`repro.accelerators.base.Accelerator`), for any of
  the six modelled accelerators and every BitWave ablation rung.
- ``sim-vectorized`` lowers each workload layer onto the counters of a
  :class:`repro.sim.npu.BitWaveNPU` (see :mod:`repro.eval.lowering`)
  -- whole-network layer tables counted structurally from the index
  bytes, not just modelled.  Simulator results report cycles, traffic
  *and* energy (the counters priced with the arch's
  :class:`repro.arch.TechSpec`) plus, per layer, the matched analytical
  compute-cycle and energy predictions and their deviations, so every
  sim-backed result doubles as a Section V-B style model-validation
  point.  The name predates the counters-only evaluation and is kept
  because stored campaigns key on it; the datapaths themselves stay
  reachable through ``BitWaveNPU(backend=...)``.

Both backends construct their machine from the request's ``arch`` axis
(:mod:`repro.arch`): the model prices with the arch's technology and
SRAM port widths, the simulator executes the arch's PE-array geometry.
"""

from __future__ import annotations

from repro.accelerators import build_accelerator, build_bitwave_variant
from repro.accelerators.base import Accelerator, NetworkEvaluation
from repro.arch import ArchSpec, parse_arch
from repro.eval.fingerprints import code_fingerprint, sim_backend_fingerprint
from repro.eval.lowering import (
    analytic_compute_cycles,
    analytic_energy_pj,
    energy_deviation,
    layer_matmul_weights,
    layer_stats_for_sim,
    matmul_reduction,
    model_vs_sim_deviation,
    simulate_layer,
)
from repro.eval.registry import register_backend
from repro.obs import trace
from repro.eval.request import EvalOptions, EvalRequest
from repro.eval.result import EvalResult, LayerResult, from_network_evaluation
from repro.sim.npu import BitWaveNPU
from repro.workloads.nets import network_layers


def build_request_accelerator(request: EvalRequest) -> Accelerator:
    """The accelerator instance a request's configuration names."""
    arch = parse_arch(request.arch)
    if request.variant is None:
        return build_accelerator(request.accelerator, arch)
    return build_bitwave_variant(request.variant, arch)


def model_network_evaluation(
    accelerator: Accelerator,
    workload: str,
    options: EvalOptions = EvalOptions(),
) -> NetworkEvaluation:
    """The analytical pipeline on an accelerator *instance*.

    Instance-level entry so ad-hoc accelerator builds that have no
    registry name still evaluate through ``repro.eval`` (uncached).
    """
    specs = network_layers(workload, batch=options.batch)
    return accelerator.evaluate_workload(
        specs, accelerator.layer_stats(workload), workload)


class ModelBackend:
    """The analytical STEP1-STEP4 model as an :class:`EvalBackend`."""

    name = "model"

    def fingerprint(self) -> str:
        return code_fingerprint()

    def evaluate(self, request: EvalRequest) -> EvalResult:
        request.validate()
        accelerator = build_request_accelerator(request)
        with trace("eval.model", workload=request.workload,
                   config=request.config_label):
            evaluation = model_network_evaluation(
                accelerator, request.workload, request.options)
        return from_network_evaluation(
            evaluation, backend=self.name,
            clock_hz=accelerator.arch.tech.clock_frequency_hz)


class SimBackend:
    """The structural simulator's counters as an :class:`EvalBackend`."""

    name = "sim-vectorized"

    def fingerprint(self) -> str:
        return sim_backend_fingerprint()

    def evaluate(self, request: EvalRequest) -> EvalResult:
        request.validate()
        arch: ArchSpec = parse_arch(request.arch)
        layers = []
        for spec in network_layers(request.workload,
                                   batch=request.options.batch):
            npu = BitWaveNPU(arch=arch)
            with trace("eval.lower.weights", layer=spec.name):
                weights = layer_matmul_weights(spec)
            run = simulate_layer(spec, npu, weights=weights)
            with trace("eval.lower.stats", layer=spec.name):
                stats = layer_stats_for_sim(spec, arch.group_size,
                                            weights=weights)
            analytic = analytic_compute_cycles(
                stats,
                k=spec.k,
                reduction=matmul_reduction(spec),
                rows=run.total_rows,
                group_size=arch.group_size,
                ku=arch.ku,
                oxu=arch.oxu,
                dense_precision=(arch.dense_precision
                                 if arch.columns == "dense" else None),
            )
            deviation = model_vs_sim_deviation(run.compute_cycles, analytic)
            analytic_pj = analytic_energy_pj(
                stats, spec,
                k=spec.k,
                reduction=matmul_reduction(spec),
                rows=run.total_rows,
                arch=arch,
            )
            layers.append(LayerResult(
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
                    "model_deviation": deviation,
                    "analytic_energy_pj": analytic_pj,
                    "energy_deviation": energy_deviation(
                        run.energy.total_pj, analytic_pj),
                    "total_rows": run.total_rows,
                },
            ))
        return EvalResult(
            workload=request.workload,
            config_label=request.config_label,
            backend=self.name,
            clock_hz=arch.tech.clock_frequency_hz,
            layers=tuple(layers),
        )


#: Built-in backends, registered at import.
MODEL_BACKEND_INSTANCE = register_backend(ModelBackend())
SIM_VECTORIZED_BACKEND = register_backend(SimBackend())
