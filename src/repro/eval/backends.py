"""Built-in evaluation backends: the analytical model and the simulator.

- ``model`` answers requests through the STEP1-STEP4 analytical
  pipeline (:class:`repro.accelerators.base.Accelerator`), for any of
  the six modelled accelerators and every BitWave ablation rung.
- ``sim-vectorized`` lowers each workload layer onto the counters of a
  :class:`repro.sim.npu.BitWaveNPU`
  (:func:`repro.eval.lowering.lower_layer`) -- whole-network layer
  tables counted structurally from the index bytes, not just
  modelled.  Simulator results report cycles, traffic *and* energy
  (the counters priced with the arch's :class:`repro.arch.TechSpec`)
  plus, per layer, the matched analytical compute-cycle and energy
  predictions and their deviations, so every sim-backed result doubles
  as a Section V-B style model-validation point; the Section V-B table
  itself is the same per-layer function over its own suite.  The name
  predates the counters-only evaluation and is kept because stored
  campaigns key on it.

Both backends construct their machine from the request's ``arch`` axis
(:mod:`repro.arch`): the model prices with the arch's technology and
SRAM port widths, the simulator executes the arch's PE-array geometry.
"""

from __future__ import annotations

from repro.accelerators import build_accelerator, build_bitwave_variant
from repro.accelerators.base import Accelerator, NetworkEvaluation
from repro.arch import ArchSpec, parse_arch
from repro.eval.fingerprints import code_fingerprint, sim_backend_fingerprint
from repro.eval.lowering import lower_layer
from repro.eval.registry import register_backend
from repro.obs import trace
from repro.eval.request import EvalOptions, EvalRequest
from repro.eval.result import EvalResult, from_network_evaluation
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
        layers = tuple(
            lower_layer(spec, arch)
            for spec in network_layers(request.workload,
                                       batch=request.options.batch))
        return EvalResult(
            workload=request.workload,
            config_label=request.config_label,
            backend=self.name,
            clock_hz=arch.tech.clock_frequency_hz,
            layers=layers,
        )


#: Built-in backends, registered at import.
MODEL_BACKEND_INSTANCE = register_backend(ModelBackend())
SIM_VECTORIZED_BACKEND = register_backend(SimBackend())
