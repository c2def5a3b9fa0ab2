"""``repro.eval``: one backend-agnostic evaluation API.

The repository has two engines that can answer "what does workload W
cost on accelerator A": the analytical STEP1-STEP4 model and the
structural BitWave NPU simulator.  This package is the contract both
plug into:

- :class:`EvalRequest` -- workload x accelerator/variant x backend x
  arch x options, hashing to a stable store key (the canonical
  :mod:`repro.arch` spelling folds in, so overridden-arch results
  never collide with cached defaults);
- :class:`EvalResult` -- the canonical metrics schema (cycles,
  energy_pj, macs, per-layer breakdowns, traffic, the arch's clock)
  with ``effective_tops`` / ``efficiency_tops_per_w`` derived
  uniformly;
- :class:`EvalBackend` + a registry with two built-ins: ``model`` and
  ``sim-vectorized``, the simulator's cycle/traffic counters over every
  output context of every layer (computed from the weights' index
  bytes alone -- no activations, no GEMM, no context cap);
- :func:`evaluate` -- the single entry point, with store-backed caching
  keyed by request hash in one namespace for every backend, the
  digest of the whole source tree.

The DSE campaigns (:mod:`repro.dse`) and the experiment harnesses
(:mod:`repro.experiments`) are consumers of this API; an ad-hoc
accelerator instance with no registry name evaluates through
:func:`repro.eval.backends.model_network_evaluation`.
"""

from repro.eval.api import default_store, eval_store, evaluate, reset_cache
from repro.eval.fingerprints import code_fingerprint
from repro.eval.registry import (
    EvalBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.eval.request import EvalOptions, EvalRequest, config_hash
from repro.eval.result import (
    ENERGY_COMPONENTS,
    EvalResult,
    LayerResult,
    from_network_evaluation,
)

__all__ = [
    "ENERGY_COMPONENTS",
    "EvalBackend",
    "EvalOptions",
    "EvalRequest",
    "EvalResult",
    "LayerResult",
    "backend_names",
    "code_fingerprint",
    "config_hash",
    "default_store",
    "eval_store",
    "evaluate",
    "from_network_evaluation",
    "get_backend",
    "register_backend",
    "reset_cache",
]
