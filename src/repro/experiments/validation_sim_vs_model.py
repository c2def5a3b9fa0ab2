"""Section V-B validation: the model-vs-simulator table.

The paper validates its analytical performance model against BitWave's
RTL at <6% deviation.  We reproduce the methodology with the structural
simulator standing in for RTL: count a suite of fully-connected *and*
convolution layers on :class:`repro.sim.BitWaveNPU` and compare the
counted compute cycles against the analytical cycle model.

Both halves of the comparison are the ``sim-vectorized`` backend's own
per-layer lowering (:func:`repro.eval.lowering.lower_layer`), so the
table reads the same ``compute_cycles``, ``analytic_cycles`` and
``model_deviation`` every simulated workload layer stores.  This
harness only owns the suite (layer shapes and their weights) and the
table.

The suite mixes synthetic FC shapes with layers drawn from the real
workload spec tables (:mod:`repro.workloads.nets`): the FC heads of
ResNet18/MobileNetV2, a BERT-Base attention projection, and two
convolutions whose kernel geometry (K, C, FY, FX) comes straight from
the ResNet18/MobileNetV2 layer tables, at a reduced spatial extent.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.arch import DEFAULT_ARCH, parse_arch
from repro.eval.lowering import lower_layer
from repro.utils.rng import seeded_rng
from repro.utils.tables import format_table
from repro.workloads.nets import network_layers
from repro.workloads.spec import LayerSpec

#: Network tag of the suite's layers.
SUITE = "validation"


def _fc(name: str, k: int, c: int, rows: int) -> LayerSpec:
    return LayerSpec(name, SUITE, "fc", k=k, c=c, ox=rows)


def _spec_case(network: str, layer: str, extent: int) -> LayerSpec:
    """A real workload layer's kernel geometry over ``extent`` output
    rows (FC) or an ``extent x extent`` output map (conv)."""
    spec = next(s for s in network_layers(network) if s.name == layer)
    conv = spec.kind != "fc"
    return replace(spec, name=f"{network}/{layer}", network=SUITE,
                   kind="conv" if conv else "fc", ox=extent,
                   oy=extent if conv else 1)


def _suite() -> tuple[LayerSpec, ...]:
    synthetic = (
        _fc("fc-32x64", 32, 64, 16),
        _fc("fc-64x128", 64, 128, 16),
        _fc("fc-16x256", 16, 256, 8),
        _fc("fc-64x64", 64, 64, 32),
        _fc("fc-128x96", 128, 96, 16),
    )
    from_specs = (
        _spec_case("resnet18", "fc", 8),
        _spec_case("mobilenetv2", "fc", 4),
        _spec_case("bert_base", "Layer.0.attention.query", 4),
        # Convs at the papers' kernel geometry, reduced spatial extent.
        _spec_case("resnet18", "layer2.0.conv1", 14),
        _spec_case("mobilenetv2", "L.3", 12),
    )
    return synthetic + from_specs


#: Validation suite: five synthetic FC shapes plus five real layers.
VALIDATION_SUITE = _suite()


def _weights(spec: LayerSpec) -> np.ndarray:
    """The suite's own ``(K, FY*FX*C)`` int8 weights: Laplace scale 11,
    rounded and clipped without amax scaling, input channels innermost
    (the im2col layout the simulator streams)."""
    rng = seeded_rng("validation", spec.k, spec.c * spec.fy * spec.fx)
    weights = rng.laplace(0, 11, (spec.k, spec.c, spec.fy, spec.fx))
    weights = np.clip(np.round(weights), -127, 127).astype(np.int8)
    return np.ascontiguousarray(weights.transpose(0, 2, 3, 1)).reshape(
        spec.k, -1)


def run(arch: str = DEFAULT_ARCH) -> list[dict]:
    machine = parse_arch(arch)
    results = []
    for case in VALIDATION_SUITE:
        detail = lower_layer(case, machine, weights=_weights(case)).detail
        results.append({
            "layer": case.name,
            "kind": case.kind,
            "simulated_cycles": int(detail["compute_cycles"]),
            "analytic_cycles": float(detail["analytic_cycles"]),
            "deviation": float(detail["model_deviation"]),
        })
    return results


def main() -> str:
    results = run()
    rows = [
        [r["layer"], r["kind"], r["simulated_cycles"],
         f"{r['analytic_cycles']:.1f}", f"{100 * r['deviation']:.2f}%"]
        for r in results
    ]
    table = format_table(
        ["layer", "kind", "simulated", "analytic", "deviation"],
        rows,
        title="Model-vs-simulator validation (paper: <6% vs RTL)",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
