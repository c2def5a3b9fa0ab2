"""End-to-end deployment: greedy Bit-Flip search on a ResNet18 model.

The scenario the paper's Section III-D describes: given only an Int8
model (no dataset, no retraining), search layer-wise zero-column targets
with Algorithm 1 under a minimum-fidelity constraint, then deploy the
flipped network and report its compression ratio and its modelled
runtime on the BitWave accelerator.

Uses the ``tiny`` ResNet18 preset so the greedy search (which runs one
inference per candidate move) completes in seconds.

Run:  python examples/deploy_resnet18.py
"""

from repro.core.pipeline import BitWavePipeline
from repro.core.search import greedy_bitflip_search
from repro.eval import EvalRequest, evaluate
from repro.models import build_resnet18
from repro.models.fidelity import make_evaluator


def main() -> None:
    model = build_resnet18("tiny")
    inputs = model.sample_inputs(batch=8)
    fidelity = make_evaluator(model, inputs)
    weights = model.weights_int8()

    # Search only the heavy tail (layer4 + classifier), as the paper
    # does for ResNet18; seed the strategy at 3 zero columns.
    heavy = [name for name in weights
             if name.startswith("layer4") or name == "fc"]
    initial = {name: {16: 3} for name in heavy}
    result = greedy_bitflip_search(
        weights,
        fidelity,
        min_accuracy=0.95,        # paper: <0.5% top-1 drop
        initial_strategy=initial,
        group_sizes=(16,),
        layers=heavy,
        max_moves=6,
    )
    print(f"greedy search: {result.n_moves} accepted moves, "
          f"final fidelity {result.accuracy:.3f}")
    for layer, gs, z, accuracy in result.history:
        print(f"  move: {layer} G={gs} -> {z} zero columns "
              f"(fidelity {accuracy:.3f})")

    # Deploy with the found strategy.
    targets = {
        layer: max(per_gs.values())
        for layer, per_gs in result.strategy.items()
        if any(per_gs.values())
    }
    report = BitWavePipeline(
        group_size=16, zero_column_targets=targets).deploy(weights)
    print(f"\ndeployed network CR: {report.compression_ratio:.3f}x")

    # Modelled runtime of full-shape ResNet18 on the BitWave NPU.
    evaluation = evaluate(
        EvalRequest(workload="resnet18", accelerator="BitWave"))
    print(f"modelled BitWave runtime (paper-shape ResNet18): "
          f"{evaluation.total_cycles / 1e6:.2f} Mcycles "
          f"({evaluation.runtime_s * 1e3:.2f} ms @ 250 MHz, "
          f"{evaluation.effective_tops:.3f} effective TOPS)")


if __name__ == "__main__":
    main()
