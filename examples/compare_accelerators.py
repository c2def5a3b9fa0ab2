"""Reproduce the paper's accelerator comparison for one network.

Runs the analytical model for all six accelerators (SCNN, Stripes,
Pragmatic, Bitlet, HUAA, BitWave) on a chosen benchmark network and
prints the Fig. 14/15/17-style normalized rows plus BitWave's per-layer
dataflow (SU) selection.

Run:  python examples/compare_accelerators.py [network]
      network in {resnet18, mobilenetv2, cnn_lstm, bert_base}
"""

import sys

from repro.accelerators import SOTA_ACCELERATORS
from repro.eval import EvalRequest, evaluate
from repro.utils.tables import format_table


def main(network: str = "bert_base") -> None:
    evaluations = {
        name: evaluate(EvalRequest(workload=network, accelerator=name))
        for name in SOTA_ACCELERATORS
    }
    scnn_cycles = evaluations["SCNN"].total_cycles
    bitwave_energy = evaluations["BitWave"].total_energy_pj
    scnn_eff = evaluations["SCNN"].efficiency_tops_per_w

    rows = []
    for name, ev in evaluations.items():
        rows.append([
            name,
            ev.total_cycles / 1e6,
            scnn_cycles / ev.total_cycles,
            ev.total_energy_pj / bitwave_energy,
            ev.efficiency_tops_per_w / scnn_eff,
        ])
    print(format_table(
        ["accelerator", "Mcycles", "speedup vs SCNN",
         "energy vs BitWave", "efficiency vs SCNN"],
        rows,
        title=f"SotA comparison on {network}",
    ))

    bitwave = evaluations["BitWave"]
    su_rows = [[layer.name, layer.detail["su_name"],
                layer.detail["counts"]["utilization"],
                layer.cycles / 1e3]
               for layer in bitwave.layers[:12]]
    print()
    print(format_table(
        ["layer", "SU", "utilization", "kcycles"],
        su_rows,
        title="BitWave per-layer dataflow selection (first 12 layers)",
    ))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "bert_base")
