"""Ablation studies for the design choices DESIGN.md calls out.

Beyond the paper's own figures, these sweeps isolate the sensitivity of
BitWave's gains to its main design parameters:

- **group size** -- the CR/skipping trade-off behind Table I's
  layer-wise tunable column sizes;
- **sync domain** -- how many column groups advance in lockstep; the
  load-imbalance mechanism Bit-Flip exists to neutralize;
- **DRAM bandwidth** -- where each network crosses from memory- to
  compute-bound (why Bit-Flip is BERT's lever but not ResNet18's);
- **Bit-Flip depth** -- speedup and compression vs weight distortion;
- **BERT token size** -- how the BitWave-vs-HUAA gap evolves as the
  workload gains arithmetic intensity;
- **dense-mode precision** -- the ZCIP dense mode's precision scaling
  (Stripes-style scaling on the BitWave array).

The DRAM-bandwidth, token-size and dense-precision sweeps are ordinary
evaluations (:func:`repro.eval.grids.evaluation`) at an arch override
or a workload parameter, so their results are cached in the result
store like every other.  The group-size, sync-domain and Bit-Flip
depth sweeps read the weight profiles directly.
"""

from __future__ import annotations

from repro.accelerators.bitwave import BitWave
from repro.arch import DEFAULT_ARCH
from repro.eval.grids import evaluation
from repro.sparsity.profiles import network_weight_stats
from repro.sparsity.stats import LayerWeightStats
from repro.workloads.nets import network_layers


def group_size_ablation(network: str = "resnet18") -> dict[int, dict[str, float]]:
    """Weight-count-weighted CR and mean cycles/group per group size."""
    stats = network_weight_stats(network)
    total = sum(s.weight_count for s in stats.values())
    results: dict[int, dict[str, float]] = {}
    for g in (8, 16, 32):
        cr = sum(s.bcs_cr[g] * s.weight_count for s in stats.values()) / total
        cycles = sum(
            s.mean_nz_columns(g) * s.weight_count for s in stats.values()
        ) / total
        results[g] = {"cr": cr, "mean_cycles_per_group": cycles}
    return results


def sync_domain_ablation(
    network: str = "resnet18",
    domains: tuple[int, ...] = (1, 2, 8, 32, 128),
    group_size: int = 8,
) -> dict[int, float]:
    """Effective cycles/group vs lockstep-domain size (weighted mean).

    Domain 1 is the skew-free ideal (mean non-zero columns); larger
    domains converge to the worst group in every fetch -- the imbalance
    Bit-Flip's equal-zero-column constraint removes.
    """
    stats = network_weight_stats(network)
    total = sum(s.weight_count for s in stats.values())
    results: dict[int, float] = {}
    for m in domains:
        results[m] = sum(
            s.expected_max_nz_columns(group_size, m) * s.weight_count
            for s in stats.values()
        ) / total
    return results


def dram_bandwidth_ablation(
    network: str = "bert_base",
    widths: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048),
) -> dict[int, dict[str, float]]:
    """Total cycles and the DRAM share of them vs DRAM width."""
    results: dict[int, dict[str, float]] = {}
    for bits in widths:
        result = evaluation(network, arch=f"{DEFAULT_ARCH}@dram_bits={bits}")
        dram = sum(layer.detail["latency"]["dram_cycles"]
                   for layer in result.layers)
        results[bits] = {
            "total_cycles": result.total_cycles,
            "dram_fraction": dram / result.total_cycles,
        }
    return results


def bitflip_depth_ablation(
    network: str = "bert_base",
    targets: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6),
    group_size: int = 16,
) -> dict[int, dict[str, float]]:
    """Speedup (vs unflipped), network CR and cycle cap vs flip depth."""
    base_stats = network_weight_stats(network)
    specs = network_layers(network)

    def evaluate(stats_map: dict[str, LayerWeightStats]) -> float:
        acc = BitWave(bitflip=False)  # strategy applied via stats_map
        return acc.evaluate_workload(specs, stats_map, network).total_cycles

    base_cycles = evaluate(base_stats)
    total_weights = sum(s.weight_count for s in base_stats.values())
    results: dict[int, dict[str, float]] = {}
    for z in targets:
        flipped = {name: s.with_bitflip(z) for name, s in base_stats.items()}
        cycles = evaluate(flipped)
        cr = sum(s.bcs_cr[group_size] * s.weight_count
                 for s in flipped.values()) / total_weights
        results[z] = {"speedup": base_cycles / cycles, "cr": cr}
    return results


def bert_token_ablation(
    tokens: tuple[int, ...] = (4, 16, 64, 256),
) -> dict[int, dict[str, float]]:
    """BitWave vs HUAA on BERT-Base as token count grows.

    At token size 4 the workload is weight-traffic bound and BitWave's
    compression dominates; with more tokens arithmetic intensity rises
    and the gap settles toward the pure compute advantage.
    """
    results: dict[int, dict[str, float]] = {}
    for t in tokens:
        workload = f"bert_base@tokens={t}"
        bitwave = evaluation(workload).total_cycles
        huaa = evaluation(workload, accelerator="HUAA").total_cycles
        results[t] = {
            "bitwave_cycles": bitwave,
            "huaa_cycles": huaa,
            "speedup_vs_huaa": huaa / bitwave,
        }
    return results


def dense_precision_ablation(
    network: str = "resnet18",
    precisions: tuple[int, ...] = (8, 6, 4, 2),
) -> dict[int, float]:
    """ZCIP dense-mode precision scaling: speedup vs 8-bit dense.

    The ``+DF`` rung is the dense-mode BitWave the sweep scales.
    """
    base = evaluation(network, variant="+DF").total_cycles
    return {
        bits: base / evaluation(
            network, variant="+DF",
            arch=f"{DEFAULT_ARCH}@dense_precision={bits}").total_cycles
        for bits in precisions
    }


def main() -> None:
    from repro.utils.tables import format_table

    print(format_table(
        ["G", "network CR", "mean cycles/group"],
        [[g, v["cr"], v["mean_cycles_per_group"]]
         for g, v in group_size_ablation().items()],
        title="Ablation: group size (ResNet18)"))
    print()
    print(format_table(
        ["sync domain", "effective cycles/group"],
        list(sync_domain_ablation().items()),
        title="Ablation: lockstep sync-domain size (ResNet18, G=8)"))
    print()
    print(format_table(
        ["DRAM bits/cycle", "Mcycles", "DRAM cycle share"],
        [[w, v["total_cycles"] / 1e6, v["dram_fraction"]]
         for w, v in dram_bandwidth_ablation().items()],
        title="Ablation: DRAM bandwidth (BERT-Base)"))
    print()
    print(format_table(
        ["zero-column target", "speedup", "network CR"],
        [[z, v["speedup"], v["cr"]]
         for z, v in bitflip_depth_ablation().items()],
        title="Ablation: Bit-Flip depth (BERT-Base)"))
    print()
    print(format_table(
        ["tokens", "BitWave Mcycles", "HUAA Mcycles", "speedup"],
        [[t, v["bitwave_cycles"] / 1e6, v["huaa_cycles"] / 1e6,
          v["speedup_vs_huaa"]]
         for t, v in bert_token_ablation().items()],
        title="Ablation: BERT token size (BitWave vs HUAA)"))
    print()
    print(format_table(
        ["precision (bits)", "speedup vs 8b dense"],
        list(dense_precision_ablation().items()),
        title="Ablation: ZCIP dense-mode precision scaling (ResNet18)"))


if __name__ == "__main__":
    main()
