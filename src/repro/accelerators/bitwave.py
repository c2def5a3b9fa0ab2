"""BitWave: the paper's bit-column-serial NPU (Section IV).

4096 1x8b sign-magnitude multipliers organised as 512 BCEs, driven by
the seven reconfigurable spatial unrollings of Table I.  Each SU ties
the column group size to its ``Cu`` unroll (the bit column spans the
spatially-unrolled input channels, Section IV-B), so SU selection also
selects the layer's BCS group size.

Cycle model: a weight group's contexts occupy a BCE for as many cycles
as the group has non-zero columns (the ZCIP ``Sync.ctr``).  Groups
fetched in the same cycle window advance in lockstep, so the effective
cycles-per-group is the expected *maximum* non-zero-column count over
the ``(Cu x Ku) / G`` lock-stepped groups -- which is precisely the
imbalance Bit-Flip removes by equalising zero columns across each layer.

The class exposes the Fig. 13 ablation axes:

- ``dataflow``: ``"fixed"`` (the Dense baseline's [Cu=64, Ku=64])
  or ``"dynamic"`` (the Table I SU set);
- ``columns``: ``"dense"`` (stream all 8 columns) or ``"sm"`` (skip
  zero sign-magnitude columns and compress weights with BCS);
- ``bitflip``: apply the paper's per-network Bit-Flip strategy before
  deriving the column statistics.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

from repro.accelerators.base import ENGINE_ARCH_READS, Accelerator
from repro.arch import SERIAL_COLUMNS, ArchSpec
from repro.model.mapping import SpatialUnrolling
from repro.model.technology import Technology
from repro.sparsity.profiles import network_weight_stats
from repro.sparsity.stats import LayerWeightStats
from repro.workloads.nets import parse_network
from repro.workloads.spec import LayerSpec


@dataclass(frozen=True)
class BitWaveSU:
    """One Table I entry: the SU plus its column group size and bandwidth."""

    su: SpatialUnrolling
    group_size: int
    weight_bw_bits: int
    act_bw_bits: int

    @property
    def name(self) -> str:
        return self.su.name

    @property
    def sync_groups(self) -> int:
        """Column groups advancing in lockstep.

        The fetcher delivers packed 64-bit segments whose 64 weight bits
        share one significance (Fig. 10), so the groups inside a segment
        share the parser's shift schedule: 64 / G groups per segment.
        BCEs on *different* segments skew independently behind their own
        activation registers, so the segment is the sync domain.
        """
        return max(64 // self.group_size, 1)


#: Table I, in preference order.
TABLE_I = (
    BitWaveSU(SpatialUnrolling("SU1", {"C": 8, "OX": 16, "K": 32}), 8, 256, 1024),
    BitWaveSU(SpatialUnrolling("SU2", {"C": 16, "OX": 8, "K": 32}), 16, 512, 1024),
    BitWaveSU(SpatialUnrolling("SU3", {"C": 32, "OX": 4, "K": 32}), 32, 1024, 1024),
    BitWaveSU(SpatialUnrolling("SU4", {"C": 8, "K": 128}), 8, 1024, 64),
    BitWaveSU(SpatialUnrolling("SU5", {"C": 16, "K": 64}), 16, 1024, 128),
    BitWaveSU(SpatialUnrolling("SU6", {"C": 32, "K": 32}), 32, 1024, 256),
    # SU7 (depthwise): the column group spans 64 channels; each BCE's
    # eight SMM rows sweep eight adjacent output rows under the shared
    # weight column, engaging 64 x 2 x 8 = 1024 SMMs.
    BitWaveSU(SpatialUnrolling("SU7", {"G": 64, "OX": 2, "OY": 8}),
              64, 64, 1024),
)

#: The Fig. 13 Dense baseline's fixed unrolling [Ku = 64, Cu = 64]
#: ("a commonly-used SU in previous works") -- strict channel lanes,
#: which is exactly what starves it on shallow and depthwise layers.
DENSE_SU = BitWaveSU(
    SpatialUnrolling("dense-64x64", {"C": 64, "K": 64}), 64, 4096, 64)

#: Paper Bit-Flip strategies (Fig. 6): glob pattern -> target zero
#: columns.  Two tiers, as in the network-wide optimization of Section
#: III-D: weight-heavy flip-insensitive layers take 4-7 zero columns
#: (we use 5), every other non-sensitive layer takes 1-4 (we use 3,
#: backed by Fig. 6(a)'s "most layers exhibit negligible accuracy
#: degradation when the entire layer is forced to have less than four
#: zero columns"), and sensitive layers (first convs, BERT's early
#: blocks) are left shallow or untouched.  First matching pattern wins.
DEFAULT_BITFLIP_TARGETS: dict[str, dict[str, int]] = {
    "resnet18": {"conv1": 0, "layer4.*": 5, "fc": 5, "layer*": 3},
    "mobilenetv2": {"L.0": 0, "L.47": 5, "L.48": 5, "L.50": 5, "L.51": 5,
                    "fc": 5, "L.*": 3},
    "cnn_lstm": {"LSTM.0": 5, "LSTM.1": 5, "conv.*": 3, "fc": 3},
    "bert_base": {"Layer.1.*": 2, "Layer.2.*": 2, "Layer.3.*": 2,
                  "Layer.*": 5},
}


#: The Fig. 13 ablation ladder: variant name -> (dataflow, columns,
#: bitflip) constructor knobs, in presentation order.
BREAKDOWN_CONFIGS: dict[str, tuple[str, str, bool]] = {
    "Dense": ("fixed", "dense", False),
    "+DF": ("dynamic", "dense", False),
    "+DF+SM": ("dynamic", "sm", False),
    "+DF+SM+BF": ("dynamic", "sm", True),
}

#: Variant names in presentation order (Fig. 13's x axis).
BITWAVE_VARIANTS = tuple(BREAKDOWN_CONFIGS)


def build_bitwave_variant(variant: str,
                          arch: ArchSpec | None = None) -> "BitWave":
    """Construct one rung of the Fig. 13 ablation ladder by name."""
    if variant not in BREAKDOWN_CONFIGS:
        raise ValueError(
            f"unknown BitWave variant {variant!r}; one of {BITWAVE_VARIANTS}")
    dataflow, columns, bitflip = BREAKDOWN_CONFIGS[variant]
    return BitWave(dataflow, columns, bitflip, arch=arch)


def variant_arch_reads(variant: str) -> frozenset[str]:
    """Arch override names one rung of the ladder reads.

    A rung hands its column mode to the constructor, so it never reads
    the arch's ``columns``; a dense-mode rung reads ``dense_precision``.
    """
    if variant not in BREAKDOWN_CONFIGS:
        raise ValueError(
            f"unknown BitWave variant {variant!r}; one of {BITWAVE_VARIANTS}")
    reads = ENGINE_ARCH_READS | {"bce_pj"}
    if BREAKDOWN_CONFIGS[variant][1] == "dense":
        return reads | {"dense_precision"}
    return reads


def bitflip_targets_for(network: str, layer_names: list[str]) -> dict[str, int]:
    """Resolve the per-network glob strategy to concrete layer targets.

    First matching pattern wins (so BERT's sensitive-layer entries
    shadow the catch-all ``Layer.*``).
    """
    patterns = DEFAULT_BITFLIP_TARGETS.get(network, {})
    targets: dict[str, int] = {}
    for name in layer_names:
        for pattern, z in patterns.items():
            if fnmatch.fnmatchcase(name, pattern):
                targets[name] = z
                break
    return targets


class BitWave(Accelerator):
    #: The full build takes its column mode from the arch, and its
    #: dense precision in dense mode (``__init__``); lanes are priced
    #: per BCE column cycle.  Rungs: :func:`variant_arch_reads`.
    arch_reads = ENGINE_ARCH_READS | {"bce_pj", "columns", "dense_precision"}

    def __init__(
        self,
        dataflow: str = "dynamic",
        columns: str | None = None,
        bitflip: bool | None = None,
        dense_precision: int | None = None,
        arch: ArchSpec | None = None,
        tech: Technology | None = None,
    ) -> None:
        """``columns`` and ``bitflip`` default to the
        :class:`ArchSpec`'s precision/columns mode (``"sm"`` on the
        paper preset, with Bit-Flip enabled; a ``columns="dense"`` spec
        disables both skipping and flipping).  ``dense_precision``
        enables the ZCIP dense mode's precision scaling (Section IV-A:
        "In dense mode, it generates shift control locally based on
        precision configuration"): with ``columns="dense"`` and weights
        PTQ'd to fewer bits, the array streams only ``dense_precision``
        columns per group and the packed weight stream shrinks by
        ``8 / dense_precision``."""
        super().__init__(arch, tech)
        if columns is None:
            columns = self.arch.columns
        if bitflip is None:
            bitflip = columns == "sm"
        if dataflow not in ("fixed", "dynamic"):
            raise ValueError(f"dataflow must be fixed|dynamic, got {dataflow!r}")
        if columns not in ("dense", "sm"):
            raise ValueError(f"columns must be dense|sm, got {columns!r}")
        if bitflip and columns == "dense":
            raise ValueError("bitflip requires sign-magnitude columns")
        if dense_precision is None:
            dense_precision = (self.arch.dense_precision
                               if columns == "dense" else SERIAL_COLUMNS)
        if not 1 <= dense_precision <= 8:
            raise ValueError(
                f"dense_precision must be in [1, 8], got {dense_precision}")
        if dense_precision != 8 and columns != "dense":
            raise ValueError("precision scaling applies to dense mode only")
        self.dataflow = dataflow
        self.columns = columns
        self.bitflip = bitflip
        self.dense_precision = dense_precision
        self.bw_sus = (DENSE_SU,) if dataflow == "fixed" else TABLE_I
        self.sus = tuple(entry.su for entry in self.bw_sus)

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.dataflow == "fixed":
            return "BitWave-Dense"
        parts = ["BitWave", "DF"]
        if self.columns == "sm":
            parts.append("SM")
        if self.bitflip:
            parts.append("BF")
        return "+".join(parts) if len(parts) > 2 else "BitWave+DF"

    # -- SU selection ----------------------------------------------------
    def _entry(self, su: SpatialUnrolling) -> BitWaveSU:
        for entry in self.bw_sus:
            if entry.su is su:
                return entry
        raise ValueError(f"SU {su.name} not part of this configuration")

    def cycles_per_group(
        self, stats: LayerWeightStats, entry: BitWaveSU
    ) -> float:
        """Lock-step cycles per group context (the ZCIP sync counter)."""
        if self.columns == "dense":
            return float(self.dense_precision)
        return max(
            stats.expected_max_nz_columns(entry.group_size, entry.sync_groups),
            1.0,
        )

    def compute_cycles(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        entry = self._entry(su)
        cpm = self.cycles_per_group(stats, entry)
        return spec.macs * cpm / max(su.macs_per_cycle(spec), 1e-12)

    def compute_energy_pj(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        entry = self._entry(su)
        if self.columns == "dense":
            mean_columns = float(self.dense_precision)
        else:
            # Lanes are active only for their own group's non-zero
            # columns; sync-stall cycles are clock-gated.
            mean_columns = max(stats.mean_nz_columns(entry.group_size), 1.0)
        lane_cycles = spec.macs * mean_columns
        return lane_cycles * self.tech.bce_column_cycle_pj

    def weight_cr(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        if self.columns == "dense":
            # Dense-mode weights pack at the configured precision.
            return 8.0 / self.dense_precision
        return stats.bcs_cr[self._entry(su).group_size]

    # -- Bit-Flip statistics ----------------------------------------------
    def layer_stats(self, network: str) -> dict[str, LayerWeightStats]:
        base = network_weight_stats(network)
        if not self.bitflip:
            return base
        # Parametrized workloads ("bert_base@tokens=128") share the base
        # network's flip strategy -- the patterns match layer names,
        # which do not depend on the parameters.
        targets = bitflip_targets_for(parse_network(network)[0], list(base))
        return {
            name: stats.with_bitflip(targets[name]) if name in targets else stats
            for name, stats in base.items()
        }
