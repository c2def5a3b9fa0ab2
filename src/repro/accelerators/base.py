"""Accelerator evaluation engine (the paper's STEP1-STEP4 pipeline).

Every modelled accelerator subclasses :class:`Accelerator` and overrides
the hooks that differ between designs:

- the spatial-unrolling set (fixed vs. dynamic dataflow),
- the effective compute-cycle model (equations (1)-(2), with the
  design's sparsity-skipping semantics and load-imbalance behaviour),
- the compute energy model (bit-parallel MACs vs. bit-serial
  lane-cycles, priced per Table IV),
- the weight/activation compression ratios dividing memory traffic
  (equation (3)) and any SRAM metadata overheads.

The engine maps each layer (STEP1, :func:`repro.model.zigzag.map_layer`),
pulls the layer's sparsity profile (STEP2, :mod:`repro.sparsity`),
combines them (STEP3, the hooks) and prices the result (STEP4,
:mod:`repro.model.latency` / :mod:`repro.model.energy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch import ArchSpec, default_arch
from repro.model.energy import EnergyBreakdown, total_energy
from repro.model.latency import LatencyBreakdown, total_cycles
from repro.model.mapping import SpatialUnrolling
from repro.model.technology import CLOCK_FREQUENCY_HZ, Technology
from repro.model.zigzag import ActivityCounts, map_layer
from repro.sparsity.profiles import network_weight_stats
from repro.sparsity.stats import LayerWeightStats
from repro.workloads.spec import LayerSpec


#: Arch override names (:data:`repro.arch.OVERRIDE_FIELDS`) the STEP1 +
#: STEP4 engine reads for every design: the SRAM port widths and
#: capacity, the clock, the memory unit energies and the DRAM width.
#: The model takes each design's PE-array geometry from its SU set, so
#: ``group``, ``ku``, ``oxu`` and the fetch bandwidths never reach it.
ENGINE_ARCH_READS = frozenset({
    "sram_w", "sram_a", "sram_kb", "clock_mhz",
    "dram_pj", "sram_pj", "reg_pj", "dram_bits",
})


@dataclass(frozen=True)
class LayerEvaluation:
    """One (accelerator, layer) modelling result."""

    layer: str
    su_name: str
    counts: ActivityCounts
    latency: LatencyBreakdown
    energy: EnergyBreakdown

    @property
    def cycles(self) -> float:
        return self.latency.total

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj


@dataclass
class NetworkEvaluation:
    """Whole-network totals for one accelerator."""

    accelerator: str
    network: str
    layers: list[LayerEvaluation] = field(default_factory=list)
    #: Clock the cycle counts run at (the evaluating accelerator's
    #: arch); runtime and TOPS derive from it.
    clock_hz: float = CLOCK_FREQUENCY_HZ

    @property
    def total_cycles(self) -> float:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(layer.energy_pj for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.counts.n_mac for layer in self.layers)

    @property
    def runtime_s(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def effective_tops(self) -> float:
        """Workload operations (2 x MACs) over runtime."""
        return 2.0 * self.total_macs / self.runtime_s / 1e12

    @property
    def efficiency_tops_per_w(self) -> float:
        """Useful operations per joule (Fig. 17's metric)."""
        joules = self.total_energy_pj * 1e-12
        return 2.0 * self.total_macs / joules / 1e12

    def energy_shares(self) -> dict[str, float]:
        total = self.total_energy_pj
        if total == 0:
            return {"dram": 0.0, "sram": 0.0, "reg": 0.0, "compute": 0.0}
        return {
            "dram": sum(l.energy.dram_pj for l in self.layers) / total,
            "sram": sum(l.energy.sram_pj for l in self.layers) / total,
            "reg": sum(l.energy.reg_pj for l in self.layers) / total,
            "compute": sum(l.energy.compute_pj for l in self.layers) / total,
        }


class Accelerator:
    """Base accelerator model; subclasses override the starred hooks.

    Every design constructs from an :class:`repro.arch.ArchSpec` (the
    typed hardware description): the technology point prices STEP4, the
    spec's SRAM port widths serialize the latency model's on-chip
    streams.  ``tech`` remains accepted as an explicit override for
    ad-hoc what-if pricing.
    """

    #: Display name (subclasses set this).
    name: str = "abstract"
    #: Spatial-unrolling set; >1 entry means dynamic dataflow.
    sus: tuple[SpatialUnrolling, ...] = ()
    #: Arch override names this design's evaluation reads: the
    #: engine's plus those of its STEP3 hooks (the default
    #: ``compute_energy_pj`` prices bit-parallel MACs).  A request's
    #: key keeps only these (:class:`repro.eval.EvalRequest`).
    arch_reads: frozenset[str] = ENGINE_ARCH_READS | {"mac_pj"}

    def __init__(self, arch: ArchSpec | None = None,
                 tech: Technology | None = None) -> None:
        if arch is not None and not isinstance(arch, ArchSpec):
            # Catch pre-refactor positional callers (the first slot
            # used to be the Technology) with an actionable error.
            raise TypeError(
                f"arch must be a repro.arch.ArchSpec, got "
                f"{type(arch).__name__}; pass a Technology via the "
                f"tech= keyword")
        self.arch = arch if arch is not None else default_arch()
        self.tech = tech if tech is not None else self.arch.technology()
        #: Weight-SRAM port width in bits/cycle (Table I for BitWave).
        self.sram_w_bits = self.arch.sram_w_bits
        #: Activation-SRAM port width in bits/cycle.
        self.sram_a_bits = self.arch.sram_a_bits

    # ------------------------------------------------------------------
    # Hooks (STEP3): subclasses specialise these.
    # ------------------------------------------------------------------
    def select_su(
        self, spec: LayerSpec, stats: LayerWeightStats
    ) -> SpatialUnrolling:
        """Pick the SU minimizing effective compute cycles for the layer."""
        if not self.sus:
            raise ValueError(f"{self.name} has no spatial unrollings")
        return min(
            self.sus,
            key=lambda su: self.compute_cycles(spec, stats, su),
        )

    def compute_cycles(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        """*Effective* compute cycles CC_mac,e (equations (1)-(2)).

        Default: dense bit-parallel, one MAC per lane per cycle.
        """
        return spec.macs / max(su.macs_per_cycle(spec), 1e-12)

    def compute_energy_pj(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        """Compute energy; default prices every MAC at bit-parallel cost."""
        return spec.macs * self.tech.mac_bit_parallel_pj

    def weight_cr(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        """Weight compression ratio dividing weight traffic (eq. (3))."""
        return 1.0

    def act_cr(self, spec: LayerSpec, stats: LayerWeightStats) -> float:
        """Activation compression ratio dividing activation traffic."""
        return 1.0

    def sram_weight_overhead(self) -> float:
        """Multiplier >= 1 on SRAM weight reads for runtime metadata."""
        return 1.0

    # ------------------------------------------------------------------
    # Engine (STEP1 + STEP4)
    # ------------------------------------------------------------------
    def evaluate_layer(
        self, spec: LayerSpec, stats: LayerWeightStats
    ) -> LayerEvaluation:
        su = self.select_su(spec, stats)
        counts = map_layer(spec, su,
                           weight_sram_bytes=self.arch.weight_sram_bytes(),
                           act_sram_bytes=self.arch.act_sram_bytes())
        cc_mac_e = self.compute_cycles(spec, stats, su)
        compute_pj = self.compute_energy_pj(spec, stats, su)
        w_cr = self.weight_cr(spec, stats, su)
        a_cr = self.act_cr(spec, stats)
        overhead = self.sram_weight_overhead()
        latency = total_cycles(
            counts, cc_mac_e, w_cr, a_cr, overhead, self.tech,
            sram_w_bits_per_cycle=self.sram_w_bits,
            sram_a_bits_per_cycle=self.sram_a_bits,
        )
        energy = total_energy(
            counts, compute_pj, w_cr, a_cr, overhead, self.tech)
        return LayerEvaluation(
            layer=spec.name, su_name=su.name, counts=counts,
            latency=latency, energy=energy,
        )

    def layer_stats(self, network: str) -> dict[str, LayerWeightStats]:
        """Sparsity profiles used by this accelerator (hookable)."""
        return network_weight_stats(network)

    def evaluate_workload(
        self,
        specs: list[LayerSpec],
        stats_map: dict[str, LayerWeightStats],
        label: str = "custom",
    ) -> NetworkEvaluation:
        """Evaluate an arbitrary layer list (e.g. a token-size sweep)."""
        result = NetworkEvaluation(
            accelerator=self.name, network=label,
            clock_hz=self.arch.tech.clock_frequency_hz)
        for spec in specs:
            result.layers.append(
                self.evaluate_layer(spec, stats_map[spec.name]))
        return result
