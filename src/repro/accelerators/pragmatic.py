"""Pragmatic (MICRO'17 [2]): essential-bit skipping on weights.

Pragmatic processes only the non-zero ("essential") bits of each serial
operand.  Lanes sharing a synchronization group must wait for the lane
with the most essential bits, so the per-MAC cycle count is the expected
*maximum* essential-bit count over the sync group -- the workload
imbalance the paper calls out ("an obstacle arises in the form of
workload imbalance, tempering hardware utilization").

Weights stay uncompressed in memory (the skip offsets are computed
online), so Pragmatic gains nothing on the memory side.
"""

from __future__ import annotations

from repro.accelerators.base import ENGINE_ARCH_READS, Accelerator
from repro.model.mapping import SpatialUnrolling
from repro.sparsity.stats import LayerWeightStats
from repro.workloads.spec import LayerSpec

#: Lanes locked to a common bit schedule (one weight-register file row).
SYNC_GROUP = 16


class Pragmatic(Accelerator):
    name = "Pragmatic"
    sus = (SpatialUnrolling("fixed-16x16x16", {"K": 16, "C": 16, "OX": 16}),)
    #: Lanes are priced per bit-serial lane-cycle.
    arch_reads = ENGINE_ARCH_READS | {"serial_pj"}

    def cycles_per_mac(self, stats: LayerWeightStats) -> float:
        """E[max essential bits] over the sync group, >= 1 (zero-guard)."""
        return max(stats.expected_max_essential_bits(SYNC_GROUP), 1.0)

    def compute_cycles(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        cpm = self.cycles_per_mac(stats)
        return spec.macs * cpm / max(su.macs_per_cycle(spec), 1e-12)

    def compute_energy_pj(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        # Lanes burn energy only on their own essential bits (idle lanes
        # waiting on the sync group are clock-gated), plus the oscillator
        # overhead of the 4-bit offset adders (folded into the per-cycle
        # unit cost derived from Table IV's bit-serial PE).
        lane_cycles = spec.macs * stats.essential_bits_mean
        return lane_cycles * self.tech.mac_bit_serial_cycle_pj

    def sram_weight_overhead(self) -> float:
        # Online offset generation re-reads the zero-bit positions.
        return 1.0625
