"""Stripes (MICRO'16 [15]): bit-serial, no bit-level sparsity handling.

4096 1x8b serial lanes (throughput-equivalent to 512 8x8 PEs when
dense) under one fixed spatial unrolling.  Every weight is processed
over all 8 bit positions regardless of content, so Stripes pays the full
8 cycles per MAC; its benefit in the original paper is precision
scaling, which the common Int8 benchmark setting never exercises.
"""

from __future__ import annotations

from repro.accelerators.base import ENGINE_ARCH_READS, Accelerator
from repro.model.mapping import SpatialUnrolling
from repro.sparsity.stats import LayerWeightStats
from repro.workloads.spec import LayerSpec

#: Bits of a dense Int8 weight the serial datapath walks through.
SERIAL_BITS = 8


class Stripes(Accelerator):
    name = "Stripes"
    sus = (SpatialUnrolling("fixed-16x16x16", {"K": 16, "C": 16, "OX": 16}),)
    #: Lanes are priced per bit-serial lane-cycle.
    arch_reads = ENGINE_ARCH_READS | {"serial_pj"}

    def compute_cycles(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        # Each MAC occupies one lane for all 8 bit-cycles.
        return spec.macs * SERIAL_BITS / max(su.macs_per_cycle(spec), 1e-12)

    def compute_energy_pj(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        lane_cycles = spec.macs * SERIAL_BITS
        return lane_cycles * self.tech.mac_bit_serial_cycle_pj
