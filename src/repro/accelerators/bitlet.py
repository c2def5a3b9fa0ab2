"""Bitlet (MICRO'21 [23]): bit-interleaved weight-bit-sparsity exploitation.

Bitlet packs the non-zero bits of ``M`` interleaved weights by bit
significance: each cycle retires at most one non-zero bit per
significance lane.  The cycle count for an interleave group is therefore
the *maximum population count across significances* -- and because real
weight distributions concentrate ones in the low significances, those
"teeming" positions dominate ("the computational cycle count suffers
from the bit-significance teeming with non-zero bits", Section V-C).

Per-significance populations are modelled as Binomial(M, p_j) with
``p_j`` the measured occupancy of bit position ``j``; the expected max
across the 8 positions uses independence across significances.

Bitlet also pays a runtime metadata cost: non-zero bit indices are
extracted online, inflating SRAM weight traffic ("necessitates extensive
runtime processing to extract the indices ... significantly increasing
memory overhead").
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from repro.accelerators.base import ENGINE_ARCH_READS, Accelerator
from repro.model.mapping import SpatialUnrolling
from repro.sparsity.stats import LayerWeightStats
from repro.workloads.spec import LayerSpec

#: Weights interleaved per Bitlet PE.
INTERLEAVE = 8


def _binomial_cdf(v: np.ndarray, n: int, p: float) -> np.ndarray:
    """CDF of Binomial(n, p) at integer points ``v``.

    The ``n + 1`` point probabilities are computed once, with ``k`` as
    numpy ints, and each CDF value sums a prefix of them with
    ``np.sum``.  Both choices are part of the numbers: Python-int
    exponents or a running sum round differently.
    """
    pmf = [comb(n, int(kk)) * p ** kk * (1 - p) ** (n - kk)
           for kk in np.arange(0, n + 1)]
    out = np.zeros(len(v))
    for i, vi in enumerate(v):
        out[i] = float(np.sum(pmf[:min(int(vi), n) + 1]))
    return np.minimum(out, 1.0)


def expected_max_significance_population(
    occupancy: np.ndarray, m: int = INTERLEAVE
) -> float:
    """E[max over significances of Binomial(m, p_j)].

    Memoized on the occupancy values: an evaluation prices each layer
    twice (SU selection, then the chosen SU), and again on every arch
    of a campaign.
    """
    return _expected_max(tuple(float(p) for p in occupancy), m)


@lru_cache(maxsize=None)
def _expected_max(occupancy: tuple[float, ...], m: int) -> float:
    values = np.arange(0, m + 1)
    cdf_product = np.ones(m + 1)
    for p in occupancy:
        cdf_product *= _binomial_cdf(values, m, p)
    pmf = np.diff(np.concatenate([[0.0], cdf_product]))
    return float((values * pmf).sum())


class Bitlet(Accelerator):
    name = "Bitlet"
    sus = (SpatialUnrolling("fixed-32x8x16", {"K": 32, "C": 8, "OX": 16}),)
    #: Lanes are priced per bit-serial lane-cycle.
    arch_reads = ENGINE_ARCH_READS | {"serial_pj"}

    def cycles_per_interleave_group(self, stats: LayerWeightStats) -> float:
        return max(
            expected_max_significance_population(
                stats.significance_occupancy, INTERLEAVE),
            1.0,
        )

    def compute_cycles(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        # An interleave group of M weights (M MACs against one input
        # context) retires in E[max population] cycles on M lanes; the
        # per-MAC lane-cycle count is therefore the same expectation.
        cpm = self.cycles_per_interleave_group(stats)
        return spec.macs * cpm / max(su.macs_per_cycle(spec), 1e-12)

    def compute_energy_pj(
        self, spec: LayerSpec, stats: LayerWeightStats, su: SpatialUnrolling
    ) -> float:
        # Active lane-cycles are the actual non-zero bits processed.
        lane_cycles = spec.macs * stats.essential_bits_mean
        return lane_cycles * self.tech.mac_bit_serial_cycle_pj

    def sram_weight_overhead(self) -> float:
        return 1.25
