"""Per-tensor sparsity statistics consumed by the accelerator models.

Everything the performance model (Section V-B STEP2) needs from a weight
tensor is collected once into a :class:`LayerWeightStats`:

- value sparsity ``Sw`` and bit sparsities ``Sw,b`` (2C and SM) --
  the quantities of Fig. 1;
- the *essential-bit* histogram (non-zero 2C bits per weight), which
  drives Pragmatic's cycle model;
- per-significance occupancy (fraction of ones at each bit position),
  which drives Bitlet's interleaving model;
- per-group non-zero-column histograms for each supported group size,
  which drive BitWave's cycle model and BCS compression ratios.

Histograms rather than raw arrays keep network-level profiles small,
and a profile is built from them too: a 256-bin histogram of the weight
bytes plus one :mod:`repro.core.bitcolumn` kernel pass per group size.
Order statistics over accelerator sync domains are computed from the
histograms with the i.i.d. max formula
``E[max of m] = sum_v v * (F(v)^m - F(v-1)^m)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.bitcolumn import SM_BYTE, index_bytes, weight_bytes
from repro.core.compression import bcs_ratios
from repro.core.signmag import as_int8
from repro.utils.bits import byte_histogram, popcount8, unpack_bits

# Hardware-supported column sizes (Section III-C) plus 64 for the
# depthwise SU7 dataflow's wider sync group.
GROUP_SIZES = (8, 16, 32, 64)


def expected_max_of_sample(histogram: np.ndarray, m: int) -> float:
    """E[max of ``m`` i.i.d. draws] from a value histogram over 0..len-1."""
    if m < 1:
        raise ValueError(f"sample size must be >= 1, got {m}")
    total = histogram.sum()
    if total == 0:
        return 0.0
    cdf = np.cumsum(histogram) / total
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    values = np.arange(len(histogram))
    return float((values * (cdf ** m - cdf_prev ** m)).sum())


def _hist_mean(hist: np.ndarray) -> float:
    total = hist.sum()
    return float((np.arange(9) * hist).sum() / total) if total else 0.0


@dataclass(frozen=True)
class LayerWeightStats:
    """Sparsity profile of one layer's Int8 weights."""

    weight_count: int
    value_sparsity: float
    bit_sparsity_2c: float
    bit_sparsity_sm: float
    #: Histogram (length 9) of non-zero 2C bits per weight.
    essential_bits_hist: np.ndarray
    #: Fraction of ones at each bit position (2C, MSB first; length 8).
    significance_occupancy: np.ndarray
    #: ``G -> histogram (length 9) of non-zero columns per group``.
    nz_column_hists: dict[int, np.ndarray]
    #: ``G -> real BCS compression ratio`` (with index overhead).
    bcs_cr: dict[int, float]
    #: ``G -> ideal BCS compression ratio`` (payload only).
    bcs_cr_ideal: dict[int, float]
    #: Order statistics already computed from this instance's
    #: histograms; ``replace`` starts a fresh one.
    _expected_max: dict[tuple[int | None, int], float] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def essential_bits_mean(self) -> float:
        return _hist_mean(self.essential_bits_hist)

    def mean_nz_columns(self, group_size: int) -> float:
        return _hist_mean(self.nz_column_hists[group_size])

    def expected_max_nz_columns(self, group_size: int, domain: int) -> float:
        """E[max non-zero columns] over a sync domain of ``domain`` groups."""
        return self._expected_max_of(group_size, domain)

    def expected_max_essential_bits(self, domain: int) -> float:
        """E[max essential bits] over ``domain`` lock-stepped weights."""
        return self._expected_max_of(None, domain)

    def _expected_max_of(self, group_size: int | None, domain: int) -> float:
        """:func:`expected_max_of_sample` of the non-zero-column
        histogram at ``group_size`` (``None``: the essential-bit
        histogram), computed once per instance."""
        key = (group_size, domain)
        value = self._expected_max.get(key)
        if value is None:
            hist = (self.essential_bits_hist if group_size is None
                    else self.nz_column_hists[group_size])
            value = self._expected_max[key] = expected_max_of_sample(
                hist, domain)
        return value

    def with_bitflip(self, target_zero_columns: int) -> "LayerWeightStats":
        """Stats after Bit-Flip at the given per-group target.

        Bit-Flip guarantees every group ends with at least
        ``target_zero_columns`` zero columns, i.e. at most
        ``8 - target`` non-zero columns; groups already satisfying the
        target keep their counts.  The transformed histogram is exact
        (see :func:`repro.core.bitflip.flip_groups`), so network-scale
        performance modeling never needs to materialize flipped weights.
        """
        cap = 8 - target_zero_columns
        hists = {}
        crs = {}
        crs_ideal = {}
        for g, hist in self.nz_column_hists.items():
            capped = hist.copy().astype(np.int64)
            overflow = capped[cap + 1:].sum()
            capped[cap + 1:] = 0
            capped[cap] += overflow
            hists[g] = capped
            crs[g], crs_ideal[g] = bcs_ratios(capped, g, self.weight_count)
        return replace(self, nz_column_hists=hists, bcs_cr=crs,
                       bcs_cr_ideal=crs_ideal)


def compute_layer_stats(
    weights: np.ndarray,
    group_sizes: tuple[int, ...] = GROUP_SIZES,
) -> LayerWeightStats:
    """Collect the full sparsity profile of an Int8 weight tensor."""
    flat = as_int8(weights).reshape(-1)
    n = flat.size
    if n == 0:
        raise ValueError("cannot profile an empty tensor")

    byte_hist = byte_histogram(flat.view(np.uint8), minlength=256)
    plane_ones = byte_hist @ unpack_bits(np.arange(256, dtype=np.uint8))
    sm_bytes = weight_bytes(flat, "sm")

    nz_hists = {g: byte_histogram(popcount8(index_bytes(sm_bytes, g)),
                                  minlength=9) for g in group_sizes}
    ratios = {g: bcs_ratios(nz_hists[g], g, n) for g in group_sizes}

    return LayerWeightStats(
        weight_count=n,
        value_sparsity=float(byte_hist[0] / n),
        bit_sparsity_2c=float(1.0 - plane_ones.sum() / (8 * n)),
        bit_sparsity_sm=float(1.0 - byte_hist @ popcount8(SM_BYTE) / (8 * n)),
        essential_bits_hist=np.bincount(
            popcount8(np.arange(256)), weights=byte_hist,
            minlength=9).astype(np.int64),
        significance_occupancy=plane_ones / n,
        nz_column_hists=nz_hists,
        bcs_cr={g: real for g, (real, _) in ratios.items()},
        bcs_cr_ideal={g: ideal for g, (_, ideal) in ratios.items()},
    )
