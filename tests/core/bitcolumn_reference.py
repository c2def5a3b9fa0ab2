"""Plane-unpacking reference implementations of the bit-column kernel.

These are the implementations the index-byte kernel of
:mod:`repro.core.bitcolumn` replaced.  They unpack every weight into its
eight bit planes and find zero columns with ``any`` over each group;
``layer_stats`` also builds a full BCS stream per group size to read its
compression ratios.  The oracle tests require the kernel-based code to
match them exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitcolumn import group_weights
from repro.core.compression import BCSCompressed
from repro.core.signmag import sm_bitplanes, twos_complement_bitplanes
from repro.sparsity.stats import LayerWeightStats
from repro.utils.bits import popcount8

#: Weight of each plane's bit in an index byte (plane 0 is the MSB).
_PLANE_BITS = (1 << np.arange(7, -1, -1)).astype(np.uint16)


def bitplanes(weights: np.ndarray, fmt: str) -> np.ndarray:
    if fmt == "sm":
        return sm_bitplanes(weights, saturate=True)
    if fmt == "2c":
        return twos_complement_bitplanes(weights)
    raise ValueError(f"unknown format {fmt!r}")


def zero_column_mask(groups: np.ndarray, fmt: str = "sm") -> np.ndarray:
    """``(n_groups, 8)`` mask of the planes that are zero across a group."""
    return ~bitplanes(groups, fmt).any(axis=1)


def bcs_compress(weights: np.ndarray, group_size: int) -> BCSCompressed:
    """BCS stream built from SM planes: index bytes plus non-zero columns."""
    weights = np.asarray(weights, dtype=np.int8)
    groups = group_weights(weights, group_size)
    planes = sm_bitplanes(groups, saturate=True)  # (n, G, 8)
    nz_mask = planes.any(axis=1)  # (n, 8)
    indices = (nz_mask * _PLANE_BITS).sum(axis=1).astype(np.uint8)
    cols = planes.transpose(0, 2, 1)[nz_mask]  # (total_nz, G)
    return BCSCompressed(
        indices=indices,
        columns=cols.astype(np.uint8),
        group_size=group_size,
        original_shape=tuple(weights.shape),
    )


def encode_groups(
    weights: np.ndarray, group_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The NPU encoder: ``(planes, signs, index)`` of ``(K, C)`` weights."""
    k, c = weights.shape
    pad = (-c) % group_size
    if pad:
        weights = np.concatenate(
            [weights, np.zeros((k, pad), dtype=np.int8)], axis=1)
    groups = weights.reshape(k, -1, group_size)
    planes = sm_bitplanes(groups, saturate=True)  # (K, ng, G, 8)
    planes = planes.transpose(0, 1, 3, 2)  # (K, ng, 8, G)
    signs = planes[:, :, 0, :]
    nz_mask = planes.any(axis=3)  # (K, ng, 8)
    index = (nz_mask * _PLANE_BITS).sum(axis=2).astype(np.uint8)
    return planes, signs, index


def layer_stats(
    weights: np.ndarray, group_sizes: tuple[int, ...]
) -> LayerWeightStats:
    """The sparsity profile from bit planes and one BCS stream per G."""
    flat = np.asarray(weights, dtype=np.int8).reshape(-1)
    tc_planes = twos_complement_bitplanes(flat)
    sm_planes = sm_bitplanes(flat, saturate=True)
    essential = popcount8(flat.view(np.uint8))

    nz_hists: dict[int, np.ndarray] = {}
    crs: dict[int, float] = {}
    crs_ideal: dict[int, float] = {}
    for g in group_sizes:
        mask = zero_column_mask(group_weights(weights, g), "sm")
        counts = 8 - mask.sum(axis=1)
        nz_hists[g] = np.bincount(counts, minlength=9).astype(np.int64)
        compressed = bcs_compress(weights, g)
        crs[g] = compressed.compression_ratio
        crs_ideal[g] = compressed.ideal_compression_ratio

    return LayerWeightStats(
        weight_count=flat.size,
        value_sparsity=float((flat == 0).mean()),
        bit_sparsity_2c=float(1.0 - tc_planes.mean()),
        bit_sparsity_sm=float(1.0 - sm_planes.mean()),
        essential_bits_hist=np.bincount(essential,
                                        minlength=9).astype(np.int64),
        significance_occupancy=tc_planes.mean(axis=0),
        nz_column_hists=nz_hists,
        bcs_cr=crs,
        bcs_cr_ideal=crs_ideal,
    )
