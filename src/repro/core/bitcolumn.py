"""Bit-Column Sparsity (BCS) statistics (paper Section III-A/III-B).

A *column group* is a vector of ``G`` consecutive Int8 weights.  A *bit
column* is one bit significance across all ``G`` weights of the group.
A column is *zero* when every weight in the group has a zero bit at that
significance; zero columns can be skipped by the BitWave compute engine
and elided from storage by BCS compression.  One kernel finds every zero
column: the OR of a group's :func:`weight_bytes` is its column index
(:func:`index_bytes`), the byte BCS stores and the ZCIP parses (Fig. 7),
and its popcount is the group's cycle count.

Grouping follows the paper: weights of one kernel are grouped along
consecutive input channels (the ``C`` dimension), because the BitWave BCE
spatially unrolls ``C`` along the bit column (Section IV-B).
"""

from __future__ import annotations

import numpy as np

from repro.core.signmag import as_int8, sm_bitplanes
from repro.utils.bits import pack_bits, popcount8, unpack_bits

#: Binary formats understood by the statistics functions.
FORMATS = ("sm", "2c")

#: Sign-magnitude byte of every Int8 value, indexed by its 2C byte.
SM_BYTE = pack_bits(sm_bitplanes(
    np.arange(256, dtype=np.uint8).view(np.int8), saturate=True))


def weight_bytes(weights: np.ndarray, fmt: str = "sm") -> np.ndarray:
    """Each Int8 weight as a uint8 whose bit ``7 - p`` is its plane ``p``
    (``"sm"``: sign in bit 7, -128 saturated to -127, as in
    :data:`SM_BYTE`)."""
    weights = as_int8(weights)
    raw = weights.view(np.uint8)
    if fmt == "sm":
        # Computed, not looked up: a table lookup first copies the
        # bytes to 8-byte indices.  int8 abs wraps -128 to itself.
        sm = np.abs(weights).view(np.uint8)
        np.minimum(sm, 0x7F, out=sm)
        sm |= raw & 0x80
        return sm
    if fmt == "2c":
        return raw
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _grouped(flat: np.ndarray, group_size: int) -> np.ndarray:
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    pad = (-flat.size) % group_size
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=flat.dtype)])
    return flat.reshape(-1, group_size)


def group_weights(weights: np.ndarray, group_size: int) -> np.ndarray:
    """Reshape a weight tensor into column groups of ``group_size``.

    The tensor is flattened in C-order and zero-padded up to a multiple of
    ``group_size`` (zero padding only ever *adds* zero bits, so statistics
    are conservative).  For convolution weights callers should pass an
    array already laid out with the input-channel dimension innermost
    (see :func:`repro.workloads.spec.group_axis_layout`).

    Returns an array of shape ``(n_groups, group_size)`` of dtype int8.
    """
    return _grouped(as_int8(weights).reshape(-1), group_size)


def ungroup_weights(
    groups: np.ndarray, original_shape: tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`group_weights`: drop padding and restore shape."""
    size = int(np.prod(original_shape))
    flat = np.asarray(groups, dtype=np.int8).reshape(-1)
    if flat.size < size:
        raise ValueError(
            f"groups hold {flat.size} weights, need {size} for {original_shape}"
        )
    return flat[:size].reshape(original_shape)


def index_bytes(data: np.ndarray, group_size: int) -> np.ndarray:
    """Column index of each group of ``data`` (:func:`weight_bytes` grouped
    like :func:`group_weights`): the OR of its bytes, so bit ``7 - p`` is
    set iff plane ``p`` is a non-zero column."""
    groups = _grouped(np.ascontiguousarray(data).reshape(-1), group_size)
    # OR the group as words of up to 8 bytes, then fold the word's bytes:
    # a per-byte reduction over a short axis is several times slower.
    width = int(np.gcd(group_size, 8))
    word = np.bitwise_or.reduce(groups.view(f"u{width}"), axis=1)
    for shift in (32, 16, 8):
        if shift < 8 * width:
            word |= word >> shift
    return word.astype(np.uint8)


def zero_column_mask(groups: np.ndarray, fmt: str = "sm") -> np.ndarray:
    """Boolean mask of zero bit-columns per group.

    Parameters
    ----------
    groups:
        ``(n_groups, G)`` int8 array from :func:`group_weights`.
    fmt:
        ``"sm"`` (sign-magnitude, the BitWave format) or ``"2c"``.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``(n_groups, 8)``; column 0 is the MSB
        (sign plane in SM).  ``True`` marks a column that is zero across
        the whole group.
    """
    groups = np.asarray(groups)
    if groups.ndim != 2:
        raise ValueError(f"expected (n_groups, G) array, got shape {groups.shape}")
    index = index_bytes(weight_bytes(groups, fmt), groups.shape[1])
    return unpack_bits(index) == 0


def nonzero_column_counts(groups: np.ndarray, fmt: str = "sm") -> np.ndarray:
    """Number of non-zero bit columns per group (0..8).

    This is exactly the per-group cycle count of the BitWave compute
    engine (the ZCIP ``Sync.ctr`` value) when the sign column is handled
    like any other column request.
    """
    return 8 - zero_column_mask(groups, fmt).sum(axis=1)


def column_sparsity(
    weights: np.ndarray, group_size: int, fmt: str = "sm"
) -> float:
    """Fraction of zero bit-columns over all columns of a weight tensor.

    This is the quantity the paper reports for ResNet18 conv2: 17% with
    two's complement and 59% with sign-magnitude at G=4 (Fig. 4).
    """
    groups = group_weights(weights, group_size)
    if groups.size == 0:
        return 0.0
    mask = zero_column_mask(groups, fmt)
    return float(mask.mean())


def bit_sparsity(weights: np.ndarray, fmt: str = "sm") -> float:
    """Fraction of zero bits over all bits of a weight tensor (Fig. 1).

    Equivalent to :func:`column_sparsity` with ``group_size=1``.
    """
    data = weight_bytes(weights, fmt)
    if data.size == 0:
        return 0.0
    return float(1.0 - popcount8(data).sum() / (8 * data.size))


def value_sparsity(weights: np.ndarray) -> float:
    """Fraction of exactly-zero values of a tensor (Fig. 1 baseline)."""
    weights = np.asarray(weights)
    if weights.size == 0:
        return 0.0
    return float((weights == 0).mean())
