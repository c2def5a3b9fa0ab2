"""BCS compression and value-sparsity baselines (paper Section III-C, Fig. 5).

BCS compression stores, per column group of ``G`` weights:

- one 8-bit *column index* whose bit ``i`` marks a non-zero column at
  plane ``i`` (MSB first; plane 0 is the sign column), and
- the non-zero columns themselves, ``G`` bits each.

Compression is lossless and -- unlike value-sparsity formats -- keeps
memory accesses regular: the stored stream is consumed directly by the
compute array without a decompression stage.  :func:`bcs_compress`
builds the stream, for round trips and deployment only; its ratios follow
in closed form (:func:`bcs_ratios`) from the non-zero column histogram.

The module also implements the two value-sparsity baselines of Fig. 5:

- **ZRE** (Zero Run-Length Encoding), as used by SCNN: each non-zero
  value is stored with a fixed-width count of preceding zeros.
- **CSR** (Compressed Sparse Row): per-row non-zero values plus column
  indices and row pointers.

All compression-ratio helpers return ``original_bits / compressed_bits``
both *ideal* (payload only) and *real* (payload + index overhead), the
two bars of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitcolumn import (
    group_weights,
    index_bytes,
    ungroup_weights,
    weight_bytes,
)
from repro.core.signmag import from_sm_bitplanes
from repro.utils.bits import byte_histogram, popcount8, unpack_bits

WORD_BITS = 8


@dataclass(frozen=True)
class BCSCompressed:
    """A BCS-compressed weight tensor.

    Attributes
    ----------
    indices:
        ``(n_groups,)`` uint8; bit 7 of the byte corresponds to plane 0
        (the sign column), matching the ZCIP parser's MSB-first layout.
    columns:
        ``(total_nonzero_columns, G)`` uint8 bit matrix; the non-zero
        columns of all groups concatenated in group order, plane order
        (sign column first when present).
    group_size:
        The column group size G.
    original_shape:
        Shape of the tensor before grouping/padding.
    """

    indices: np.ndarray
    columns: np.ndarray
    group_size: int
    original_shape: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        return int(self.indices.shape[0])

    @property
    def original_bits(self) -> int:
        return int(np.prod(self.original_shape)) * WORD_BITS

    @property
    def payload_bits(self) -> int:
        """Bits spent on stored (non-zero) columns."""
        return int(self.columns.shape[0]) * self.group_size

    @property
    def index_bits(self) -> int:
        """Bits spent on per-group column indices."""
        return self.n_groups * WORD_BITS

    @property
    def compressed_bits(self) -> int:
        return self.payload_bits + self.index_bits

    @property
    def compression_ratio(self) -> float:
        """Real CR including index overhead (lower bars of Fig. 5)."""
        return self.original_bits / self.compressed_bits

    @property
    def ideal_compression_ratio(self) -> float:
        """Ideal CR ignoring the index overhead (upper bars of Fig. 5)."""
        return self.original_bits / max(self.payload_bits, 1)


def bcs_compress(weights: np.ndarray, group_size: int) -> BCSCompressed:
    """Compress an Int8 weight tensor with BCS at the given group size."""
    data = weight_bytes(group_weights(weights, group_size))  # (n, G)
    indices = index_bytes(data, group_size)
    # Gather non-zero columns: planes transposed to (n, 8, G) then select.
    planes = unpack_bits(data).transpose(0, 2, 1)
    cols = planes[unpack_bits(indices).astype(bool)]  # (total_nz, G)
    return BCSCompressed(
        indices=indices,
        columns=cols,
        group_size=group_size,
        original_shape=np.shape(weights),
    )


def bcs_decompress(compressed: BCSCompressed) -> np.ndarray:
    """Losslessly reconstruct the Int8 tensor from a BCS stream."""
    n, g = compressed.n_groups, compressed.group_size
    planes = np.zeros((n, 8, g), dtype=np.uint8)
    index_bits = np.unpackbits(compressed.indices[:, None], axis=1).astype(bool)
    planes[index_bits] = compressed.columns
    groups = from_sm_bitplanes(planes.transpose(0, 2, 1))
    return ungroup_weights(groups, compressed.original_shape)


def bcs_ratios(nz_hist: np.ndarray, group_size: int,
               weight_count: int) -> tuple[float, float]:
    """``(real, ideal)`` CR of the BCS stream whose groups have ``k``
    non-zero columns ``nz_hist[k]`` times, sized as :class:`BCSCompressed`."""
    payload_bits = int((np.arange(9) * nz_hist).sum()) * group_size
    index_bits = int(nz_hist.sum()) * WORD_BITS
    original_bits = weight_count * WORD_BITS
    return (original_bits / max(payload_bits + index_bits, 1),
            original_bits / max(payload_bits, 1))


def bcs_compression_ratio(
    weights: np.ndarray, group_size: int, ideal: bool = False
) -> float:
    """The (real or ideal) CR of :func:`bcs_compress`'s stream."""
    data = weight_bytes(weights)
    nz_hist = byte_histogram(popcount8(index_bytes(data, group_size)),
                             minlength=9)
    real, ideal_cr = bcs_ratios(nz_hist, group_size, data.size)
    return ideal_cr if ideal else real


def zre_compression_ratio(
    weights: np.ndarray, run_bits: int = 4, ideal: bool = False
) -> float:
    """Zero Run-Length Encoding CR (SCNN's format, Fig. 5 baseline).

    Each non-zero value costs ``WORD_BITS`` payload plus ``run_bits`` of
    zero-run-length index.  A run longer than ``2**run_bits - 1`` zeros
    costs an extra zero-valued placeholder entry (standard ZRE escape).
    """
    flat = np.asarray(weights).reshape(-1)
    if flat.size == 0:
        return 1.0
    max_run = (1 << run_bits) - 1
    nonzero_positions = np.flatnonzero(flat)
    # Zero-run before each non-zero; each escape entry (a stored zero with
    # a full run field) absorbs max_run + 1 zeros of an over-long run.
    prev = np.concatenate([[-1], nonzero_positions])
    runs = np.diff(prev) - 1
    escapes = int(np.sum(runs // (max_run + 1)))
    # Trailing zeros after the final non-zero are encoded purely by escapes.
    last = int(nonzero_positions[-1]) if nonzero_positions.size else -1
    trailing = flat.size - 1 - last
    escapes += -(-trailing // (max_run + 1))  # ceil division
    entries = int(nonzero_positions.size) + escapes
    payload_bits = entries * WORD_BITS
    index_bits = entries * run_bits
    original = flat.size * WORD_BITS
    compressed = payload_bits if ideal else payload_bits + index_bits
    return original / max(compressed, 1)


def csr_compression_ratio(
    weights: np.ndarray, row_length: int = 64, ideal: bool = False
) -> float:
    """Compressed Sparse Row CR over fixed-length rows (Fig. 5 baseline).

    Rows of ``row_length`` values store their non-zeros (8b each), a
    ``ceil(log2(row_length))``-bit column index per non-zero, and one row
    pointer of ``ceil(log2(row_length + 1))`` bits.
    """
    flat = np.asarray(weights).reshape(-1)
    if flat.size == 0:
        return 1.0
    col_bits = max(int(np.ceil(np.log2(row_length))), 1)
    ptr_bits = max(int(np.ceil(np.log2(row_length + 1))), 1)
    n_rows = int(np.ceil(flat.size / row_length))
    nnz = int(np.count_nonzero(flat))
    payload_bits = nnz * WORD_BITS
    index_bits = nnz * col_bits + n_rows * ptr_bits
    original = flat.size * WORD_BITS
    compressed = payload_bits if ideal else payload_bits + index_bits
    return original / max(compressed, 1)
