"""Zero-Column Index Parser (paper Fig. 7).

Each 8-bit weight index is split into its MSB (the sign column request)
and the remaining 7 bits marking non-zero magnitude columns.  The parser
emits the shift amount for every non-zero column in stream order and the
``Sync.ctr`` cycle count the compute engine will spend on the group.

In *dense mode* the parser generates the shift schedule locally from a
precision configuration -- all columns down to the configured LSB --
so deeply-quantized dense weights skip the index overhead entirely.

Because the index byte only has 256 values, the whole parse is
precomputed into module-level lookup tables; :meth:`parse_array` decodes
an arbitrary ``(K, n_groups)`` index array with a handful of
fancy-indexing operations, which is what the NPU simulator runs on.
The tests pin the tables to a scalar bit-by-bit decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bit-plane layout of one parsed byte, MSB first: column 0 is the sign
#: request, columns 1..7 are the magnitude planes (significance 6..0).
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1)

#: ``PLANE_SELECT_LUT[byte, plane]`` -- does ``byte`` stream ``plane``?
#: Plane indices follow :mod:`repro.core.signmag`: 0 = sign plane,
#: plane ``p`` in 1..7 carries significance ``7 - p``.
PLANE_SELECT_LUT = _BYTE_BITS.astype(bool)
PLANE_SELECT_LUT.setflags(write=False)

#: ``SIGN_REQUEST_LUT[byte]`` -- MSB of the index byte.
SIGN_REQUEST_LUT = PLANE_SELECT_LUT[:, 0].copy()
SIGN_REQUEST_LUT.setflags(write=False)

#: ``MAGNITUDE_COLUMNS_LUT[byte]`` -- number of non-zero magnitude
#: columns (bits 6..0 set in ``byte``).
MAGNITUDE_COLUMNS_LUT = _BYTE_BITS[:, 1:].sum(axis=1).astype(np.int64)
MAGNITUDE_COLUMNS_LUT.setflags(write=False)

#: ``SYNC_COUNTER_LUT[byte]`` -- ``Sync.ctr`` cycles for the group
#: (magnitude columns plus the sign column when requested).
SYNC_COUNTER_LUT = _BYTE_BITS.sum(axis=1).astype(np.int64)
SYNC_COUNTER_LUT.setflags(write=False)


def dense_plane_select(precision: int) -> np.ndarray:
    """Dense-mode schedule: which planes stream at ``precision`` bits.

    The sign plane plus the ``precision - 1`` least significant
    magnitude planes (the parser truncates higher significances away).
    """
    select = np.zeros(8, dtype=bool)
    select[0] = True
    if precision > 1:
        select[8 - (precision - 1):] = True
    return select


@dataclass(frozen=True)
class ParsedIndexArray:
    """Decoded control for a whole index-byte array.

    All fields are aligned with the input array's shape.  Each group's
    shift schedule -- the significance of every non-zero magnitude
    column, streamed MSB first -- appears as the equivalent plane-select
    mask (``shape + (8,)``), since the batch datapath consumes planes,
    not streamed columns; ``sync_counters`` is ``Sync.ctr``, the
    magnitude columns plus the sign column when requested.
    """

    sign_requests: np.ndarray
    plane_select: np.ndarray
    magnitude_columns: np.ndarray
    sync_counters: np.ndarray

    @property
    def streamed_planes(self) -> np.ndarray:
        """(8,) mask of planes streamed by *any* group in the batch."""
        return self.plane_select.reshape(-1, 8).any(axis=0)


class ZeroColumnIndexParser:
    """One of BitWave's 128 8-bit index parsers."""

    def __init__(self, dense_precision: int | None = None) -> None:
        """``dense_precision`` switches the parser to dense mode with the
        given weight bit-width (1..8, sign included)."""
        if dense_precision is not None and not 1 <= dense_precision <= 8:
            raise ValueError(
                f"dense precision must be in [1, 8], got {dense_precision}")
        self.dense_precision = dense_precision

    @property
    def dense_mode(self) -> bool:
        return self.dense_precision is not None

    def parse_array(self, index_bytes: np.ndarray) -> ParsedIndexArray:
        """Decode a whole index array through the lookup tables: four
        fancy-indexing ops regardless of array size.  In dense mode the
        index bytes are ignored and every group streams the configured
        precision."""
        index_bytes = np.asarray(index_bytes)
        if index_bytes.dtype != np.uint8:
            if (index_bytes.size
                    and not (0 <= int(index_bytes.min())
                             and int(index_bytes.max()) <= 0xFF)):
                raise ValueError("index bytes out of range")
            index_bytes = index_bytes.astype(np.uint8)
        if self.dense_mode:
            shape = index_bytes.shape
            precision = self.dense_precision
            return ParsedIndexArray(
                sign_requests=np.ones(shape, dtype=bool),
                plane_select=np.broadcast_to(
                    dense_plane_select(precision), shape + (8,)),
                magnitude_columns=np.full(shape, precision - 1,
                                          dtype=np.int64),
                sync_counters=np.full(shape, precision, dtype=np.int64),
            )
        return ParsedIndexArray(
            sign_requests=SIGN_REQUEST_LUT[index_bytes],
            plane_select=PLANE_SELECT_LUT[index_bytes],
            magnitude_columns=MAGNITUDE_COLUMNS_LUT[index_bytes],
            sync_counters=SYNC_COUNTER_LUT[index_bytes],
        )
