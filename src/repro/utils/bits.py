"""Low-level bit manipulation helpers on NumPy integer arrays.

All bit-plane conventions in this repository are MSB-first: plane index 0
is bit 7 (the sign bit for Int8), plane index 7 is bit 0 (the LSB).
"""

from __future__ import annotations

import numpy as np

#: Elements per block of the loops that walk a whole layer's weights
#: (:func:`byte_histogram`, :func:`repro.quant.quantize_symmetric`,
#: :func:`repro.workloads.synthetic.synthetic_weights`).  numpy copies
#: a uint8 index array to 8-byte ``intp`` before using it, and float64
#: temporaries take 8 bytes too, so a block's temporaries stay at
#: 512 KiB whatever the layer's size.
BLOCK = 1 << 16


def unpack_bits(values: np.ndarray) -> np.ndarray:
    """Unpack a uint8 array into bit planes along a trailing axis.

    Parameters
    ----------
    values:
        Array of dtype ``uint8`` (any shape).

    Returns
    -------
    numpy.ndarray
        Array of shape ``values.shape + (8,)`` and dtype ``uint8`` where
        index 0 of the trailing axis is the MSB.
    """
    values = np.asarray(values, dtype=np.uint8)
    return np.unpackbits(values[..., None], axis=-1)


def pack_bits(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unpack_bits`: pack a trailing 8-bit axis to uint8."""
    planes = np.asarray(planes, dtype=np.uint8)
    if planes.shape[-1] != 8:
        raise ValueError(
            f"expected trailing axis of length 8, got {planes.shape[-1]}"
        )
    return np.packbits(planes, axis=-1)[..., 0]


def popcount8(values: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint8 array."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint8))


def byte_histogram(values: np.ndarray, minlength: int = 0) -> np.ndarray:
    """``np.bincount`` of a uint8 array, counted :data:`BLOCK` values at
    a time so the ``intp`` copy of its values never exceeds a block."""
    flat = np.asarray(values, dtype=np.uint8).reshape(-1)
    counts = np.zeros(256, dtype=np.intp)
    for start in range(0, flat.size, BLOCK):
        counts += np.bincount(flat[start:start + BLOCK], minlength=256)
    used = int(np.flatnonzero(counts)[-1]) + 1 if flat.size else 0
    return counts[:max(minlength, used)]
