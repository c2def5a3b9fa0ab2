"""Sign-magnitude and two's complement bit-plane codecs for Int8 weights.

The paper's central observation (Section III-B) is that DNN weight
distributions are dominated by small-magnitude values; in two's complement
a small *negative* value has many leading ones (``-3 = 0b1111_1101``)
while in sign-magnitude it has many leading zeros
(``-3 = sign 1, magnitude 0b000_0011``).  Converting the representation
therefore multiplies the number of zero bit-columns.

Bit-plane convention (shared across the repository): plane index 0 is the
MSB.  For sign-magnitude that means plane 0 is the sign plane and planes
1..7 hold the magnitude MSB..LSB.

Sign-magnitude with a 7-bit magnitude represents [-127, 127]; the Int8
value -128 has no encoding.  The quantizer in :mod:`repro.quant` produces
symmetric weights in [-127, 127]; :func:`to_sign_magnitude` rejects -128
by default and can saturate it on request.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import pack_bits, unpack_bits

SIGN_PLANE = 0
MAGNITUDE_PLANES = tuple(range(1, 8))
#: Bit significance (power of two) of each plane index, sign plane excluded.
PLANE_SIGNIFICANCE = {plane: 7 - plane for plane in MAGNITUDE_PLANES}


def as_int8(weights: np.ndarray) -> np.ndarray:
    """Cast to int8, raising where ``astype`` would truncate or wrap."""
    weights = np.asarray(weights)
    if weights.dtype != np.int8:
        if not np.issubdtype(weights.dtype, np.integer):
            raise TypeError(f"expected integer weights, got {weights.dtype}")
        if weights.size and (weights.min() < -128 or weights.max() > 127):
            raise ValueError("weights do not fit in int8")
        weights = weights.astype(np.int8)
    return weights


def to_sign_magnitude(
    weights: np.ndarray, saturate: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Split Int8 weights into sign and 7-bit magnitude arrays.

    Parameters
    ----------
    weights:
        Int8 array (any shape).
    saturate:
        If True, map -128 to (sign=1, magnitude=127) instead of raising.

    Returns
    -------
    (sign, magnitude):
        ``sign`` is uint8 with 1 for negative values; ``magnitude`` is
        uint8 in [0, 127].
    """
    weights = as_int8(weights)
    if np.any(weights == -128):
        if not saturate:
            raise ValueError(
                "-128 has no sign-magnitude encoding; quantize symmetrically "
                "to [-127, 127] or pass saturate=True"
            )
        weights = np.where(weights == -128, np.int8(-127), weights)
    sign = (weights < 0).astype(np.uint8)
    magnitude = np.abs(weights.astype(np.int16)).astype(np.uint8)
    return sign, magnitude


def from_sign_magnitude(sign: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_sign_magnitude`.

    Negative zero (sign=1, magnitude=0) decodes to 0, matching the
    hardware's AND-gate multiplier for which a zero magnitude column
    contributes nothing regardless of sign.
    """
    sign = np.asarray(sign, dtype=np.uint8)
    magnitude = np.asarray(magnitude, dtype=np.uint8)
    if magnitude.size and magnitude.max() > 127:
        raise ValueError("magnitude exceeds 7 bits")
    signed = magnitude.astype(np.int16)
    return np.where(sign.astype(bool), -signed, signed).astype(np.int8)


def sm_bitplanes(weights: np.ndarray, saturate: bool = False) -> np.ndarray:
    """Sign-magnitude bit planes of Int8 weights.

    Returns an array of shape ``weights.shape + (8,)`` (uint8, MSB first):
    plane 0 is the sign bit, planes 1..7 the magnitude bits.
    """
    sign, magnitude = to_sign_magnitude(weights, saturate=saturate)
    planes = unpack_bits(magnitude)
    planes[..., 0] = sign  # magnitude < 128, so its MSB slot is free
    return planes


def from_sm_bitplanes(planes: np.ndarray) -> np.ndarray:
    """Rebuild Int8 weights from sign-magnitude bit planes."""
    planes = np.asarray(planes, dtype=np.uint8)
    sign = planes[..., SIGN_PLANE]
    mag_planes = planes.copy()
    mag_planes[..., SIGN_PLANE] = 0
    magnitude = pack_bits(mag_planes)
    return from_sign_magnitude(sign, magnitude)


def twos_complement_bitplanes(weights: np.ndarray) -> np.ndarray:
    """Two's complement bit planes (uint8, plane 0 = MSB = sign)."""
    weights = as_int8(weights)
    return unpack_bits(weights.view(np.uint8))


def from_twos_complement_bitplanes(planes: np.ndarray) -> np.ndarray:
    """Rebuild Int8 weights from two's complement bit planes."""
    return pack_bits(np.asarray(planes, dtype=np.uint8)).view(np.int8)
