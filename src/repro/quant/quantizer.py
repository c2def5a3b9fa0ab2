"""Symmetric Int8 quantization and the sub-8-bit PTQ baseline.

The paper quantizes fp32 weights with "PyTorch's common post-training
quantization framework": symmetric per-tensor Int8 over [-127, 127]
(symmetric so every value has a sign-magnitude encoding).

``ptq_reduce_bits`` implements the Int8+PTQ comparison of Fig. 6(e)-(h):
reducing precision below 8 bits by re-quantizing with a coarser step --
equivalently truncating LSBs across the whole tensor -- which achieves
the same compression ratio as storing fewer bits per weight.
"""

from __future__ import annotations

import numpy as np

from repro.quant.qtensor import QTensor
from repro.utils.bits import BLOCK

INT8_LEVELS = 127


def quantize_symmetric(
    weights: np.ndarray, amax: float | None = None
) -> QTensor:
    """Quantize float weights to symmetric Int8 in [-127, 127].

    Rounds :data:`~repro.utils.bits.BLOCK` weights at a time, so the
    only full-size array it allocates is the int8 result.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if amax is None:
        amax = (float(max(weights.max(), -weights.min()))
                if weights.size else 1.0)
    if amax <= 0:
        amax = 1.0
    scale = amax / INT8_LEVELS
    values = np.empty(weights.shape, dtype=np.int8)
    source, target = weights.reshape(-1), values.reshape(-1)
    for start in range(0, source.size, BLOCK):
        block = source[start:start + BLOCK] / scale
        np.round(block, out=block)
        np.clip(block, -INT8_LEVELS, INT8_LEVELS, out=block)
        target[start:start + BLOCK] = block
    return QTensor(values=values, scale=scale, bits=8)


def dequantize(qtensor: QTensor) -> np.ndarray:
    return qtensor.dequantize()


def ptq_reduce_bits(qtensor: QTensor, bits: int) -> QTensor:
    """Re-quantize an Int8 tensor to ``bits`` bits (MSB-preserving).

    The integer grid is coarsened by ``2**(8 - bits)``; the stored values
    stay in the Int8 range so that the compression ratio is exactly
    ``8 / bits`` when packed at ``bits`` bits per weight.
    """
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    if bits == 8:
        return qtensor
    step = 1 << (8 - bits)
    levels = (INT8_LEVELS + 1) // step - 1  # e.g. 7 for 4 bits
    coarse = np.clip(
        np.round(qtensor.values.astype(np.int32) / step), -levels, levels)
    values = (coarse * step).astype(np.int8)
    return QTensor(values=values, scale=qtensor.scale, bits=bits)
