"""Sign-magnitude bit-serial multiplier (paper Fig. 8, step 2).

One SMM multiplies a single weight bit with a full-precision two's
complement activation through an AND gate; the weight's sign (from the
ZCIP) and the activation's sign jointly determine the partial product's
sign.  Because the activation is kept in two's complement, the partial
product is simply ``+activation`` or ``-activation`` gated by the bit.
"""

from __future__ import annotations

import numpy as np


def smm_plane_gemm(
    activations: np.ndarray,
    plane_bits: np.ndarray,
    plane_signs: np.ndarray,
) -> np.ndarray:
    """Every SMM of the array against one bit plane, as a single GEMM.

    Where one SMM lane multiplies one weight bit, this folds the whole
    plane -- all kernels, all groups -- into one integer matmul:
    ``bit * (sign ? -act : act)`` summed over the group lanes *and* the
    groups is exactly ``acts @ (bits * (1 - 2 * signs)).T``.

    Parameters
    ----------
    activations:
        ``(N, n_groups, G)`` integer activation contexts.
    plane_bits:
        ``(K, n_groups, G)`` 0/1 bits of one magnitude plane.
    plane_signs:
        ``(K, n_groups, G)`` 0/1 sign bits of the grouped weights.

    Returns
    -------
    numpy.ndarray
        ``(N, K)`` int64 partial sums of the plane, before the plane's
        single shift is applied.
    """
    acts = np.asarray(activations, dtype=np.int64)
    bits = np.asarray(plane_bits, dtype=np.int8)
    signs = np.asarray(plane_signs, dtype=np.int8)
    signed_bits = bits * (1 - 2 * signs)
    lhs = acts.reshape(acts.shape[0], -1)
    rhs = signed_bits.reshape(signed_bits.shape[0], -1)
    # Every partial product is an exact float64 integer and the row sum
    # is bounded by max|act| * C, so whenever that bound stays below
    # 2^53 the BLAS dgemm path is bit-identical to the int64 matmul --
    # and an order of magnitude faster.  Pathological activations fall
    # back to the exact (modular, like the reference accumulator) int64
    # matmul.
    peak = int(np.abs(lhs).max(initial=0))
    if peak <= (1 << 53) // max(lhs.shape[1], 1):
        return (lhs.astype(np.float64) @ rhs.T.astype(np.float64)).astype(
            np.int64)
    return lhs @ rhs.astype(np.int64).T
