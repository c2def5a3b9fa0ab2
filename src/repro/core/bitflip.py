"""Bit-Flip weight optimization (paper Section III-D, Fig. 4(c)).

Bit-Flip forces every column group of a layer to contain *at least* a
target number of zero bit-columns, by flipping individual magnitude bits.
Per group the optimizer is exact: it enumerates all candidate sets of
surviving magnitude columns, rounds each weight's magnitude to the
nearest value representable on the surviving columns, and keeps the set
with minimal Euclidean distortion -- precisely the paper's "closest
weight vector (measured by RMS) that satisfies a specified constraint on
the desired number of zero-bit columns".

The sign column is never flipped (a sign flip would change the weight by
twice its magnitude, which the RMS objective essentially never prefers,
and it is how the ZCIP hardware treats signs: requested only when any
group member is negative).

Implementation notes
--------------------
With 7 magnitude planes there are at most :math:`\\binom{7}{k}` candidate
subsets per target, i.e. never more than 35.  All groups of a layer are
optimized simultaneously with vectorised NumPy: for each candidate subset
we build the (at most 128-entry) table of representable magnitudes, round
all group members via ``searchsorted``, and track the per-group best.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core.bitcolumn import group_weights, ungroup_weights, zero_column_mask
from repro.core.signmag import as_int8, from_sign_magnitude, to_sign_magnitude

#: Bit weights (powers of two) of the 7 magnitude planes, MSB first.
_MAGNITUDE_WEIGHTS = 1 << np.arange(6, -1, -1)


def representable_magnitudes(planes: tuple[int, ...]) -> np.ndarray:
    """Sorted magnitudes representable using only the given planes.

    ``planes`` are magnitude-plane offsets 0..6 (0 = magnitude MSB,
    weight 64; 6 = LSB, weight 1).

    >>> representable_magnitudes((5, 6)).tolist()
    [0, 1, 2, 3]
    """
    values = np.zeros(1, dtype=np.int64)
    for plane in planes:
        weight = int(_MAGNITUDE_WEIGHTS[plane])
        values = np.concatenate([values, values + weight])
    return np.unique(values)


def _round_to_table(magnitudes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Round each magnitude to the nearest table entry (ties toward lower)."""
    idx = np.searchsorted(table, magnitudes)
    idx = np.clip(idx, 1, len(table) - 1)
    lower = table[idx - 1]
    upper = table[idx]
    choose_upper = (magnitudes - lower) > (upper - magnitudes)
    return np.where(choose_upper, upper, lower)


@dataclass(frozen=True)
class FlipResult:
    """Outcome of flipping one tensor/layer.

    Attributes
    ----------
    weights:
        The flipped Int8 tensor (same shape as the input).
    distortion:
        Total squared error versus the original weights.
    achieved_zero_columns:
        Per-group zero-column count after flipping (``(n_groups,)``).
    """

    weights: np.ndarray
    distortion: float
    achieved_zero_columns: np.ndarray

    @property
    def rms(self) -> float:
        n = int(np.prod(self.weights.shape))
        return float(np.sqrt(self.distortion / max(n, 1)))

    @property
    def min_zero_columns(self) -> int:
        if self.achieved_zero_columns.size == 0:
            return 8
        return int(self.achieved_zero_columns.min())


def flip_groups(groups: np.ndarray, target_zero_columns: int) -> FlipResult:
    """Flip a ``(n_groups, G)`` int8 array to reach the zero-column target.

    Every group ends with at least ``target_zero_columns`` zero columns
    out of its 8 (sign column included in the count, as in the paper's
    Fig. 4(c) example where the non-zero sign column counts against the
    five-zero-column target).
    """
    if not 0 <= target_zero_columns <= 8:
        raise ValueError(
            f"target_zero_columns must be in [0, 8], got {target_zero_columns}"
        )
    groups = as_int8(groups)
    n, _ = groups.shape
    sign, magnitude = to_sign_magnitude(groups, saturate=True)
    magnitude = magnitude.astype(np.int64)

    zero_mask = zero_column_mask(groups, fmt="sm")
    zero_counts = zero_mask.sum(axis=1)
    needs_flip = zero_counts < target_zero_columns
    if not needs_flip.any() or target_zero_columns == 0:
        flipped = from_sign_magnitude(sign, magnitude.astype(np.uint8))
        return FlipResult(flipped, 0.0, zero_counts)

    sign_nonzero = ~zero_mask[:, 0]  # sign column occupied
    best_mag = magnitude.copy()
    # Groups with an occupied sign column get one fewer magnitude column.
    for sign_occupied in (False, True):
        sel = needs_flip & (sign_nonzero == sign_occupied)
        if not sel.any():
            continue
        keep = 8 - target_zero_columns - (1 if sign_occupied else 0)
        keep = max(keep, 0)
        sub_mag = magnitude[sel]
        sub_best = np.full(sub_mag.shape, 0, dtype=np.int64)
        sub_cost = np.full(sub_mag.shape[0], np.inf)
        for subset in combinations(range(7), keep):
            table = representable_magnitudes(subset)
            rounded = _round_to_table(sub_mag, table)
            cost = ((rounded - sub_mag) ** 2).sum(axis=1)
            better = cost < sub_cost
            sub_cost = np.where(better, cost, sub_cost)
            sub_best = np.where(better[:, None], rounded, sub_best)
        best_mag[sel] = sub_best

    final_mag = np.where(needs_flip[:, None], best_mag, magnitude)
    flipped = from_sign_magnitude(sign, final_mag.astype(np.uint8))
    achieved = zero_column_mask(flipped, fmt="sm").sum(axis=1)
    distortion = float(
        ((flipped.astype(np.int64) - groups.astype(np.int64)) ** 2).sum()
    )
    return FlipResult(flipped, distortion, achieved)


def flip_group(group: np.ndarray, target_zero_columns: int) -> FlipResult:
    """Flip a single group (1-D int8 vector) -- see :func:`flip_groups`."""
    group = as_int8(group).reshape(1, -1)
    result = flip_groups(group, target_zero_columns)
    return FlipResult(
        result.weights.reshape(-1),
        result.distortion,
        result.achieved_zero_columns,
    )


def flip_layer(
    weights: np.ndarray, target_zero_columns: int, group_size: int
) -> FlipResult:
    """Flip a whole weight tensor, grouped along its innermost axis.

    The caller is responsible for laying the tensor out so that the
    innermost (fastest-varying) axis walks consecutive input channels of
    one kernel, matching the BitWave group axis.
    """
    weights = as_int8(weights)
    groups = group_weights(weights, group_size)
    result = flip_groups(groups, target_zero_columns)
    restored = ungroup_weights(result.weights, weights.shape)
    return FlipResult(restored, result.distortion, result.achieved_zero_columns)
