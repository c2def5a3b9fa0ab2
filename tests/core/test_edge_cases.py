"""Edge-case and failure-injection tests across the core package.

These pin the behaviours that only show up at boundaries: extreme
values, degenerate groups, corrupted compressed streams, and adversarial
weight patterns.
"""

import numpy as np
import pytest

from repro.core.bitcolumn import (
    bit_sparsity,
    column_sparsity,
    group_weights,
    zero_column_mask,
)
from repro.core.bitflip import flip_group, flip_groups, flip_layer
from repro.core.compression import (
    BCSCompressed,
    bcs_compress,
    bcs_compression_ratio,
    bcs_decompress,
)
from repro.core.signmag import sm_bitplanes, to_sign_magnitude
from repro.sim.npu import BitWaveNPU
from repro.sparsity.stats import compute_layer_stats


class TestExtremeValues:
    def test_all_127(self):
        w = np.full(32, 127, dtype=np.int8)
        c = bcs_compress(w, 8)
        # Every magnitude column non-zero, sign column zero: 7 columns.
        assert c.payload_bits == 4 * 7 * 8
        assert np.array_equal(bcs_decompress(c), w)

    def test_all_minus_127(self):
        w = np.full(32, -127, dtype=np.int8)
        c = bcs_compress(w, 8)
        assert c.payload_bits == 4 * 8 * 8  # + sign column
        assert np.array_equal(bcs_decompress(c), w)

    def test_minus_128_saturates_through_compression(self):
        w = np.array([-128, 1, 2, 3], dtype=np.int8)
        restored = bcs_decompress(bcs_compress(w, 4))
        assert restored[0] == -127  # documented saturation
        assert np.array_equal(restored[1:], w[1:])

    def test_alternating_extremes_flip(self):
        group = np.array([127, -127, 127, -127], dtype=np.int8)
        result = flip_group(group, 6)
        assert result.min_zero_columns >= 6
        # Signs preserved even under deep flipping.
        assert np.all(np.sign(result.weights) == np.sign(group))

    def test_single_weight_group(self):
        w = np.array([-37], dtype=np.int8)
        groups = group_weights(w, 1)
        mask = zero_column_mask(groups)
        # 37 = 0b0100101: sign + 3 ones -> 4 non-zero columns.
        assert (~mask).sum() == 4


class TestInt8Validation:
    """Every kernel entry rejects what ``astype(np.int8)`` would hide:
    200 would wrap to -56 and 0.7 would truncate to 0."""

    @pytest.mark.parametrize("weights", [
        np.array([200, 3, -3, 1]),
        np.array([0.7, 1.2, 3.9]),
    ], ids=["out-of-range", "float"])
    @pytest.mark.parametrize("entry", [
        compute_layer_stats,
        lambda w: group_weights(w, 4),
        bit_sparsity,
        lambda w: column_sparsity(w, 4),
        lambda w: bcs_compress(w, 4),
        lambda w: bcs_compression_ratio(w, 4),
        lambda w: zero_column_mask(w.reshape(1, -1)),
        lambda w: flip_layer(w, 4, 4),
        lambda w: BitWaveNPU(group_size=4).run_fc(
            w.reshape(1, -1), np.ones((1, w.size), dtype=np.int64)),
    ], ids=["compute_layer_stats", "group_weights", "bit_sparsity",
            "column_sparsity", "bcs_compress", "bcs_compression_ratio",
            "zero_column_mask", "flip_layer", "run_fc"])
    def test_rejects_non_int8(self, entry, weights):
        with pytest.raises((TypeError, ValueError), match="int"):
            entry(weights)


class TestCorruptedStreams:
    def _compressed(self):
        rng = np.random.default_rng(9)
        w = rng.integers(-100, 100, 64).astype(np.int8)
        return w, bcs_compress(w, 8)

    def test_truncated_columns_rejected(self):
        w, c = self._compressed()
        corrupted = BCSCompressed(
            indices=c.indices,
            columns=c.columns[:-1],
            group_size=c.group_size,
            original_shape=c.original_shape,
        )
        with pytest.raises(Exception):
            bcs_decompress(corrupted)

    def test_wrong_shape_rejected(self):
        w, c = self._compressed()
        corrupted = BCSCompressed(
            indices=c.indices,
            columns=c.columns,
            group_size=c.group_size,
            original_shape=(1000,),
        )
        with pytest.raises(ValueError):
            bcs_decompress(corrupted)

    def test_index_flip_changes_decoded_values(self):
        w, c = self._compressed()
        indices = c.indices.copy()
        # Claim an extra non-zero column on group 0: column counts no
        # longer match the payload; decode must not silently succeed
        # with the original data.
        indices[0] ^= 0x01
        corrupted = BCSCompressed(
            indices=indices, columns=c.columns,
            group_size=c.group_size, original_shape=c.original_shape)
        try:
            restored = bcs_decompress(corrupted)
        except Exception:
            return  # structural mismatch detected: acceptable
        assert not np.array_equal(restored, w)


class TestAdversarialPatterns:
    def test_one_hot_columns(self):
        """Each weight occupies a distinct column: zero co-occurrence."""
        w = np.array([64, 32, 16, 8, 4, 2, 1, 0], dtype=np.int8)
        groups = group_weights(w, 8)
        mask = zero_column_mask(groups)
        assert mask.sum() == 1  # only the sign column is free

    def test_flip_one_hot_to_target(self):
        w = np.array([64, 32, 16, 8, 4, 2, 1, 0], dtype=np.int8)
        result = flip_groups(w.reshape(1, -1), 5)
        assert result.min_zero_columns >= 5
        # Large-magnitude weights survive better than small ones under
        # the L2 objective.
        assert abs(int(result.weights[0, 0])) >= abs(int(result.weights[0, 6]))

    def test_sm_wins_in_aggregate_on_realistic_weights(self):
        """SM is not pointwise better (a group of -127s favours 2C!),
        but on small-magnitude-dominated weights it wins in aggregate --
        the property the paper's technique actually relies on."""
        rng = np.random.default_rng(10)
        w = np.clip(np.round(rng.laplace(0, 9, 4096)), -127, 127).astype(
            np.int8)
        groups = group_weights(w, 8)
        sm = zero_column_mask(groups, "sm").sum()
        tc = zero_column_mask(groups, "2c").sum()
        assert sm > 1.5 * tc

    def test_sm_can_lose_on_adversarial_group(self):
        """Documenting the counterexample: -127 is 1000_0001 in 2C
        (six zero columns) but 1111_1111 in SM (none)."""
        group = np.full((1, 8), -127, dtype=np.int8)
        assert zero_column_mask(group, "2c").sum() == 6
        assert zero_column_mask(group, "sm").sum() == 0

    def test_positive_only_group_sm_equals_2c_magnitudes(self):
        w = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.int8)
        sign, mag = to_sign_magnitude(w)
        assert sign.sum() == 0
        planes = sm_bitplanes(w)
        # For non-negative values SM and 2C planes are identical.
        from repro.core.signmag import twos_complement_bitplanes

        assert np.array_equal(planes, twos_complement_bitplanes(w))
