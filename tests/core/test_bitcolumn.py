"""Tests for bit-column sparsity statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.bitcolumn import (
    SM_BYTE,
    bit_sparsity,
    column_sparsity,
    group_weights,
    nonzero_column_counts,
    ungroup_weights,
    value_sparsity,
    weight_bytes,
    zero_column_mask,
)
from repro.core.signmag import sm_bitplanes
from repro.utils.bits import pack_bits

int8_arrays = arrays(np.int8, st.integers(1, 256),
                     elements=st.integers(-127, 127))


class TestGroupWeights:
    def test_exact_multiple(self):
        groups = group_weights(np.arange(8, dtype=np.int8), 4)
        assert groups.shape == (2, 4)
        assert groups[0].tolist() == [0, 1, 2, 3]

    def test_padding_with_zeros(self):
        groups = group_weights(np.ones(5, dtype=np.int8), 4)
        assert groups.shape == (2, 4)
        assert groups[1].tolist() == [1, 0, 0, 0]

    def test_group_size_one(self):
        groups = group_weights(np.arange(3, dtype=np.int8), 1)
        assert groups.shape == (3, 1)

    def test_invalid_group_size(self):
        with pytest.raises(ValueError, match="group_size"):
            group_weights(np.ones(4, dtype=np.int8), 0)

    @given(int8_arrays, st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    def test_roundtrip(self, w, g):
        groups = group_weights(w, g)
        assert np.array_equal(ungroup_weights(groups, w.shape), w)

    def test_ungroup_rejects_short(self):
        with pytest.raises(ValueError, match="need"):
            ungroup_weights(np.zeros((1, 4), dtype=np.int8), (8,))


class TestZeroColumnMask:
    def test_paper_fig4_style_example(self):
        # Four Int8 values with a shared zero at one significance.
        # In SM: 3=0000011, 5=0000101, -3=sign+0000011, 1=0000001.
        group = np.array([[3, 5, -3, 1]], dtype=np.int8)
        mask = zero_column_mask(group, fmt="sm")
        # Planes: sign(no: -3), 64,32,16,8 all zero, 4 (5 has it), 2, 1.
        assert mask.tolist() == [[False, True, True, True, True, False, False, False]]

    def test_all_zero_group(self):
        mask = zero_column_mask(np.zeros((1, 8), dtype=np.int8))
        assert mask.all()

    def test_2c_negative_fills_columns(self):
        # -1 in 2C is all ones: no zero column.
        mask = zero_column_mask(np.array([[-1, -1]], dtype=np.int8), fmt="2c")
        assert not mask.any()

    def test_sm_vs_2c_small_negatives(self):
        # Small negatives: SM should expose strictly more zero columns.
        group = np.array([[-1, -2, -3, -1]], dtype=np.int8)
        sm = zero_column_mask(group, fmt="sm").sum()
        tc = zero_column_mask(group, fmt="2c").sum()
        assert sm > tc

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="n_groups"):
            zero_column_mask(np.zeros(4, dtype=np.int8))

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            zero_column_mask(np.zeros((1, 4), dtype=np.int8), fmt="gray")


class TestNonzeroColumnCounts:
    def test_zero_group_costs_zero_cycles(self):
        counts = nonzero_column_counts(np.zeros((1, 4), dtype=np.int8))
        assert counts.tolist() == [0]

    def test_single_value(self):
        counts = nonzero_column_counts(np.array([[64]], dtype=np.int8))
        assert counts.tolist() == [1]

    def test_counts_bounded_by_8(self):
        counts = nonzero_column_counts(np.array([[-127, 127, -1, 85]], dtype=np.int8))
        assert (counts <= 8).all()

    @given(int8_arrays, st.sampled_from([4, 8, 16]))
    def test_counts_complement_mask(self, w, g):
        groups = group_weights(w, g)
        mask = zero_column_mask(groups)
        counts = nonzero_column_counts(groups)
        assert np.array_equal(counts, 8 - mask.sum(axis=1))


class TestSparsityScalars:
    def test_value_sparsity_all_zero(self):
        assert value_sparsity(np.zeros(16, dtype=np.int8)) == 1.0

    def test_value_sparsity_dense(self):
        assert value_sparsity(np.ones(16, dtype=np.int8)) == 0.0

    def test_bit_sparsity_zero_tensor(self):
        assert bit_sparsity(np.zeros(8, dtype=np.int8)) == 1.0

    def test_bit_sparsity_sm_beats_2c_on_laplacian(self, laplacian_int8):
        assert bit_sparsity(laplacian_int8, "sm") > bit_sparsity(laplacian_int8, "2c")

    def test_column_sparsity_group1_equals_bit_sparsity(self, laplacian_int8):
        cs = column_sparsity(laplacian_int8, 1, "sm")
        bs = bit_sparsity(laplacian_int8, "sm")
        assert cs == pytest.approx(bs)

    def test_column_sparsity_decreases_with_group_size(self, laplacian_int8):
        sparsities = [
            column_sparsity(laplacian_int8, g, "sm") for g in (1, 4, 16, 64)
        ]
        assert all(a >= b for a, b in zip(sparsities, sparsities[1:]))

    def test_empty_tensor(self):
        assert value_sparsity(np.array([], dtype=np.int8)) == 0.0
        assert bit_sparsity(np.array([], dtype=np.int8)) == 0.0

    @given(int8_arrays)
    def test_bit_sparsity_bounds(self, w):
        for fmt in ("sm", "2c"):
            assert 0.0 <= bit_sparsity(w, fmt) <= 1.0

    @given(int8_arrays)
    def test_bit_sparsity_at_least_value_sparsity(self, w):
        # Every zero value contributes 8 zero bits, so bit sparsity can
        # never be below value sparsity.
        assert bit_sparsity(w, "sm") >= value_sparsity(w) - 1e-12


class TestWeightBytes:
    def test_every_int8_value_matches_the_sm_table(self):
        raw = np.arange(256, dtype=np.uint8)
        got = weight_bytes(raw.view(np.int8), "sm")
        assert got.dtype == np.uint8
        assert np.array_equal(got, SM_BYTE[raw])

    def test_sm_table_is_the_saturated_sign_magnitude_planes(self):
        values = np.arange(256, dtype=np.uint8).view(np.int8)
        assert np.array_equal(
            SM_BYTE, pack_bits(sm_bitplanes(values, saturate=True)))
        assert SM_BYTE[0x80] == 0xFF  # -128 saturates to -127

    def test_shape_kept_and_input_untouched(self):
        weights = np.arange(-128, 128, dtype=np.int8).reshape(4, 8, 8)
        copy = weights.copy()
        sm = weight_bytes(weights, "sm")
        assert sm.shape == weights.shape
        assert np.array_equal(sm.reshape(-1),
                              SM_BYTE[weights.view(np.uint8).reshape(-1)])
        assert np.array_equal(weights, copy)
