"""Tests for BCS compression and the ZRE/CSR baselines."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.bitcolumn import column_sparsity
from repro.core.compression import (
    bcs_compress,
    bcs_compression_ratio,
    bcs_decompress,
    csr_compression_ratio,
    zre_compression_ratio,
)

int8_arrays = arrays(np.int8, st.integers(1, 512),
                     elements=st.integers(-127, 127))


class TestBcsRoundtrip:
    @given(int8_arrays, st.sampled_from([4, 8, 16, 32]))
    def test_lossless(self, w, g):
        assert np.array_equal(bcs_decompress(bcs_compress(w, g)), w)

    def test_multidimensional_shape_restored(self):
        w = np.arange(24, dtype=np.int8).reshape(2, 3, 4)
        out = bcs_decompress(bcs_compress(w, 8))
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out, w)

    def test_all_zero_tensor(self):
        w = np.zeros(64, dtype=np.int8)
        c = bcs_compress(w, 16)
        assert c.payload_bits == 0
        assert np.array_equal(bcs_decompress(c), w)


class TestBcsAccounting:
    def test_index_byte_msb_is_sign_column(self):
        # A group with a negative member must raise the index MSB.
        c = bcs_compress(np.array([-1, 0, 0, 0], dtype=np.int8), 4)
        assert (int(c.indices[0]) & 0x80) != 0

    def test_positive_only_group_has_clear_msb(self):
        c = bcs_compress(np.array([1, 2, 3, 4], dtype=np.int8), 4)
        assert (int(c.indices[0]) & 0x80) == 0

    def test_index_cost_8_bits_per_group(self):
        c = bcs_compress(np.zeros(64, dtype=np.int8), 16)
        assert c.index_bits == 4 * 8

    def test_payload_counts_nonzero_columns(self):
        # One group of 8 with a single value 1: only the LSB column stored.
        c = bcs_compress(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.int8), 8)
        assert c.payload_bits == 8

    def test_dense_tensor_cr_below_one(self):
        # Index overhead makes the real CR < 1 for incompressible data.
        rng = np.random.default_rng(0)
        w = rng.choice(np.array([-85, 85, -107, 107], dtype=np.int8), 1024)
        assert bcs_compression_ratio(w, 8) < 1.0

    def test_ideal_cr_at_least_real_cr(self, laplacian_int8):
        for g in (8, 16, 32):
            ideal = bcs_compression_ratio(laplacian_int8, g, ideal=True)
            real = bcs_compression_ratio(laplacian_int8, g)
            assert ideal >= real

    def test_ideal_cr_decreases_with_group_size(self, laplacian_int8):
        # Fig. 5: larger groups see fewer co-occurring zero columns.
        crs = [bcs_compression_ratio(laplacian_int8, g, ideal=True)
               for g in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a >= b - 1e-9 for a, b in zip(crs, crs[1:]))

    def test_group1_real_cr_suffers_from_index(self, laplacian_int8):
        # Fig. 5: at G=1 the 8-bit-per-weight index offsets the benefit.
        real_g1 = bcs_compression_ratio(laplacian_int8, 1)
        real_g8 = bcs_compression_ratio(laplacian_int8, 8)
        assert real_g8 > real_g1

    def test_nonzero_column_fraction_bounds(self, laplacian_int8):
        f = 1.0 - column_sparsity(laplacian_int8, 16, "sm")
        assert 0.0 < f < 1.0


class TestZre:
    def test_all_zero(self):
        # 16 zeros with 4-bit runs: one escape entry covers 16 zeros.
        cr = zre_compression_ratio(np.zeros(16, dtype=np.int8))
        assert cr == (16 * 8) / 12.0

    def test_dense_worse_than_one(self):
        cr = zre_compression_ratio(np.ones(64, dtype=np.int8))
        assert cr < 1.0

    def test_sparse_beats_dense(self):
        sparse = np.zeros(64, dtype=np.int8)
        sparse[::16] = 7
        assert zre_compression_ratio(sparse) > zre_compression_ratio(
            np.ones(64, dtype=np.int8))

    def test_long_run_escapes_counted(self):
        # 100 zeros then one value: runs force escape entries.
        w = np.zeros(101, dtype=np.int8)
        w[-1] = 3
        cr_long = zre_compression_ratio(w)
        w_short = np.zeros(9, dtype=np.int8)
        w_short[-1] = 3
        cr_short = zre_compression_ratio(w_short)
        assert cr_long > cr_short  # still compresses better overall

    def test_ideal_geq_real(self, laplacian_int8):
        assert zre_compression_ratio(laplacian_int8, ideal=True) >= \
            zre_compression_ratio(laplacian_int8)

    def test_empty(self):
        assert zre_compression_ratio(np.array([], dtype=np.int8)) == 1.0


class TestCsr:
    def test_dense_overhead(self):
        cr = csr_compression_ratio(np.ones(128, dtype=np.int8))
        assert cr < 1.0

    def test_highly_sparse_compresses(self):
        w = np.zeros(1024, dtype=np.int8)
        w[::64] = 5
        assert csr_compression_ratio(w) > 3.0

    def test_ideal_geq_real(self, laplacian_int8):
        assert csr_compression_ratio(laplacian_int8, ideal=True) >= \
            csr_compression_ratio(laplacian_int8)

    def test_empty(self):
        assert csr_compression_ratio(np.array([], dtype=np.int8)) == 1.0


class TestBcsVsValueSparsityBaselines:
    def test_bcs_wins_at_low_value_sparsity(self, laplacian_int8):
        """Fig. 5's headline: at low value sparsity BCS-compression beats
        ZRE and CSR, which pay index costs for scarce zero values."""
        bcs = bcs_compression_ratio(laplacian_int8, 8)
        assert bcs > zre_compression_ratio(laplacian_int8)
        assert bcs > csr_compression_ratio(laplacian_int8)
