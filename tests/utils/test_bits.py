"""Tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.bits import (
    BLOCK,
    byte_histogram,
    pack_bits,
    popcount8,
    unpack_bits,
)


class TestUnpackBits:
    def test_single_value_msb_first(self):
        planes = unpack_bits(np.array([0b1000_0001], dtype=np.uint8))
        assert planes.tolist() == [[1, 0, 0, 0, 0, 0, 0, 1]]

    def test_zero(self):
        assert unpack_bits(np.array([0], dtype=np.uint8)).sum() == 0

    def test_all_ones(self):
        assert unpack_bits(np.array([255], dtype=np.uint8)).sum() == 8

    def test_shape_appends_axis(self):
        values = np.zeros((3, 5), dtype=np.uint8)
        assert unpack_bits(values).shape == (3, 5, 8)

    def test_known_pattern(self):
        planes = unpack_bits(np.array([0b0101_1010], dtype=np.uint8))
        assert planes.tolist() == [[0, 1, 0, 1, 1, 0, 1, 0]]


class TestPackBits:
    def test_roundtrip_arbitrary(self):
        values = np.arange(256, dtype=np.uint8)
        assert np.array_equal(pack_bits(unpack_bits(values)), values)

    def test_rejects_wrong_trailing_axis(self):
        with pytest.raises(ValueError, match="trailing axis"):
            pack_bits(np.zeros((4, 7), dtype=np.uint8))

    @given(arrays(np.uint8, st.integers(0, 64)))
    def test_roundtrip_property(self, values):
        assert np.array_equal(pack_bits(unpack_bits(values)), values)


class TestPopcount8:
    def test_matches_python_bin(self):
        values = np.arange(256, dtype=np.uint8)
        expected = [bin(v).count("1") for v in range(256)]
        assert popcount8(values).tolist() == expected

    def test_preserves_shape(self):
        assert popcount8(np.zeros((2, 3), dtype=np.uint8)).shape == (2, 3)


class TestByteHistogram:
    def test_every_byte_value_matches_bincount(self):
        # Each of the 256 values, spread over several blocks.
        values = np.tile(np.arange(256, dtype=np.uint8),
                         3 * BLOCK // 256 + 7)
        np.random.default_rng(0).shuffle(values)
        got = byte_histogram(values, minlength=256)
        want = np.bincount(values, minlength=256)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("top", [0, 1, 8, 255])
    @pytest.mark.parametrize("minlength", [0, 9, 256])
    def test_length_follows_bincount(self, top, minlength):
        values = np.array([0, top, top // 2], dtype=np.uint8)
        want = np.bincount(values, minlength=minlength)
        assert np.array_equal(byte_histogram(values, minlength), want)

    def test_empty_and_shaped_input(self):
        empty = np.zeros(0, dtype=np.uint8)
        assert np.array_equal(byte_histogram(empty, 9),
                              np.bincount(empty, minlength=9))
        square = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert np.array_equal(byte_histogram(square),
                              np.bincount(square.reshape(-1)))
