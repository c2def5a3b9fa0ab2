"""Tests for the ZCIP parser, the SMM and the BCE pipeline, on the
column-serial reference datapath."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from datapath_reference import (
    BitColumnEngine,
    ParsedIndex,
    ReferenceParser,
    smm_column_sum,
    smm_partial_products,
)
from repro.core.compression import bcs_compress
from repro.sim.zcip import ZeroColumnIndexParser


class TestZcip:
    def test_zero_index_is_empty_group(self):
        parsed = ReferenceParser().parse(0x00)
        assert not parsed.sign_request
        assert parsed.shifts == ()
        assert parsed.sync_counter == 0

    def test_msb_is_sign_request(self):
        parsed = ReferenceParser().parse(0x80)
        assert parsed.sign_request
        assert parsed.shifts == ()
        assert parsed.sync_counter == 1

    def test_shift_order_msb_first(self):
        # Index 0b0100_0101: magnitude columns at significances 6, 2, 0.
        parsed = ReferenceParser().parse(0b0100_0101)
        assert parsed.shifts == (6, 2, 0)

    def test_full_index(self):
        parsed = ReferenceParser().parse(0xFF)
        assert parsed.sign_request
        assert parsed.shifts == (6, 5, 4, 3, 2, 1, 0)
        assert parsed.sync_counter == 8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ReferenceParser().parse(256)

    def test_matches_bcs_compression_indices(self):
        """The parser must agree with the compressor's accounting."""
        rng = np.random.default_rng(5)
        w = rng.integers(-127, 128, 64).astype(np.int8)
        w[w == -128] = -127
        compressed = bcs_compress(w, 8)
        parser = ReferenceParser()
        total_columns = sum(
            parser.parse(int(b)).sync_counter for b in compressed.indices)
        # Payload columns + sign columns = total non-zero columns.
        assert total_columns * 8 == compressed.payload_bits

    def test_dense_mode_ignores_index(self):
        parser = ReferenceParser(dense_precision=8)
        parsed = parser.parse(0x00)
        assert parsed.shifts == (6, 5, 4, 3, 2, 1, 0)
        assert parsed.sync_counter == 8

    def test_dense_mode_reduced_precision(self):
        parser = ReferenceParser(dense_precision=4)
        parsed = parser.parse(0xFF)
        assert parsed.shifts == (2, 1, 0)
        assert parsed.sync_counter == 4

    def test_dense_mode_validates_precision(self):
        with pytest.raises(ValueError, match="precision"):
            ZeroColumnIndexParser(dense_precision=9)


class TestSmm:
    def test_bit_gates_product(self):
        acts = np.array([3, -5, 7, 2])
        bits = np.array([1, 0, 1, 0])
        signs = np.array([0, 0, 1, 1])
        products = smm_partial_products(acts, bits, signs)
        assert products.tolist() == [3, 0, -7, 0]

    def test_sign_rules(self):
        # (act sign, weight sign) -> product sign.
        acts = np.array([5, 5, -5, -5])
        bits = np.ones(4, dtype=int)
        signs = np.array([0, 1, 0, 1])
        products = smm_partial_products(acts, bits, signs)
        assert products.tolist() == [5, -5, -5, 5]

    def test_column_sum(self):
        acts = np.array([1, 2, 3, 4])
        bits = np.array([1, 1, 1, 1])
        signs = np.array([0, 1, 0, 1])
        assert smm_column_sum(acts, bits, signs) == 1 - 2 + 3 - 4

    def test_batched(self):
        acts = np.array([[1, 2], [3, 4]])
        bits = np.array([1, 1])
        signs = np.array([0, 0])
        assert smm_column_sum(acts, bits, signs).tolist() == [3, 7]


class TestBce:
    def _run_group(self, weights, acts):
        """Process one weight group through ZCIP + BCE."""
        from repro.core.signmag import sm_bitplanes

        weights = np.asarray(weights, dtype=np.int8)
        g = len(weights)
        planes = sm_bitplanes(weights[None, :], saturate=True)[0]  # (G, 8)
        planes = planes.T  # (8, G)
        nz = planes.any(axis=1)
        index = int((nz * (1 << np.arange(7, -1, -1))).sum())
        parser = ReferenceParser()
        parsed = parser.parse(index)
        columns = planes[[7 - s for s in parsed.shifts], :]
        engine = BitColumnEngine(g)
        out = engine.process_group(np.asarray(acts), columns,
                                   planes[0], parsed)
        return out, engine

    def test_dot_product_exact(self):
        weights = np.array([3, -5, 0, 7], dtype=np.int8)
        acts = np.array([10, -2, 99, 1])
        out, _ = self._run_group(weights, acts)
        assert int(out) == int(np.dot(weights.astype(int), acts))

    @given(arrays(np.int8, 8, elements=st.integers(-127, 127)),
           arrays(np.int64, 8, elements=st.integers(-128, 127)))
    @settings(max_examples=50, deadline=None)
    def test_dot_product_property(self, weights, acts):
        out, _ = self._run_group(weights, acts)
        assert int(out) == int(np.dot(weights.astype(np.int64), acts))

    def test_cycles_equal_nonzero_columns(self):
        weights = np.array([1, 2, 4, -8], dtype=np.int8)
        acts = np.ones(4, dtype=np.int64)
        _, engine = self._run_group(weights, acts)
        # Magnitude columns 1,2,4,8 all distinct non-zero + sign column.
        assert engine.cycles == 5
        assert engine.column_ops == 4

    def test_zero_group_costs_nothing(self):
        weights = np.zeros(4, dtype=np.int8)
        acts = np.ones(4, dtype=np.int64)
        out, engine = self._run_group(weights, acts)
        assert int(out) == 0
        assert engine.cycles == 0

    def test_batch_contexts_share_cycles(self):
        """Spatially-parallel contexts don't add cycles (OXu lanes)."""
        weights = np.array([3, -5, 0, 7], dtype=np.int8)
        acts = np.arange(12).reshape(3, 4)
        out, engine = self._run_group(weights, acts)
        expected = acts @ weights.astype(np.int64)
        assert out.tolist() == expected.tolist()
        single_engine_cycles = engine.cycles
        _, engine2 = self._run_group(weights, acts[0])
        assert single_engine_cycles == engine2.cycles

    def test_group_size_mismatch(self):
        engine = BitColumnEngine(8)
        with pytest.raises(ValueError, match="activations"):
            engine.process_group(
                np.ones(4), np.zeros((0, 4)), np.zeros(4),
                ParsedIndex(False, (), 0))

    def test_column_shift_mismatch(self):
        engine = BitColumnEngine(4)
        with pytest.raises(ValueError, match="shifts"):
            engine.process_group(
                np.ones(4), np.zeros((2, 4)), np.zeros(4),
                ParsedIndex(False, (0,), 1))
