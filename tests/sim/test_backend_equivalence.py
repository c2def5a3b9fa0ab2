"""The plane-GEMM datapath against the column-serial oracle
(:mod:`datapath_reference`): bit-identical outputs, identical
cycle/traffic/column accounting (equal to the counters-only entry's),
and LUT-vs-scalar parser agreement."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datapath_reference import ReferenceNPU, ReferenceParser, arch_with
from repro.sim.bce import BitPlaneEngine
from repro.sim.npu import BitWaveNPU, MatmulCounters
from repro.sim.zcip import (
    MAGNITUDE_COLUMNS_LUT,
    PLANE_SELECT_LUT,
    SIGN_REQUEST_LUT,
    SYNC_COUNTER_LUT,
    ZeroColumnIndexParser,
    dense_plane_select,
)


def _weights(k, c, seed=0):
    rng = np.random.default_rng(seed)
    w = np.clip(np.round(rng.laplace(0, 12, (k, c))), -128, 127)
    return w.astype(np.int8)


def _acts(n, c, seed=1, low=-128, high=128):
    rng = np.random.default_rng(seed)
    return rng.integers(low, high, (n, c)).astype(np.int64)


def _pair(**fields):
    arch = arch_with(**fields)
    return ReferenceNPU(arch), BitWaveNPU(arch)


def _counters(run):
    """The counters half of a :class:`LayerRun`."""
    return MatmulCounters(**{field.name: getattr(run, field.name)
                             for field in fields(MatmulCounters)})


def assert_counted_like(runs, weights, contexts, **fields):
    """The counters-only entry reports every run's counters."""
    counted = BitWaveNPU(arch_with(**fields)).matmul_counters(
        weights, contexts)
    for run in runs:
        assert counted == _counters(run)


def assert_equivalent_fc(weights, acts, **fields):
    ref_npu, vec_npu = _pair(**fields)
    ref = ref_npu.run_fc(weights, acts)
    vec = vec_npu.run_fc(weights, acts)
    np.testing.assert_array_equal(ref.outputs, vec.outputs)
    assert ref.compute_cycles == vec.compute_cycles
    assert ref.fetch_cycles == vec.fetch_cycles
    assert ref.column_ops == vec.column_ops
    assert ref.weight_bits_fetched == vec.weight_bits_fetched
    assert ref.dense_weight_bits == vec.dense_weight_bits
    assert ref.energy == vec.energy
    assert_counted_like((ref, vec), weights, acts.shape[0], **fields)
    return ref, vec


class TestLutAgainstScalarParser:
    def test_all_256_bytes(self):
        parser = ReferenceParser()
        for byte in range(256):
            parsed = parser.parse(byte)
            assert SIGN_REQUEST_LUT[byte] == parsed.sign_request
            assert MAGNITUDE_COLUMNS_LUT[byte] == len(parsed.shifts)
            assert SYNC_COUNTER_LUT[byte] == parsed.sync_counter
            selected = {7 - s for s in parsed.shifts}
            if parsed.sign_request:
                selected.add(0)
            assert set(np.flatnonzero(PLANE_SELECT_LUT[byte])) == selected

    def test_luts_are_read_only(self):
        with pytest.raises(ValueError):
            SYNC_COUNTER_LUT[0] = 99

    @pytest.mark.parametrize("precision", range(1, 9))
    def test_dense_schedule_matches_scalar_parser(self, precision):
        parser = ReferenceParser(dense_precision=precision)
        parsed = parser.parse(0x00)
        select = dense_plane_select(precision)
        assert select[0]  # sign plane always streams in dense mode
        assert set(np.flatnonzero(select[1:]) + 1) == {
            7 - s for s in parsed.shifts}
        batch = parser.parse_array(np.zeros((3, 2), dtype=np.uint8))
        assert batch.sync_counters.tolist() == [[precision] * 2] * 3
        assert batch.magnitude_columns.tolist() == [[precision - 1] * 2] * 3

    def test_parse_array_matches_parse_elementwise(self):
        rng = np.random.default_rng(7)
        index_bytes = rng.integers(0, 256, (5, 9)).astype(np.uint8)
        parser = ReferenceParser()
        batch = parser.parse_array(index_bytes)
        for pos, byte in np.ndenumerate(index_bytes):
            parsed = parser.parse(int(byte))
            assert batch.sign_requests[pos] == parsed.sign_request
            assert batch.sync_counters[pos] == parsed.sync_counter
            assert batch.magnitude_columns[pos] == len(parsed.shifts)

    def test_parse_array_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ZeroColumnIndexParser().parse_array(np.array([0, 300]))


class TestBackendEquivalence:
    @given(k=st.integers(1, 24), c=st.integers(1, 48),
           n=st.integers(1, 8), g=st.sampled_from([1, 4, 8, 13]))
    @settings(max_examples=30, deadline=None)
    def test_random_shapes_and_group_sizes(self, k, c, n, g):
        w = _weights(k, c, seed=k * 1000 + c)
        a = _acts(n, c, seed=n + 17)
        assert_equivalent_fc(w, a, group_size=g)

    @pytest.mark.parametrize("precision", range(1, 9))
    def test_dense_mode_precisions(self, precision):
        w = _weights(12, 40, seed=precision)
        a = _acts(3, 40, seed=precision + 50)
        ref, _ = assert_equivalent_fc(
            w, a, group_size=8, columns="dense", dense_precision=precision)
        if precision == 8:
            expected = a.astype(np.int64) @ w.astype(np.int64).T
            np.testing.assert_array_equal(ref.outputs, expected)

    def test_padding_edge_cases(self):
        # C not a multiple of G on both sides of the group boundary.
        for c in (1, 7, 9, 13):
            assert_equivalent_fc(_weights(5, c, seed=c), _acts(2, c),
                                 group_size=8)
        # K not a multiple of the 8-kernel segment.
        assert_equivalent_fc(_weights(9, 16, seed=3), _acts(2, 16))

    def test_degenerate_inputs(self):
        assert_equivalent_fc(_weights(1, 1), _acts(1, 1), group_size=1)
        ref, vec = assert_equivalent_fc(
            np.zeros((4, 16), dtype=np.int8), _acts(2, 16))
        assert ref.compute_cycles == 0
        assert ref.column_ops == 0
        np.testing.assert_array_equal(vec.outputs, np.zeros((2, 4)))

    def test_saturated_minus_128_weights(self):
        w = np.full((4, 16), -128, dtype=np.int8)
        assert_equivalent_fc(w, _acts(2, 16))

    def test_huge_activations_use_exact_fallback(self):
        # Beyond the float64-exact bound the GEMM falls back to int64
        # (modular, like the reference accumulator).
        rng = np.random.default_rng(11)
        w = rng.integers(-127, 128, (6, 16)).astype(np.int8)
        a = rng.integers(-(2 ** 62), 2 ** 62, (2, 16)).astype(np.int64)
        assert_equivalent_fc(w, a)

    def test_oxu_serialization_identical(self):
        w = _weights(8, 32)
        for n in (15, 16, 17, 33):
            assert_equivalent_fc(w, _acts(n, 32), oxu=16)

    def test_conv_backends_identical(self):
        rng = np.random.default_rng(5)
        w = np.clip(np.round(rng.laplace(0, 10, (6, 5, 3, 3))),
                    -127, 127).astype(np.int8)
        x = rng.integers(-20, 20, (2, 5, 7, 7)).astype(np.int32)
        ref = ReferenceNPU().run_conv(w, x, stride=2, padding=1)
        vec = BitWaveNPU().run_conv(w, x, stride=2, padding=1)
        np.testing.assert_array_equal(ref.outputs, vec.outputs)
        assert ref.compute_cycles == vec.compute_cycles
        assert ref.fetch_cycles == vec.fetch_cycles
        assert ref.column_ops == vec.column_ops
        # The im2col matrix over (2 images x 4 x 4 outputs) contexts.
        w_mat = w.transpose(0, 2, 3, 1).reshape(6, -1)
        assert_counted_like((ref, vec), w_mat, 2 * 4 * 4)


class TestBitPlaneEngine:
    def test_group_size_mismatch(self):
        engine = BitPlaneEngine(8)
        with pytest.raises(ValueError, match="activations"):
            engine.process_layer(
                np.ones((1, 1, 4)), np.zeros((1, 1, 8, 4)),
                np.zeros((1, 1, 4)))

    def test_matches_plain_matmul(self):
        w = _weights(6, 24, seed=9)
        a = _acts(3, 24, seed=10)
        run = BitWaveNPU().run_fc(w, a)
        np.testing.assert_array_equal(
            run.outputs, a.astype(np.int64) @ w.astype(np.int64).T)
