"""Tests for the top-level NPU simulator: bit-exactness and cycles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from datapath_reference import arch_with
from repro.sim.npu import BitWaveNPU


def _weights(k, c, seed=0):
    rng = np.random.default_rng(seed)
    w = np.clip(np.round(rng.laplace(0, 12, (k, c))), -127, 127)
    return w.astype(np.int8)


def _acts(n, c, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(-128, 128, (n, c)).astype(np.int32)


class TestRunFc:
    def test_bit_exact_vs_matmul(self):
        w = _weights(16, 64)
        a = _acts(4, 64)
        run = BitWaveNPU().run_fc(w, a)
        expected = a.astype(np.int64) @ w.astype(np.int64).T
        assert np.array_equal(run.outputs, expected)

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 6),
           st.sampled_from([8, 16]))
    @settings(max_examples=20, deadline=None)
    def test_bit_exact_property(self, k, c, n, g):
        w = _weights(k, c, seed=k * 100 + c)
        a = _acts(n, c, seed=n)
        run = BitWaveNPU(arch_with(group_size=g)).run_fc(w, a)
        expected = a.astype(np.int64) @ w.astype(np.int64).T
        assert np.array_equal(run.outputs, expected)

    def test_unpadded_group_boundary(self):
        # C not a multiple of G exercises the zero-padding path.
        w = _weights(8, 13)
        a = _acts(2, 13)
        run = BitWaveNPU().run_fc(w, a)
        expected = a.astype(np.int64) @ w.astype(np.int64).T
        assert np.array_equal(run.outputs, expected)

    def test_rejects_float_activations(self):
        with pytest.raises(TypeError, match="integer"):
            BitWaveNPU().run_fc(_weights(4, 8), np.ones((2, 8)))

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError, match="activation width"):
            BitWaveNPU().run_fc(_weights(4, 8), _acts(2, 16))

    def test_compression_ratio_above_one_for_real_weights(self):
        run = BitWaveNPU().run_fc(_weights(32, 128), _acts(1, 128))
        assert run.compression_ratio > 1.0

    def test_sparse_weights_cost_fewer_cycles(self):
        w_dense = _weights(16, 64)
        w_sparse = w_dense.copy()
        w_sparse[np.abs(w_sparse) < 20] = 0
        a = _acts(4, 64)
        dense_run = BitWaveNPU().run_fc(w_dense, a)
        sparse_run = BitWaveNPU().run_fc(w_sparse, a)
        assert sparse_run.compute_cycles < dense_run.compute_cycles

    def test_dense_mode_same_outputs_more_cycles(self):
        w = _weights(16, 64)
        a = _acts(2, 64)
        sparse = BitWaveNPU().run_fc(w, a)
        dense = BitWaveNPU(arch_with(columns="dense")).run_fc(w, a)
        assert np.array_equal(sparse.outputs, dense.outputs)
        assert dense.compute_cycles >= sparse.compute_cycles

    def test_more_output_contexts_than_oxu_serialize(self):
        w = _weights(8, 32)
        npu = BitWaveNPU(arch_with(oxu=16))
        few = npu.run_fc(w, _acts(16, 32))
        many = npu.run_fc(w, _acts(32, 32))
        assert many.compute_cycles == 2 * few.compute_cycles


class TestRunConv:
    def test_bit_exact_vs_reference_conv(self):
        rng = np.random.default_rng(3)
        w = np.clip(np.round(rng.laplace(0, 10, (4, 3, 3, 3))),
                    -127, 127).astype(np.int8)
        x = rng.integers(-10, 10, (2, 3, 6, 6)).astype(np.int32)
        run = BitWaveNPU().run_conv(w, x, stride=1, padding=1)
        from repro.nn import functional as F

        expected = F.conv2d(x.astype(np.float64), w.astype(np.float64),
                            stride=1, padding=1)
        assert np.array_equal(run.outputs, expected.astype(np.int64))

    def test_strided(self):
        rng = np.random.default_rng(4)
        w = rng.integers(-20, 20, (2, 4, 3, 3)).astype(np.int8)
        x = rng.integers(-5, 5, (1, 4, 9, 9)).astype(np.int32)
        run = BitWaveNPU().run_conv(w, x, stride=2, padding=1)
        from repro.nn import functional as F

        expected = F.conv2d(x.astype(np.float64), w.astype(np.float64),
                            stride=2, padding=1)
        assert np.array_equal(run.outputs, expected.astype(np.int64))

    def test_output_shape(self):
        w = _weights(8, 4 * 9).reshape(8, 4, 3, 3)
        x = np.zeros((1, 4, 8, 8), dtype=np.int32)
        run = BitWaveNPU().run_conv(w, x, stride=1, padding=1)
        assert run.outputs.shape == (1, 8, 8, 8)


class TestSimulatorValidatesAnalyticalModel:
    """The paper validates its model against RTL at <6% deviation
    (Section V-B); we validate the analytical compute-cycle model
    against the structural simulator the same way."""

    @pytest.mark.parametrize("k,c,n", [(32, 64, 16), (64, 128, 16),
                                       (16, 256, 8)])
    def test_compute_cycles_within_6_percent(self, k, c, n):
        from repro.sparsity.stats import compute_layer_stats

        w = _weights(k, c, seed=k + c)
        a = _acts(n, c, seed=n)
        npu = BitWaveNPU(arch_with(group_size=8, ku=32, oxu=16))
        run = npu.run_fc(w, a)

        stats = compute_layer_stats(w)
        # Analytical: one segment (8 kernels x one C-slice) costs the
        # expected max sync counter; Ku/8 segment streams run in
        # parallel; output contexts beyond OXu serialize.
        sync = 8  # 64-bit segment / G=8
        cpm = stats.expected_max_nz_columns(8, sync)
        n_segments = -(-k // 8) * -(-c // 8)
        contexts = -(-n // 16)
        streams = 32 // 8
        analytic = n_segments * cpm / streams * contexts
        deviation = abs(run.compute_cycles - analytic) / run.compute_cycles
        assert deviation < 0.06
