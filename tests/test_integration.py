"""Cross-module integration tests: the full offline-to-silicon story.

Each test exercises a complete user journey spanning several packages,
mirroring how the paper's system would be used end to end.
"""

import numpy as np
import pytest

from repro.core.bitflip import flip_layer
from repro.core.compression import bcs_compress, bcs_decompress
from repro.core.pipeline import BitWavePipeline
from repro.models import build_cnn_lstm
from repro.models.fidelity import make_evaluator
from datapath_reference import arch_with
from repro.sim.npu import BitWaveNPU


class TestFlipCompressDeploySimulate:
    """Int8 weights -> Bit-Flip -> BCS compress -> simulate the NPU on
    the compressed network -> outputs match the flipped weights."""

    def test_end_to_end(self):
        rng = np.random.default_rng(42)
        weights = np.clip(np.round(rng.laplace(0, 10, (16, 64))),
                          -127, 127).astype(np.int8)
        acts = rng.integers(-64, 64, (4, 64)).astype(np.int32)

        flipped = flip_layer(weights, 5, 16).weights
        compressed = bcs_compress(flipped, 16)
        restored = bcs_decompress(compressed)
        assert np.array_equal(restored, flipped)

        run = BitWaveNPU(arch_with(group_size=16)).run_fc(restored, acts)
        expected = acts.astype(np.int64) @ flipped.astype(np.int64).T
        assert np.array_equal(run.outputs, expected)

    def test_flip_reduces_both_cycles_and_bits(self):
        rng = np.random.default_rng(43)
        weights = np.clip(np.round(rng.laplace(0, 10, (16, 64))),
                          -127, 127).astype(np.int8)
        acts = rng.integers(-64, 64, (4, 64)).astype(np.int32)

        base_run = BitWaveNPU(arch_with(group_size=16)).run_fc(weights, acts)
        flipped = flip_layer(weights, 5, 16).weights
        flip_run = BitWaveNPU(arch_with(group_size=16)).run_fc(flipped, acts)
        assert flip_run.compute_cycles < base_run.compute_cycles
        assert flip_run.weight_bits_fetched < base_run.weight_bits_fetched


class TestModelWeightsThroughPipeline:
    """A real benchmark model's weights flow through the pipeline and
    back into the model with fidelity accounted for."""

    def test_cnn_lstm_roundtrip(self):
        model = build_cnn_lstm("tiny")
        inputs = model.sample_inputs(2)
        evaluate = make_evaluator(model, inputs)
        weights = model.weights_int8()

        pipeline = BitWavePipeline(
            group_size=16,
            zero_column_targets={"LSTM.0": 4, "LSTM.1": 4},
        )
        report = pipeline.deploy(weights)
        assert report.compression_ratio > 1.0

        # Decompressed weights are exactly the flipped weights.
        for name, layer in report.layers.items():
            assert np.array_equal(
                bcs_decompress(layer.compressed), layer.weights)

        # Installing the deployed weights keeps fidelity high.
        fidelity = evaluate(report.flipped_weights())
        assert fidelity > 3.5  # PESQ proxy scale [1, 4.5]

    def test_deeper_flips_trade_fidelity_for_cr(self):
        model = build_cnn_lstm("tiny")
        inputs = model.sample_inputs(2)
        evaluate = make_evaluator(model, inputs)
        weights = model.weights_int8()

        shallow = BitWavePipeline(
            group_size=16,
            zero_column_targets={n: 3 for n in weights}).deploy(weights)
        deep = BitWavePipeline(
            group_size=16,
            zero_column_targets={n: 7 for n in weights}).deploy(weights)
        assert deep.compression_ratio > shallow.compression_ratio
        assert evaluate(deep.flipped_weights()) <= \
            evaluate(shallow.flipped_weights()) + 1e-9


class TestAnalyticalModelConsumesPipelineStats:
    """The accelerator model's Bit-Flip statistics agree with what the
    pipeline actually produces on real tensors."""

    def test_cr_agreement(self):
        from repro.sparsity.stats import compute_layer_stats

        rng = np.random.default_rng(44)
        weights = np.clip(np.round(rng.laplace(0, 10, (64, 256))),
                          -127, 127).astype(np.int8)
        target, g = 5, 16

        stats_cr = compute_layer_stats(weights).with_bitflip(target).bcs_cr[g]
        deployed = BitWavePipeline(
            group_size=g, zero_column_targets={"w": target}).deploy(
                {"w": weights})
        real_cr = deployed.layers["w"].compression_ratio
        # Analytic transform is a (tight) conservative bound.
        assert stats_cr == pytest.approx(real_cr, rel=0.05)
        assert real_cr >= stats_cr * 0.999
