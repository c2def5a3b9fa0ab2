"""Tests for dense-mode precision scaling and custom-workload evaluation."""

import numpy as np
import pytest

from repro.accelerators.bitwave import BitWave
from repro.accelerators.huaa import HUAA
from repro.eval.backends import model_network_evaluation
from repro.sparsity.stats import compute_layer_stats
from repro.workloads.nets import bert_base_layers
from repro.workloads.spec import LayerSpec


def _stats():
    rng = np.random.default_rng(21)
    w = np.clip(np.round(rng.laplace(0, 9, 4096)), -127, 127)
    return compute_layer_stats(w.astype(np.int8))


def _conv():
    return LayerSpec("t", "n", "conv", k=64, c=64, ox=28, oy=28, fx=3, fy=3)


class TestDensePrecisionScaling:
    def test_precision_sets_cycles_per_group(self):
        acc = BitWave(columns="dense", bitflip=False, dense_precision=4)
        for entry in acc.bw_sus:
            assert acc.cycles_per_group(_stats(), entry) == 4.0

    def test_precision_sets_weight_cr(self):
        acc = BitWave(columns="dense", bitflip=False, dense_precision=2)
        assert acc.weight_cr(_conv(), _stats(), acc.sus[0]) == 4.0

    def test_lower_precision_is_faster(self):
        stats = _stats()
        spec = _conv()
        results = []
        for bits in (8, 4, 2):
            acc = BitWave(columns="dense", bitflip=False,
                          dense_precision=bits)
            su = acc.select_su(spec, stats)
            results.append(acc.compute_cycles(spec, stats, su))
        assert results == sorted(results, reverse=True)

    def test_precision_requires_dense_columns(self):
        with pytest.raises(ValueError, match="dense mode"):
            BitWave(columns="sm", bitflip=False, dense_precision=4)

    def test_invalid_precision(self):
        with pytest.raises(ValueError, match="dense_precision"):
            BitWave(columns="dense", bitflip=False, dense_precision=0)

    def test_full_precision_default_unchanged(self):
        dense = BitWave(columns="dense", bitflip=False)
        assert dense.dense_precision == 8
        assert dense.weight_cr(_conv(), _stats(), dense.sus[0]) == 1.0


class TestEvaluateWorkload:
    def test_custom_token_count(self):
        stats = HUAA().layer_stats("bert_base")
        small = HUAA().evaluate_workload(
            bert_base_layers(tokens=4), stats, "bert@4")
        large = HUAA().evaluate_workload(
            bert_base_layers(tokens=64), stats, "bert@64")
        assert large.total_macs == 16 * small.total_macs
        assert large.total_cycles > small.total_cycles
        assert small.network == "bert@4"

    def test_workload_label_propagates(self):
        stats = HUAA().layer_stats("bert_base")
        ev = HUAA().evaluate_workload(
            bert_base_layers(tokens=4)[:2], stats, "slice")
        assert ev.network == "slice"
        assert len(ev.layers) == 2

    def test_evaluate_network_is_workload_of_full_table(self):
        a = model_network_evaluation(HUAA(), "cnn_lstm")
        from repro.workloads.nets import network_layers

        b = HUAA().evaluate_workload(
            network_layers("cnn_lstm"), HUAA().layer_stats("cnn_lstm"),
            "cnn_lstm")
        assert a.total_cycles == b.total_cycles
        assert a.total_energy_pj == b.total_energy_pj
