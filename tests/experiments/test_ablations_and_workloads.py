"""Tests for the ablation harness and the Fig. 12 workload table."""

import pytest

from repro.dse.store import ResultStore
from repro.eval import EvalRequest
from repro.experiments import ablations, fig12_workloads


class TestFig12:
    def test_published_budgets(self):
        results = fig12_workloads.run()
        # ResNet18 @224: ~1.8 GMACs / 11.7M params.
        assert results["resnet18"]["gmacs"] == pytest.approx(1.82, rel=0.1)
        assert results["resnet18"]["mparams"] == pytest.approx(11.7, rel=0.05)
        # MobileNetV2 @224: ~0.3 GMACs / 3.4M params.
        assert results["mobilenetv2"]["gmacs"] == pytest.approx(0.31, rel=0.15)
        # BERT-Base encoder: ~85M params.
        assert results["bert_base"]["mparams"] == pytest.approx(85, rel=0.02)

    def test_main_prints(self, capsys):
        fig12_workloads.main()
        assert "GMACs" in capsys.readouterr().out


class TestAblationHarness:
    def test_group_size_keys(self):
        results = ablations.group_size_ablation("cnn_lstm")
        assert set(results) == {8, 16, 32}

    def test_sync_domain_monotone(self):
        results = ablations.sync_domain_ablation(
            "cnn_lstm", domains=(1, 8, 64))
        values = [results[m] for m in (1, 8, 64)]
        assert values == sorted(values)

    def test_dense_precision_endpoints(self, isolated_store):
        results = ablations.dense_precision_ablation(
            "cnn_lstm", precisions=(8, 4))
        assert results[8] == 1.0
        assert results[4] > 1.0

    def test_routed_sweeps_are_stored_evaluations(self, isolated_store):
        ablations.dense_precision_ablation("cnn_lstm", precisions=(4,))
        ablations.dram_bandwidth_ablation("cnn_lstm", widths=(64,))
        store = ResultStore(isolated_store)
        for request in (
                EvalRequest("cnn_lstm", variant="+DF"),
                EvalRequest("cnn_lstm", variant="+DF",
                            arch="bitwave-16nm@dense_precision=4"),
                EvalRequest("cnn_lstm", arch="bitwave-16nm@dram_bits=64")):
            assert store.result(request.key()) is not None, request.label

    def test_bitflip_depth_monotone(self):
        results = ablations.bitflip_depth_ablation(
            "cnn_lstm", targets=(0, 3, 6))
        assert results[0]["speedup"] == pytest.approx(1.0)
        assert results[6]["speedup"] > results[3]["speedup"]
