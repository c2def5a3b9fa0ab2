"""BENCHMARK.json names exactly the metrics the runner prints."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import layers, run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK["per_layer"]]
    assert declared == layers.per_layer_specs()


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_prints_every_end_to_end_metric(workload):
    # Round 1 lands on the higher of two heap footprints.
    rounds = [{"setup_s": 0.2, "wall_s": 5.0 + i,
               "peak_rss_mb": 165.0 if i == 1 else 152.0,
               "latency_ms": [1.0 + j % 7 for j in range(1200)]}
              for i in range(3)]
    metrics, secondary, _ = run.end_to_end(workload, rounds)
    assert set(metrics) == set(run.UNITS)
    assert all(value > 0 for value in metrics.values())
    assert metrics["wall_s"] == 6.0
    assert metrics["peak_rss_mb"] == 152.0
    assert set(secondary) == (set(run.SERVE_UNITS)
                              if workload == "serve-skew" else set())


def test_per_layer_values_cover_every_metric():
    rows = {"sparsity.network_weight_stats": [54, 20.0, 0.1],
            "dse.pool.run": [1, 10.0, 9.0],
            "dse.evaluate_point": [54, 19.0, 0.0]}
    extra = {"sparsity.network_weight_stats.computed": 6.0,
             **{f"sparsity.network_weight_stats.network={n}": 2.0
                for n in ("cnn_lstm", "mobilenetv2", "resnet18")}}
    values = layers.per_layer_values(rows, extra, {"pool_jobs": 2})
    assert set(values) == {name for name, _, _ in layers.per_layer_specs()}
    assert values["sparsity.network_weight_stats.per_network"] == 2.0
    assert values["dse.pool.busy_share"] == 0.95
    assert values["sim.run_fc.calls"] == 0
