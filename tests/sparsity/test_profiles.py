"""The per-layer profile table is keyed by what the weights are drawn
from, and a profile memoizes its order statistics per instance."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.sparsity import profiles
from repro.sparsity.profiles import (
    layer_weight_stats,
    network_weight_stats,
    unprofiled_layers,
)
from repro.sparsity.stats import compute_layer_stats, expected_max_of_sample
from repro.utils import layermap
from repro.workloads.nets import network_layers
from repro.workloads.spec import LayerSpec
from repro.workloads.synthetic import synthetic_weights, weight_identity


def _forget_profiles() -> None:
    profiles.network_weight_stats.cache_clear()
    profiles._LAYER_STATS.clear()


@pytest.fixture
def weight_draws(monkeypatch):
    """Cold profile caches and a log of ``synthetic_weights`` calls,
    drawn on one thread so the log keeps layer order."""
    _forget_profiles()
    monkeypatch.setattr(layermap, "usable_cpus", lambda: 1)
    drawn: list[LayerSpec] = []
    real = profiles.synthetic_weights

    def logged(spec):
        drawn.append(spec)
        return real(spec)

    monkeypatch.setattr(profiles, "synthetic_weights", logged)
    yield drawn
    _forget_profiles()


def test_identity_is_what_synthetic_weights_reads():
    """Changing any other field leaves the weights bit-identical."""
    spec = network_layers("cnn_lstm")[0]
    identity_fields = {"network", "name", "kind", "k", "c", "fx", "fy"}
    others = {"ox": 7, "oy": 2, "b": 3, "input_value_sparsity": 0.5}
    assert identity_fields | set(others) \
        == {field.name for field in fields(LayerSpec)}
    moved = LayerSpec(**{**{f.name: getattr(spec, f.name)
                            for f in fields(LayerSpec)}, **others})
    assert weight_identity(moved) == weight_identity(spec)
    assert (synthetic_weights(moved) == synthetic_weights(spec)).all()


def test_same_weights_share_one_profile(weight_draws):
    base = network_weight_stats("cnn_lstm")
    assert len(weight_draws) == len(base) == 5
    frames = network_weight_stats("cnn_lstm@frames=64")
    batched = {spec.name: layer_weight_stats(spec)
               for spec in network_layers("cnn_lstm", batch=4)}
    assert len(weight_draws) == 5, "re-drew weights it had profiled"
    for name, stats in base.items():
        assert frames[name] is stats
        assert batched[name] is stats


def test_other_weights_get_their_own_profile(weight_draws):
    base = network_weight_stats("cnn_lstm")
    narrow = network_weight_stats("cnn_lstm@hidden=128")
    # The front-end convs keep their shapes (bins stays 257); the LSTMs
    # and the decoder change theirs.
    assert [spec.name for spec in weight_draws[5:]] \
        == ["LSTM.0", "LSTM.1", "fc"]
    assert narrow["conv.1"] is base["conv.1"]
    assert narrow["LSTM.0"] is not base["LSTM.0"]


def test_unprofiled_layers_dedupe_by_identity(weight_draws):
    layers = unprofiled_layers(["cnn_lstm", "cnn_lstm@frames=64"])
    assert [spec.name for spec in layers] \
        == [spec.name for spec in network_layers("cnn_lstm")]
    assert all(spec.ox == 16 for spec in layers), "first spelling wins"
    profiles.install_layer_stats(
        (spec, layer_weight_stats(spec)) for spec in layers)
    assert unprofiled_layers(["cnn_lstm@frames=64"]) == []
    assert not weight_draws[len(layers):]


class TestOrderStatisticMemo:
    def test_each_statistic_is_computed_once(self, monkeypatch):
        from repro.sparsity import stats as stats_module

        stats = compute_layer_stats(
            synthetic_weights(network_layers("cnn_lstm")[0]))
        calls = []
        real = stats_module.expected_max_of_sample

        def counted(histogram, m):
            calls.append(m)
            return real(histogram, m)

        monkeypatch.setattr(stats_module, "expected_max_of_sample", counted)
        for _ in range(3):
            stats.expected_max_nz_columns(8, 8)
            stats.expected_max_nz_columns(16, 4)
            stats.expected_max_essential_bits(16)
        assert calls == [8, 4, 16]

    def test_memo_returns_the_computed_value(self):
        stats = layer_weight_stats(network_layers("cnn_lstm")[0])
        first = stats.expected_max_nz_columns(8, 8)
        assert first == expected_max_of_sample(stats.nz_column_hists[8], 8)
        assert stats.expected_max_nz_columns(8, 8) == first
        bits = stats.expected_max_essential_bits(16)
        assert bits == expected_max_of_sample(stats.essential_bits_hist, 16)
        # The two histograms never share an entry.
        assert stats.expected_max_nz_columns(8, 16) \
            == expected_max_of_sample(stats.nz_column_hists[8], 16)

    def test_bitflip_starts_a_fresh_memo(self):
        stats = layer_weight_stats(network_layers("cnn_lstm")[2])
        stats.expected_max_nz_columns(8, 8)
        flipped = stats.with_bitflip(5)
        assert flipped.expected_max_nz_columns(8, 8) \
            == expected_max_of_sample(flipped.nz_column_hists[8], 8)
        assert flipped.expected_max_nz_columns(8, 8) \
            != stats.expected_max_nz_columns(8, 8)
