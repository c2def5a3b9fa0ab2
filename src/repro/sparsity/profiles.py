"""Network-level sparsity profiles (cached).

Profiles are kept per layer: one table maps each :class:`LayerSpec` to
the :class:`LayerWeightStats` of its synthetic weights, so a process
profiles a layer at most once.  ``network_weight_stats`` -- the cached
per-network entry point that the accelerator models and the Fig. 1
sparsity study consume -- reads through that table.

A caller that profiled layers somewhere else hands the results in with
:func:`install_layer_stats`.  The campaign executor does so: it splits
a cold campaign's layers over its worker pool before the point workers
fork, and those workers inherit the filled table.  This module itself
knows nothing of processes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from repro.sparsity.stats import LayerWeightStats, compute_layer_stats
from repro.workloads.nets import network_layers
from repro.workloads.spec import LayerSpec
from repro.workloads.synthetic import synthetic_weights

#: ``LayerSpec -> LayerWeightStats`` of every layer this process has
#: profiled or been handed.
_LAYER_STATS: dict[LayerSpec, LayerWeightStats] = {}


def layer_weight_stats(spec: LayerSpec) -> LayerWeightStats:
    """The profile of a layer's synthetic weights, computed on its
    first request only."""
    stats = _LAYER_STATS.get(spec)
    if stats is None:
        stats = compute_layer_stats(synthetic_weights(spec))
        _LAYER_STATS[spec] = stats
    return stats


def unprofiled_layers(networks: Iterable[str]) -> list[LayerSpec]:
    """The layers of ``networks`` that are not in the table yet, once
    each, in network order and then :func:`network_layers` order."""
    layers = dict.fromkeys(
        spec for network in networks for spec in network_layers(network))
    return [spec for spec in layers if spec not in _LAYER_STATS]


def install_layer_stats(
    profiled: Iterable[tuple[LayerSpec, LayerWeightStats]],
) -> None:
    """Adopt ``(layer, profile)`` pairs computed in another process."""
    _LAYER_STATS.update(profiled)


@lru_cache(maxsize=None)
def network_weight_stats(network: str) -> dict[str, LayerWeightStats]:
    """``layer name -> LayerWeightStats`` for a benchmark network."""
    return {spec.name: layer_weight_stats(spec)
            for spec in network_layers(network)}


def sparsity_summary(network: str) -> dict[str, float]:
    """Weight-count-weighted network sparsity numbers (one Fig. 1 group).

    Returns value sparsity, 2C and SM bit sparsity, plus the paper's
    ``SR`` ratios (bit sparsity / value sparsity) for both formats.
    """
    stats = network_weight_stats(network)
    total = sum(s.weight_count for s in stats.values())
    value = sum(s.value_sparsity * s.weight_count for s in stats.values()) / total
    bit_2c = sum(
        s.bit_sparsity_2c * s.weight_count for s in stats.values()) / total
    bit_sm = sum(
        s.bit_sparsity_sm * s.weight_count for s in stats.values()) / total
    return {
        "value_sparsity": value,
        "bit_sparsity_2c": bit_2c,
        "bit_sparsity_sm": bit_sm,
        "sr_2c": bit_2c / value if value else float("inf"),
        "sr_sm": bit_sm / value if value else float("inf"),
    }
