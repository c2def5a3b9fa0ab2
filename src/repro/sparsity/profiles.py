"""Network-level sparsity profiles (cached).

Profiles are kept per layer, keyed by the layer's weight identity
(:func:`repro.workloads.synthetic.weight_identity`: the fields its
synthetic weights are drawn from), so a process profiles a set of
weights at most once.  Layers that differ only in batch, output size
or input sparsity -- ``cnn_lstm@frames=64`` against ``cnn_lstm``, a
``batch=4`` spec, ``bert_base@tokens=128`` -- share one profile.
``network_weight_stats`` -- the cached per-network entry point that
the accelerator models and the Fig. 1 sparsity study consume -- reads
through that table.

``network_weight_stats`` profiles a network's unprofiled layers one
thread per CPU (:func:`repro.utils.layermap.map_layers`), and serially
inside a pool worker process, whose pool already owns the CPUs.

A caller that profiled layers somewhere else hands the results in with
:func:`install_layer_stats`.  The campaign executor does so: it splits
a cold campaign's layers over its worker pool before the point workers
fork, and those workers inherit the filled table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from repro.sparsity.stats import LayerWeightStats, compute_layer_stats
from repro.utils.layermap import map_layers
from repro.workloads.nets import network_layers
from repro.workloads.spec import LayerSpec
from repro.workloads.synthetic import (
    WeightIdentity,
    synthetic_weights,
    weight_identity,
)

#: Weight identity -> :class:`LayerWeightStats` of every layer this
#: process has profiled or been handed.
_LAYER_STATS: dict[WeightIdentity, LayerWeightStats] = {}


def _profile(spec: LayerSpec) -> LayerWeightStats:
    return compute_layer_stats(synthetic_weights(spec))


def layer_weight_stats(spec: LayerSpec) -> LayerWeightStats:
    """The profile of a layer's synthetic weights, computed on the
    first request for its weight identity only."""
    identity = weight_identity(spec)
    stats = _LAYER_STATS.get(identity)
    if stats is None:
        stats = _LAYER_STATS[identity] = _profile(spec)
    return stats


def unprofiled_layers(networks: Iterable[str]) -> list[LayerSpec]:
    """The layers of ``networks`` whose weight identity is not in the
    table yet, one per identity, in network order and then
    :func:`network_layers` order."""
    layers: dict[WeightIdentity, LayerSpec] = {}
    for network in networks:
        for spec in network_layers(network):
            layers.setdefault(weight_identity(spec), spec)
    return [spec for identity, spec in layers.items()
            if identity not in _LAYER_STATS]


def install_layer_stats(
    profiled: Iterable[tuple[LayerSpec, LayerWeightStats]],
) -> None:
    """Adopt ``(layer, profile)`` pairs computed in another process or
    on the layer map's threads."""
    _LAYER_STATS.update((weight_identity(spec), stats)
                        for spec, stats in profiled)


@lru_cache(maxsize=None)
def network_weight_stats(network: str) -> dict[str, LayerWeightStats]:
    """``layer name -> LayerWeightStats`` for a benchmark network; its
    unprofiled layers are profiled one thread per CPU
    (:func:`~repro.utils.layermap.map_layers`)."""
    pending = unprofiled_layers([network])
    install_layer_stats(zip(pending, map_layers(_profile, pending)))
    return {spec.name: _LAYER_STATS[weight_identity(spec)]
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
