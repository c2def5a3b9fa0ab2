"""The synthetic weights every profile, figure and simulation reads are
pinned bit for bit: drawing or quantizing them another way must not
move a single weight."""

from __future__ import annotations

import hashlib

from repro.workloads.nets import network_layers
from repro.workloads.synthetic import synthetic_weights

#: sha256 over every layer of the three networks below: each layer's
#: ``network/name:dtype:shape`` then its bytes, in network order.
WEIGHTS_SHA256 = \
    "a9eba3e0d2e2f7006e9dba1528c73f787e0c3b762afd85545d3ce788b7b04644"


def test_every_layers_weights_are_pinned():
    digest = hashlib.sha256()
    layers = 0
    for network in ("cnn_lstm", "mobilenetv2", "resnet18"):
        for spec in network_layers(network):
            weights = synthetic_weights(spec)
            digest.update(f"{network}/{spec.name}:{weights.dtype}:"
                          f"{weights.shape}".encode())
            digest.update(weights.tobytes())
            layers += 1
    assert layers == 79
    assert digest.hexdigest() == WEIGHTS_SHA256
