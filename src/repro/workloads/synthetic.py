"""Synthetic Int8 weights with pretrained-network statistics.

The sparsity, compression and accelerator experiments need the weight
*bit patterns* of the four benchmarks.  Pretrained checkpoints are not
available offline; instead we sample float weights from fan-in-scaled
Gaussians with a small exact-zero fraction (the DESIGN.md §2
substitution) and symmetric-quantize to Int8 -- reproducing the
small-magnitude-dominated histograms of the paper's Fig. 4(b).

Weights are laid out group-axis style (input channels innermost),
matching :meth:`repro.nn.layers.Conv2d.packed_weights`.
"""

from __future__ import annotations

import numpy as np

from repro.quant.quantizer import quantize_symmetric
from repro.utils.bits import BLOCK
from repro.utils.rng import seeded_rng
from repro.workloads.spec import LayerSpec

#: Fraction of exact zeros injected before quantization, mimicking the
#: dead weights of pretrained Int8 networks (Fig. 1 value sparsity).
ZERO_FRACTION = 0.04


#: What :func:`synthetic_weights` draws a layer from: ``(network, name,
#: kind, k, c, fx, fy)``.
WeightIdentity = tuple[str, str, str, int, int, int, int]


def weight_identity(spec: LayerSpec) -> WeightIdentity:
    """The fields of ``spec`` that :func:`synthetic_weights` reads.

    Two layers with one identity have bit-identical weights, whatever
    their batch, output size or input sparsity: ``cnn_lstm@frames=64``
    and a ``batch=4`` spec share every layer's weights with
    ``cnn_lstm``.
    """
    return (spec.network, spec.name, spec.kind,
            spec.k, spec.c, spec.fx, spec.fy)


def synthetic_weights(spec: LayerSpec) -> np.ndarray:
    """Deterministic Int8 weights of the layer in group-axis layout.

    Shape is ``(K, FY * FX * C)`` for conv/fc layers and
    ``(K, FY * FX)`` for depthwise layers.
    """
    fan_in = spec.c * spec.fx * spec.fy
    if spec.kind == "dwconv":
        shape = (spec.k, spec.fy * spec.fx)
        fan_in = spec.fx * spec.fy
    else:
        shape = (spec.k, spec.fy * spec.fx * spec.c)
    rng = seeded_rng("weights", spec.network, spec.name)
    std = np.sqrt(2.0 / max(fan_in, 1))
    # Laplacian, not Gaussian: pretrained conv/fc weights are heavy-
    # tailed, so after amax-scaled Int8 quantization most values sit
    # near zero -- the distribution the paper's Fig. 4(b) histogram and
    # Fig. 1 bit-sparsity levels reflect.
    weights = rng.laplace(0.0, std / np.sqrt(2.0), size=shape)
    # The zero mask block by block: the same uniforms in the same
    # order as one ``rng.random(size=shape)``, without a second float64
    # copy of the layer.
    flat = weights.reshape(-1)
    for start in range(0, flat.size, BLOCK):
        block = flat[start:start + BLOCK]
        block[rng.random(size=block.size) < ZERO_FRACTION] = 0.0
    return quantize_symmetric(weights).values
