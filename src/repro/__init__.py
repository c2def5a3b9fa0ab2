"""BitWave (HPCA 2024) reproduction.

A production-quality Python library reproducing *BitWave: Exploiting
Column-Based Bit-Level Sparsity for Deep Learning Acceleration*
(Shi et al., HPCA 2024).

The package is organised as:

- :mod:`repro.core` -- the paper's contribution: bit-column sparsity,
  sign-magnitude codecs, BCS compression, Bit-Flip optimization and the
  greedy network-wide search (Algorithm 1).
- :mod:`repro.nn` / :mod:`repro.models` -- a pure-NumPy DNN substrate with
  the four benchmark networks (ResNet18, MobileNetV2, CNN-LSTM, BERT-Base).
- :mod:`repro.quant` -- Int8 post-training quantization.
- :mod:`repro.sparsity` -- value/bit/column sparsity statistics.
- :mod:`repro.workloads` -- layer-shape databases for the benchmarks.
- :mod:`repro.model` -- the analytical (ZigZag/Sparseloop-style)
  performance, energy and area model, equations (1)-(5) of the paper.
- :mod:`repro.accelerators` -- BitWave and the five SotA baselines
  (Dense, HUAA, Stripes, Pragmatic, Bitlet, SCNN).
- :mod:`repro.sim` -- a cycle-approximate simulator of the BitWave
  datapath (ZCIP, SMM, BCE, fetcher).
- :mod:`repro.experiments` -- one harness per paper table/figure.
"""

from repro.core.bitcolumn import (
    bit_sparsity,
    column_sparsity,
    group_weights,
    nonzero_column_counts,
    value_sparsity,
    zero_column_mask,
)
from repro.core.bitflip import flip_group, flip_layer
from repro.core.compression import (
    bcs_compress,
    bcs_compression_ratio,
    bcs_decompress,
)
from repro.core.pipeline import BitWavePipeline
from repro.core.signmag import (
    from_sign_magnitude,
    sm_bitplanes,
    to_sign_magnitude,
    twos_complement_bitplanes,
)

__version__ = "1.0.0"

__all__ = [
    "BitWavePipeline",
    "bcs_compress",
    "bcs_compression_ratio",
    "bcs_decompress",
    "bit_sparsity",
    "column_sparsity",
    "flip_group",
    "flip_layer",
    "from_sign_magnitude",
    "group_weights",
    "nonzero_column_counts",
    "sm_bitplanes",
    "to_sign_magnitude",
    "twos_complement_bitplanes",
    "value_sparsity",
    "zero_column_mask",
]
