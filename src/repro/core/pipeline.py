"""End-to-end BitWave deployment pipeline (public API facade).

``BitWavePipeline`` strings together the paper's offline flow:

1. take Int8 layer weights (optionally from :mod:`repro.quant`),
2. optionally run Bit-Flip with per-layer zero-column targets,
3. BCS-compress every layer at its (tunable) group size,
4. report compression ratios, column-sparsity statistics and the
   per-layer non-zero-column stream the accelerator consumes.

The result object feeds both the analytical accelerator model
(:mod:`repro.accelerators`) and the datapath simulator (:mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitcolumn import column_sparsity
from repro.core.bitflip import flip_layer
from repro.core.compression import BCSCompressed, bcs_compress
from repro.utils.bits import popcount8

#: Group sizes the BitWave hardware supports layer-wise (Section III-C).
SUPPORTED_GROUP_SIZES = (8, 16, 32)
DEFAULT_GROUP_SIZE = 16


@dataclass(frozen=True)
class LayerDeployment:
    """Per-layer output of the pipeline."""

    name: str
    weights: np.ndarray
    compressed: BCSCompressed
    group_size: int
    zero_columns_target: int
    distortion: float

    @property
    def compression_ratio(self) -> float:
        return self.compressed.compression_ratio

    @property
    def column_sparsity(self) -> float:
        return column_sparsity(self.weights, self.group_size, fmt="sm")

    @property
    def nonzero_column_counts(self) -> np.ndarray:
        """Per-group cycle counts consumed by the BitWave compute engine."""
        return popcount8(self.compressed.indices).astype(np.int64)


@dataclass
class DeploymentReport:
    """Whole-network output of :meth:`BitWavePipeline.deploy`."""

    layers: dict[str, LayerDeployment] = field(default_factory=dict)

    @property
    def total_original_bits(self) -> int:
        return sum(d.compressed.original_bits for d in self.layers.values())

    @property
    def total_compressed_bits(self) -> int:
        return sum(d.compressed.compressed_bits for d in self.layers.values())

    @property
    def compression_ratio(self) -> float:
        """Network-level CR, weighted by layer size."""
        compressed = self.total_compressed_bits
        return self.total_original_bits / compressed if compressed else 1.0

    def flipped_weights(self) -> dict[str, np.ndarray]:
        return {name: d.weights for name, d in self.layers.items()}


class BitWavePipeline:
    """Offline compression pipeline for a network's Int8 weights.

    Parameters
    ----------
    group_size:
        Default column group size; must be one the hardware supports.
    group_sizes:
        Optional per-layer override, ``{layer: G}``.
    zero_column_targets:
        Optional per-layer Bit-Flip targets, ``{layer: z}``; layers
        absent from the mapping are compressed losslessly (SM only).

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.pipeline import BitWavePipeline
    >>> w = {"fc": np.array([[1, -2, 0, 3]] * 4, dtype=np.int8)}
    >>> report = BitWavePipeline(group_size=8).deploy(w)
    >>> report.compression_ratio > 1.0
    True
    """

    def __init__(
        self,
        group_size: int = DEFAULT_GROUP_SIZE,
        group_sizes: dict[str, int] | None = None,
        zero_column_targets: dict[str, int] | None = None,
    ) -> None:
        self._validate_group_size(group_size)
        for gs in (group_sizes or {}).values():
            self._validate_group_size(gs)
        self.group_size = group_size
        self.group_sizes = dict(group_sizes or {})
        self.zero_column_targets = dict(zero_column_targets or {})

    @staticmethod
    def _validate_group_size(group_size: int) -> None:
        if group_size not in SUPPORTED_GROUP_SIZES:
            raise ValueError(
                f"group size {group_size} unsupported by BitWave hardware; "
                f"choose one of {SUPPORTED_GROUP_SIZES}"
            )

    def layer_group_size(self, name: str) -> int:
        return self.group_sizes.get(name, self.group_size)

    def deploy(self, weights: dict[str, np.ndarray]) -> DeploymentReport:
        """Flip (where requested) and BCS-compress every layer."""
        report = DeploymentReport()
        for name, tensor in weights.items():
            gs = self.layer_group_size(name)
            target = self.zero_column_targets.get(name, 0)
            if target > 0:
                flip = flip_layer(tensor, target, gs)
                deployed, distortion = flip.weights, flip.distortion
            else:
                deployed, distortion = np.asarray(tensor, dtype=np.int8), 0.0
            report.layers[name] = LayerDeployment(
                name=name,
                weights=deployed,
                compressed=bcs_compress(deployed, gs),
                group_size=gs,
                zero_columns_target=target,
                distortion=distortion,
            )
        return report
