"""The six modelled accelerators (Section V-B, Fig. 12 right)."""

from repro.accelerators.base import (
    Accelerator,
    LayerEvaluation,
    NetworkEvaluation,
)
from repro.arch import ArchSpec
from repro.accelerators.bitlet import Bitlet
from repro.accelerators.bitwave import (
    BITWAVE_VARIANTS,
    BREAKDOWN_CONFIGS,
    BitWave,
    DEFAULT_BITFLIP_TARGETS,
    bitflip_targets_for,
    build_bitwave_variant,
    variant_arch_reads,
)
from repro.accelerators.huaa import HUAA
from repro.accelerators.pragmatic import Pragmatic
from repro.accelerators.scnn import SCNN
from repro.accelerators.stripes import Stripes

#: The Fig. 14/15/17 comparison set, in the paper's plotting order.
SOTA_ACCELERATORS = ("SCNN", "Stripes", "Pragmatic", "Bitlet", "HUAA", "BitWave")

_CLASSES: dict[str, type[Accelerator]] = {
    "SCNN": SCNN,
    "Stripes": Stripes,
    "Pragmatic": Pragmatic,
    "Bitlet": Bitlet,
    "HUAA": HUAA,
    "BitWave": BitWave,
}


def _class_of(name: str) -> type[Accelerator]:
    if name not in _CLASSES:
        raise ValueError(f"unknown accelerator {name!r}; one of {SOTA_ACCELERATORS}")
    return _CLASSES[name]


def build_accelerator(name: str, arch: "ArchSpec | None" = None) -> Accelerator:
    """Factory for the comparison benchmarks (BitWave fully enabled).

    ``arch`` is the :class:`repro.arch.ArchSpec` the instance prices
    with (technology point, SRAM port widths); every design accepts it,
    so technology-sensitivity sweeps move the whole comparison set.
    """
    return _class_of(name)(arch=arch)


def config_arch_reads(name: str, variant: str | None = None) -> frozenset[str]:
    """Arch override names the model of one configuration reads: a
    comparison build's class declares them, a BitWave rung's follow
    from its column mode.  Raises ``ValueError`` for an unknown
    configuration."""
    if variant is None:
        return _class_of(name).arch_reads
    if name != "BitWave":
        raise ValueError(
            f"variants are BitWave ablations; got accelerator={name!r}")
    return variant_arch_reads(variant)


__all__ = [
    "Accelerator",
    "BITWAVE_VARIANTS",
    "BREAKDOWN_CONFIGS",
    "BitWave",
    "Bitlet",
    "DEFAULT_BITFLIP_TARGETS",
    "HUAA",
    "LayerEvaluation",
    "NetworkEvaluation",
    "Pragmatic",
    "SCNN",
    "SOTA_ACCELERATORS",
    "Stripes",
    "bitflip_targets_for",
    "build_accelerator",
    "build_bitwave_variant",
    "config_arch_reads",
]
