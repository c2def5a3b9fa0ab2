"""Typed evaluation requests: the question half of the ``repro.eval`` API.

An :class:`EvalRequest` names one *(workload, accelerator configuration,
backend)* evaluation plus its options, and hashes to the stable key the
result store caches under.  The same request object drives every
backend -- the analytical model and the structural simulator -- so
campaign grids, experiment harnesses, and ad-hoc calls all share
one cache keyspace.

A request canonicalizes on construction, so every spelling of one
evaluation has one key: the full BitWave rung is the comparison
build, workload parameters at their defaults drop, and the arch keeps
only the overrides that differ from its preset *and* that the
backend reads for this configuration (``EvalBackend.arch_reads``).
The model takes each design's PE-array geometry from its SU set, so
SCNN at ``"bitwave-16nm@group=16+sram_pj=0.5"`` is SCNN at
``"bitwave-16nm@sram_pj=0.5"``: one key, one store record, one serve
coalescing slot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.arch import DEFAULT_ARCH, canonical_arch, parse_arch
from repro.workloads.nets import canonical_network, parse_network

#: The default backend (the analytical STEP1-STEP4 model).
MODEL_BACKEND = "model"

#: The ablation rung equal to ``BitWave()``'s constructor defaults.
FULL_BITWAVE_VARIANT = "+DF+SM+BF"


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable 16-hex-char digest of a JSON-serializable config mapping.

    Canonical JSON (sorted keys, tight separators) makes the digest
    independent of dict insertion order, process, and
    ``PYTHONHASHSEED``.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class EvalOptions:
    """Backend-tunable *evaluation* knobs (not hardware).

    ``batch`` scales every layer of the workload.  The hardware itself
    -- BCS group size, kernel/spatial unrolls, bandwidths, technology
    -- is the request's ``arch`` axis (:mod:`repro.arch`), shared by
    every backend.
    """

    batch: int = 1

    def validate(self) -> None:
        if not isinstance(self.batch, int) or isinstance(self.batch, bool):
            raise ValueError(
                f"batch must be an integer, got {self.batch!r}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")

    def to_dict(self) -> dict[str, Any]:
        return {"batch": self.batch}

    #: Pre-arch option keys whose meaning moved to the request's arch
    #: axis; deserializing them silently onto default hardware would
    #: change the numbers, so the migration is loud instead.
    _MOVED_TO_ARCH = ("sim_group_size", "sim_ku", "sim_oxu")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvalOptions":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            hint = ""
            if set(unknown) & set(cls._MOVED_TO_ARCH):
                hint = ("; legacy sim geometry now lives on the arch axis: "
                        "respell the request with e.g. "
                        "arch='bitwave-16nm@group=16+ku=64+oxu=8'")
            raise ValueError(f"unknown option keys {unknown}{hint}")
        return cls(**data)


@dataclass(frozen=True)
class EvalRequest:
    """One workload x accelerator-configuration x backend evaluation.

    ``workload`` is a network name from the :data:`repro.workloads.nets`
    registry, optionally parametrized (``"bert_base@tokens=128"``).
    ``variant`` selects a rung of the BitWave ablation ladder; ``None``
    is the fully-enabled comparison build.  ``backend`` names a
    registered :class:`repro.eval.registry.EvalBackend`.  ``arch`` is
    the hardware description both backends evaluate on -- an
    :mod:`repro.arch` preset name, optionally overridden
    (``"bitwave-16nm@sram_pj=0.5+group=16"``); its canonical spelling,
    less the overrides the evaluation cannot read, folds into the
    request's cache key, so overridden-arch results never collide with
    cached defaults.
    """

    workload: str
    accelerator: str = "BitWave"
    variant: str | None = None
    backend: str = MODEL_BACKEND
    arch: str = DEFAULT_ARCH
    options: EvalOptions = field(default_factory=EvalOptions)

    def __post_init__(self) -> None:
        # The fully-enabled ablation rung IS the SotA comparison build
        # (BitWave's constructor defaults), so both spellings
        # canonicalize to one request and share one store entry.
        if self.accelerator == "BitWave" and self.variant == FULL_BITWAVE_VARIANT:
            object.__setattr__(self, "variant", None)
        # Likewise parametrized workload spellings: defaults dropped,
        # parameters sorted, so "bert_base@tokens=4" == "bert_base".
        try:
            object.__setattr__(self, "workload",
                               canonical_network(self.workload))
        except ValueError:
            pass  # left verbatim; validate() reports the real error
        # And arch spellings: no-op overrides dropped, and those this
        # configuration's backend cannot read, the rest sorted; so
        # "bitwave-16nm@group=8" is "bitwave-16nm", and so is
        # "bitwave-16nm@group=16" for every model configuration.
        try:
            object.__setattr__(self, "arch", canonical_arch(
                self.arch, self._arch_reads()))
        except ValueError:
            pass  # left verbatim; validate() reports the real error

    def _arch_reads(self) -> frozenset[str]:
        """The arch override names this request's evaluation reads."""
        from repro.eval.registry import get_backend  # imports this module

        return get_backend(self.backend).arch_reads(
            self.accelerator, self.variant)

    def validate(self) -> None:
        from repro.accelerators import BITWAVE_VARIANTS, SOTA_ACCELERATORS
        from repro.eval.registry import backend_names

        parse_network(self.workload)  # raises on unknown/bad parameters
        parse_arch(self.arch)  # raises on unknown presets/fields/values
        self.options.validate()
        if self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"one of {backend_names()}")
        if self.variant is None:
            if self.accelerator not in SOTA_ACCELERATORS:
                raise ValueError(
                    f"unknown accelerator {self.accelerator!r}; "
                    f"one of {SOTA_ACCELERATORS}")
        else:
            if self.accelerator != "BitWave":
                raise ValueError(
                    f"variants are BitWave ablations; got "
                    f"accelerator={self.accelerator!r}")
            if self.variant not in BITWAVE_VARIANTS:
                raise ValueError(
                    f"unknown BitWave variant {self.variant!r}; "
                    f"one of {BITWAVE_VARIANTS}")
        if self.backend != MODEL_BACKEND:
            # The structural simulator implements the BitWave datapath;
            # ablation rungs have no simulator counterpart.
            if self.accelerator != "BitWave" or self.variant is not None:
                raise ValueError(
                    f"backend {self.backend!r} simulates the fully-enabled "
                    f"BitWave datapath only; got "
                    f"{self.config_label}")

    @property
    def config_label(self) -> str:
        """Display label for the accelerator-configuration axis."""
        label = self.accelerator
        if self.variant is not None:
            label = f"BitWave[{self.variant}]"
        if self.backend != MODEL_BACKEND:
            label = f"{label}@{self.backend}"
        if self.arch != DEFAULT_ARCH:
            label = f"{label}({self.arch})"
        return label

    @property
    def label(self) -> str:
        return f"{self.config_label}/{self.workload}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "accelerator": self.accelerator,
            "variant": self.variant,
            "backend": self.backend,
            "arch": self.arch,
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvalRequest":
        """Inverse of :meth:`to_dict`; absent keys take the dataclass
        defaults, so ``workload`` is the only required one.  A key
        :meth:`to_dict` never writes is refused: a misspelled axis
        must not silently evaluate the default configuration."""
        unknown = data.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise ValueError(f"unknown request keys {sorted(unknown)}")
        axes = {name: value for name, value in data.items()
                if name != "options"}
        return cls(**axes,
                   options=EvalOptions.from_dict(data.get("options", {})))

    def key(self) -> str:
        """Stable result-store key for this request."""
        return config_hash(self.to_dict())
