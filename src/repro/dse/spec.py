"""Declarative campaign specifications for design-space exploration.

A campaign is the cross product the paper's headline figures are built
from -- accelerators x networks, plus the BitWave ablation ladder
(dataflow / column / bit-flip variants, which double as the sparsity
profile axis: ``+DF+SM+BF`` evaluates against the bit-flipped weight
statistics) -- optionally crossed with the evaluation *backend* axis
(:mod:`repro.eval`): the analytical model and the structural-simulator
datapaths.  Every point in the grid is a
:class:`~repro.eval.request.EvalRequest`, so it hashes to the same
stable key as an ad-hoc :func:`repro.eval.evaluate` call, and results
can be persisted, shared across processes, and resumed incrementally.

Networks may be parametrized (``"bert_base@tokens=128"``), so token
sweeps are ordinary campaign points.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence, TypeVar

from repro.accelerators import BITWAVE_VARIANTS, SOTA_ACCELERATORS
from repro.arch import DEFAULT_ARCH, canonical_arch
from repro.dse.retry import RetryPolicy
from repro.eval.registry import backend_names
from repro.eval.request import MODEL_BACKEND, config_hash  # noqa: F401
from repro.eval.request import EvalRequest
from repro.workloads.nets import parse_network

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class _HasKey(Protocol):
    def key(self) -> str: ...


_KeyedT = TypeVar("_KeyedT", bound=_HasKey)


@dataclass(frozen=True)
class Shard:
    """One deterministic slice ``index/count`` of a campaign's points.

    Points are assigned to shards by their stable config-hash key, so N
    hosts (or processes) given the same spec and ``count`` evaluate
    disjoint, collectively-exhaustive slices against the same
    fingerprint namespace -- no coordination needed beyond agreeing on
    ``count``.  Adding grid axes moves no existing point between
    shards: assignment depends only on each point's own key.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}")

    @classmethod
    def parse(cls, text: str) -> "Shard":
        """Parse the CLI spelling ``"i/N"`` (0-based index)."""
        match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
        if not match:
            raise ValueError(
                f"shard must be spelled 'i/N' (e.g. '0/2'), got {text!r}")
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    def owns(self, key: str) -> bool:
        """Whether a config-hash key lands in this shard.

        Re-hashing the key keeps the split uniform and stable for any
        key format, independent of process and ``PYTHONHASHSEED``.
        """
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.count == self.index

    def select(self, points: Sequence[_KeyedT]) -> list[_KeyedT]:
        """The sub-list of ``points`` this shard owns (order preserved)."""
        return [point for point in points if self.owns(point.key())]

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def _check_subset(kind: str, values: Sequence[str],
                  valid: Sequence[str] | None) -> None:
    seen: set[str] = set()
    for value in values:
        if value in seen:
            raise ValueError(f"duplicate {kind} {value!r} in campaign")
        seen.add(value)
        if valid is None:
            parse_network(value)  # networks: registry + parameters
        elif value not in valid:
            raise ValueError(
                f"unknown {kind} {value!r}; one of {tuple(valid)}")


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative evaluation grid.

    ``accelerators`` x ``networks`` gives the Fig. 14/15/17 comparison
    points; ``variants`` x ``networks`` adds the Fig. 13 BitWave
    ablation points.  Either axis may be empty (but not both).
    ``backends`` crosses the grid with evaluation backends; simulator
    backends implement the fully-enabled BitWave datapath only, so they
    expand against the BitWave accelerator column alone (ablation
    rungs and other accelerators stay model-backed).  ``archs`` crosses
    the grid with hardware design points (:mod:`repro.arch` preset
    spellings, e.g. ``"bitwave-16nm@sram_pj=0.5"``), enabling
    store-backed technology-sensitivity sweeps over both backends;
    empty means the default arch.  ``retry`` pins the campaign's
    failure-handling policy (attempts, backoff, per-point timeout,
    poison classification) so a spec JSON fully describes how the run
    self-heals; ``None`` uses the executor's defaults, and CLI flags
    layer on top either way.
    """

    name: str
    accelerators: tuple[str, ...] = ()
    networks: tuple[str, ...] = ()
    variants: tuple[str, ...] = ()
    backends: tuple[str, ...] = (MODEL_BACKEND,)
    archs: tuple[str, ...] = ()
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "accelerators", tuple(self.accelerators))
        object.__setattr__(self, "networks", tuple(self.networks))
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "backends",
                           tuple(self.backends) or (MODEL_BACKEND,))
        object.__setattr__(self, "archs", tuple(self.archs))

    def validate(self) -> None:
        if not self.name or not _NAME_RE.match(self.name):
            raise ValueError(
                f"campaign name {self.name!r} must match {_NAME_RE.pattern}")
        _check_subset("network", self.networks, None)
        _check_subset("accelerator", self.accelerators, SOTA_ACCELERATORS)
        _check_subset("variant", self.variants, BITWAVE_VARIANTS)
        _check_subset("backend", self.backends, backend_names())
        seen_archs: set[str] = set()
        for arch in self.archs:
            spelling = canonical_arch(arch)  # raises on unknown/bad specs
            if spelling in seen_archs:
                raise ValueError(
                    f"duplicate arch {arch!r} in campaign "
                    f"(canonical spelling {spelling!r})")
            seen_archs.add(spelling)
        if not self.networks:
            raise ValueError("campaign needs at least one network")
        if not self.accelerators and not self.variants:
            raise ValueError(
                "campaign needs at least one accelerator or variant")

    def points(self) -> list[EvalRequest]:
        """Expand the grid into its requests, deduplicated by key, in a
        stable order: by arch, then backend, then network, with each
        network's accelerator and variant points together.

        The executor dispatches points in this order, and its profile
        pass profiles their networks in it.  The order never changes a
        result.
        """
        self.validate()
        points: list[EvalRequest] = []
        for arch in self.archs or (DEFAULT_ARCH,):
            for backend in self.backends:
                model = backend == MODEL_BACKEND
                for network in self.networks:
                    for accelerator in self.accelerators:
                        if model or accelerator == "BitWave":
                            points.append(EvalRequest(
                                network, accelerator, backend=backend,
                                arch=arch))
                    if model:
                        for variant in self.variants:
                            points.append(EvalRequest(
                                network, variant=variant, arch=arch))
        unique = []
        seen: set[str] = set()
        for point in points:
            key = point.key()
            if key not in seen:
                seen.add(key)
                unique.append(point)
        if not unique:
            # Reachable despite validate(): simulator backends expand
            # against BitWave only, so e.g. accelerators=(SCNN,) with
            # backends=(sim-vectorized,) filters to nothing.  A 0-point
            # campaign that "succeeds" hides that mistake.
            raise ValueError(
                f"campaign {self.name!r} expands to zero points: "
                f"simulator backends evaluate only the fully-enabled "
                f"BitWave accelerator -- add 'BitWave' to accelerators "
                f"or include the 'model' backend")
        return unique

    def to_dict(self) -> dict[str, Any]:
        data = {
            "name": self.name,
            "accelerators": list(self.accelerators),
            "networks": list(self.networks),
            "variants": list(self.variants),
            "backends": list(self.backends),
            "archs": list(self.archs),
        }
        if self.retry is not None:
            # Absent unless set, so spec JSONs written before the
            # retry field existed round-trip byte-identically.
            data["retry"] = self.retry.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        retry = data.get("retry")
        return cls(
            name=data["name"],
            accelerators=tuple(data.get("accelerators", ())),
            networks=tuple(data.get("networks", ())),
            variants=tuple(data.get("variants", ())),
            backends=tuple(data.get("backends", (MODEL_BACKEND,))),
            archs=tuple(data.get("archs", ())),
            retry=RetryPolicy.from_dict(retry) if retry is not None else None,
        )

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignSpec":
        spec = cls.from_dict(json.loads(Path(path).read_text()))
        spec.validate()
        return spec


def paper_grid(name: str = "paper-grid") -> CampaignSpec:
    """The full headline grid: all SotA accelerators, all networks, and
    the complete BitWave ablation ladder (Figs. 13-17)."""
    from repro.workloads.nets import NETWORKS

    return CampaignSpec(
        name=name,
        accelerators=SOTA_ACCELERATORS,
        networks=NETWORKS,
        variants=BITWAVE_VARIANTS,
    )
