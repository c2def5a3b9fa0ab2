"""Canonical evaluation results: the answer half of the ``repro.eval`` API.

Every backend returns the same :class:`EvalResult` schema -- per-layer
``cycles`` / ``energy_pj`` / ``macs`` plus traffic counters and a
backend-specific ``detail`` mapping -- with ``effective_tops`` and
``efficiency_tops_per_w`` derived uniformly from the totals.  Results
serialize to JSON exactly (every numeric field is a Python float/int
and ``json`` round-trips floats shortest-repr), so a deserialized
result is bit-identical to the freshly computed one -- the property the
harness-equivalence tests pin.

Model-backend results carry the full STEP1-STEP4 breakdown in each
layer's ``detail``; :func:`from_network_evaluation` builds them from the
model's :class:`repro.accelerators.base.NetworkEvaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.accelerators.base import LayerEvaluation, NetworkEvaluation
from repro.model.technology import CLOCK_FREQUENCY_HZ

#: Energy component keys (Fig. 16's categories), in reporting order.
ENERGY_COMPONENTS = ("dram", "sram", "reg", "compute")


@dataclass(frozen=True)
class LayerResult:
    """Canonical per-layer metrics, uniform across backends.

    ``energy`` maps :data:`ENERGY_COMPONENTS` to picojoules (empty when
    the backend does not model energy).  ``traffic`` holds the
    backend's data-movement counters (documented per backend).
    ``detail`` carries the backend's full breakdown (the model's SU
    choice, activity counts and latency terms).
    """

    name: str
    macs: int
    cycles: float
    energy_pj: float
    energy: dict[str, float] = field(default_factory=dict)
    traffic: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "macs": self.macs,
            "cycles": self.cycles,
            "energy_pj": self.energy_pj,
            "energy": dict(self.energy),
            "traffic": dict(self.traffic),
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LayerResult":
        return cls(
            name=data["name"],
            macs=data["macs"],
            cycles=data["cycles"],
            energy_pj=data["energy_pj"],
            energy=dict(data.get("energy", {})),
            traffic=dict(data.get("traffic", {})),
            detail=dict(data.get("detail", {})),
        )


@dataclass(frozen=True)
class EvalResult:
    """Whole-workload evaluation under one backend.

    Totals and derived metrics are computed uniformly from the layer
    list, in layer order, so two backends (or a result and its store
    round-trip) agree bit-for-bit whenever their layers agree.
    """

    workload: str
    config_label: str
    backend: str
    layers: tuple[LayerResult, ...] = ()
    #: Clock the cycle counts run at (the arch's TechSpec); runtime and
    #: TOPS derive from it, so clock sweeps move every derived metric.
    clock_hz: float = CLOCK_FREQUENCY_HZ

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))

    # -- canonical totals ----------------------------------------------
    @property
    def total_cycles(self) -> float:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(layer.energy_pj for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    # -- derived metrics (uniform across backends) ---------------------
    @property
    def models_energy(self) -> bool:
        """Whether this result carries priced energy.

        Every current backend prices energy (the structural simulator
        gained its epilog with ``repro.arch``); ``False`` only for
        genuinely unpriced records -- results deserialized from stores
        written before the sim-energy epilog existed.  Consumers
        ranking or serializing energy metrics should treat unpriced
        energy as missing, not as zero."""
        return any(layer.energy for layer in self.layers)

    @property
    def runtime_s(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def effective_tops(self) -> float:
        """Workload operations (2 x MACs) over runtime."""
        return 2.0 * self.total_macs / self.runtime_s / 1e12

    @property
    def efficiency_tops_per_w(self) -> float:
        """Useful operations per joule (Fig. 17's metric).

        ``inf`` only for legacy unpriced results (see
        :attr:`models_energy`); consumers should gate on that flag.
        """
        joules = self.total_energy_pj * 1e-12
        if joules == 0.0:
            return float("inf")
        return 2.0 * self.total_macs / joules / 1e12

    def energy_shares(self) -> dict[str, float]:
        total = self.total_energy_pj
        if total == 0:
            return {component: 0.0 for component in ENERGY_COMPONENTS}
        return {
            component: sum(layer.energy.get(component, 0.0)
                           for layer in self.layers) / total
            for component in ENERGY_COMPONENTS
        }

    def traffic_totals(self) -> dict[str, float]:
        """Summed traffic counters over all layers."""
        totals: dict[str, float] = {}
        for layer in self.layers:
            for key, value in layer.traffic.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "config_label": self.config_label,
            "backend": self.backend,
            "clock_hz": self.clock_hz,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvalResult":
        return cls(
            workload=data["workload"],
            config_label=data["config_label"],
            backend=data.get("backend", "model"),
            clock_hz=data.get("clock_hz", CLOCK_FREQUENCY_HZ),
            layers=tuple(LayerResult.from_dict(entry)
                         for entry in data["layers"]),
        )


# ---------------------------------------------------------------------
# NetworkEvaluation conversion (model backend only).
# ---------------------------------------------------------------------
def _field_dict(record: Any) -> dict[str, Any]:
    """An all-scalar dataclass as a dict: ``asdict`` without its deep
    copy."""
    return {name: getattr(record, name)
            for name in record.__dataclass_fields__}


def layer_from_evaluation(layer: LayerEvaluation) -> LayerResult:
    """Canonicalize one model-backend layer, keeping the full breakdown."""
    energy = layer.energy
    counts = layer.counts
    return LayerResult(
        name=layer.layer,
        macs=counts.n_mac,
        cycles=layer.latency.total,
        energy_pj=energy.total_pj,
        energy={
            "dram": energy.dram_pj,
            "sram": energy.sram_pj,
            "reg": energy.reg_pj,
            "compute": energy.compute_pj,
        },
        traffic={
            "dram_elems": counts.dram_traffic,
            "sram_read_weight_elems": counts.sram_read_weight,
            "sram_read_input_elems": counts.sram_read_input,
            "sram_write_output_elems": counts.sram_write_output,
        },
        detail={
            "su_name": layer.su_name,
            "counts": _field_dict(counts),
            "latency": _field_dict(layer.latency),
        },
    )


def from_network_evaluation(
    evaluation: NetworkEvaluation, backend: str = "model",
    clock_hz: float | None = None,
) -> EvalResult:
    """Wrap the model's :class:`NetworkEvaluation` in the canonical schema.

    The clock defaults to the evaluation's own (set from the
    accelerator's arch), so a clock-overridden evaluation keeps its
    runtime and TOPS.
    """
    return EvalResult(
        workload=evaluation.network,
        config_label=evaluation.accelerator,
        backend=backend,
        clock_hz=clock_hz if clock_hz is not None else evaluation.clock_hz,
        layers=tuple(layer_from_evaluation(layer)
                     for layer in evaluation.layers),
    )
