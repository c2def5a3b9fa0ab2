"""Sim-backed validation campaigns: sweep simulator configs in parallel.

The second campaign axis of the DSE engine.  Where :mod:`repro.dse.spec`
grids sweep evaluation *requests* (workload x accelerator x backend), a
sim campaign sweeps the *structural simulator* configuration -- group
size, kernel/spatial unrolls, datapath backend -- and runs the Section
V-B validation suite (:mod:`repro.experiments.validation_sim_vs_model`)
at every point, recording per-layer simulated/analytic cycles and the
model deviation.  Before the vectorized datapath this was impractical:
one reference-backend suite pass costs more than an entire vectorized
campaign.

Results persist through the same :class:`repro.dse.store.ResultStore` +
:func:`repro.dse.executor.drive_points` machinery as evaluation grids
(shared :class:`~repro.dse.executor.CampaignRun`, shared record
assembly), in a ``sim-`` namespace of the whole-tree fingerprint, so
any source edit -- the datapath, the suite, or the lowering whose
analytic cycles the suite diffs against -- invalidates stale sim
records automatically.

CLI: ``python -m repro.dse sim --group-sizes 4,8 --oxus 8,16 --jobs 4``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.dse.executor import CampaignRun, drive_points
from repro.dse.records import RECORD_VERSION, make_record
from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.eval.fingerprints import code_fingerprint
from repro.eval.request import config_hash
from repro.experiments import validation_sim_vs_model
from repro.sim.npu import BACKENDS

#: Bump when the meaning of a sim point's fields changes.
SIM_SPEC_VERSION = 1

#: Discriminator stored in every sim point/record.
SIM_KIND = "sim-validation"

#: Kept as an alias: sim campaigns share the generic run object now.
SimCampaignRun = CampaignRun


def sim_code_fingerprint() -> str:
    """The sim-validation namespace: the whole-tree digest of
    :func:`repro.eval.fingerprints.code_fingerprint` behind ``sim-``."""
    return "sim-" + code_fingerprint()


def sim_store(root: str | Path | None = None) -> ResultStore:
    """A result store in the sim-validation namespace."""
    return ResultStore(root, namespace=sim_code_fingerprint())


@dataclass(frozen=True)
class SimPoint:
    """One simulator configuration to validate."""

    group_size: int = 8
    ku: int = 32
    oxu: int = 16
    backend: str = "vectorized"

    def validate(self) -> None:
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.ku < 1:
            raise ValueError(f"ku must be >= 1, got {self.ku}")
        if self.oxu < 1:
            raise ValueError(f"oxu must be >= 1, got {self.oxu}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; one of {BACKENDS}")

    @property
    def label(self) -> str:
        return (f"sim[G={self.group_size},Ku={self.ku},OXu={self.oxu},"
                f"{self.backend}]")

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": SIM_SPEC_VERSION,
            "kind": SIM_KIND,
            "group_size": self.group_size,
            "ku": self.ku,
            "oxu": self.oxu,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimPoint":
        return cls(
            group_size=data["group_size"],
            ku=data["ku"],
            oxu=data["oxu"],
            backend=data.get("backend", "vectorized"),
        )

    def key(self) -> str:
        """Stable result-store key for this configuration."""
        return config_hash(self.to_dict())

    def evaluate(self) -> dict[str, Any]:
        """Run the validation suite at this configuration."""
        self.validate()
        rows = validation_sim_vs_model.run(
            group_size=self.group_size, ku=self.ku, oxu=self.oxu,
            backend=self.backend)
        return {
            "rows": rows,
            "layers": len(rows),
            "max_deviation": max(r["deviation"] for r in rows),
            "total_simulated_cycles": sum(
                r["simulated_cycles"] for r in rows),
        }


@dataclass(frozen=True)
class SimCampaignSpec:
    """Cross product of simulator-configuration axes."""

    name: str
    group_sizes: tuple[int, ...] = (8,)
    kus: tuple[int, ...] = (32,)
    oxus: tuple[int, ...] = (16,)
    backends: tuple[str, ...] = ("vectorized",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_sizes", tuple(self.group_sizes))
        object.__setattr__(self, "kus", tuple(self.kus))
        object.__setattr__(self, "oxus", tuple(self.oxus))
        object.__setattr__(self, "backends", tuple(self.backends))

    def validate(self) -> None:
        for axis in ("group_sizes", "kus", "oxus", "backends"):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"sim campaign needs at least one {axis}")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate values in {axis}: {values}")

    def points(self) -> list[SimPoint]:
        self.validate()
        points = [
            SimPoint(group_size=g, ku=ku, oxu=oxu, backend=backend)
            for backend in self.backends
            for g in self.group_sizes
            for ku in self.kus
            for oxu in self.oxus
        ]
        for point in points:
            point.validate()
        return points


def stored_sim_result(store: ResultStore, key: str) -> dict[str, Any] | None:
    """The persisted suite result for ``key``, if layout-compatible."""
    record = store.get(key)
    if record is None or record.get("version") != RECORD_VERSION:
        return None
    if record.get("point", {}).get("kind") != SIM_KIND:
        return None
    return dict(record["result"])


def _sim_worker(point: SimPoint) -> tuple[str, dict[str, Any], float]:
    start = time.perf_counter()
    result = point.evaluate()
    return point.key(), result, time.perf_counter() - start


def run_sim_campaign(
    spec: SimCampaignSpec,
    store: ResultStore | None = None,
    *,
    jobs: int = 1,
    force: bool = False,
    progress: Any = None,
    policy: RetryPolicy | None = None,
) -> "CampaignRun[SimPoint, dict[str, Any]]":
    """Run (or resume) a sim-validation campaign over a process pool.

    Shares the :func:`repro.dse.executor.drive_points` driver and the
    :class:`~repro.dse.executor.CampaignRun` result object with the
    evaluation grids: cached points are served from the store, pending
    points fan out over ``jobs`` workers (``0`` = all CPUs), the parent
    process owns all store writes, and ``policy`` governs retries,
    per-point timeouts, and poison quarantine exactly as for
    :func:`~repro.dse.executor.run_campaign`.
    """
    spec.validate()
    if store is None:
        store = sim_store()
    points = spec.points()
    run: CampaignRun[SimPoint, dict[str, Any]] = CampaignRun(
        spec=spec, store_path=store.path, points=points, total=len(points))
    drive_points(
        points, run,
        jobs=jobs,
        worker=_sim_worker,
        cached_result=lambda point: stored_sim_result(store, point.key()),
        make_point_record=lambda point, payload, elapsed: make_record(
            point, payload, elapsed, fingerprint=sim_code_fingerprint()),
        decode_result=lambda payload: payload,
        store_for=lambda point: store,
        force=force,
        progress=progress,
        policy=policy,
    )
    return run


def sim_summary_rows(
        run: "CampaignRun[SimPoint, dict[str, Any]]") -> list[Sequence[Any]]:
    """Table rows summarizing a sim campaign (one row per point).

    Points whose suite run raised (``run.failed``) report ``FAILED``
    instead of metrics, so a poisoned configuration cannot hide the
    rest of the campaign's results.
    """
    rows: list[Sequence[Any]] = []
    for point in run.points:
        error = run.failure_for(point)
        if error is not None:
            rows.append([point.label, "-", "-", f"FAILED: {error}"])
            continue
        result = run.result_for(point)
        rows.append([
            point.label,
            result["layers"],
            f"{result['total_simulated_cycles']:,}",
            f"{100 * result['max_deviation']:.2f}%",
        ])
    return rows


def sim_summary_data(
        run: "CampaignRun[SimPoint, dict[str, Any]]") -> list[dict[str, Any]]:
    """JSON-able summary (one entry per point), for ``--format json``."""
    entries = []
    for point in run.points:
        error = run.failure_for(point)
        if error is not None:
            entries.append({
                "point": point.to_dict(),
                "label": point.label,
                "error": error,
                "layers": None,
                "total_simulated_cycles": None,
                "max_deviation": None,
            })
            continue
        result = run.result_for(point)
        entries.append({
            "point": point.to_dict(),
            "label": point.label,
            "error": None,
            "layers": result["layers"],
            "total_simulated_cycles": result["total_simulated_cycles"],
            "max_deviation": result["max_deviation"],
        })
    return entries
