"""Campaign summarization: metric tables, JSON rows, Pareto extraction.

A campaign point is an :class:`~repro.eval.request.EvalRequest`;
:func:`point_columns` spells the columns that name it in every JSON
row (``dse summary``/``pareto``, ``/summary``/``/pareto``, the
guided-search front).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

from repro.core.pareto import pareto_front
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore
from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult
from repro.utils.tables import format_table


class Metric(NamedTuple):
    """A named summary column / Pareto objective.

    ``extract`` returns ``None`` when the record genuinely lacks the
    underlying quantity -- only results deserialized from stores
    written before the simulator gained its energy epilog
    (``EvalResult.models_energy`` is ``False``); every current backend
    prices energy.  Unpriced metrics read as *missing* -- never as a
    best-possible zero or a JSON-hostile infinity.
    """

    extract: Callable[[EvalResult], float | None]
    maximize: bool
    header: str


def _energy_pj(ev: EvalResult) -> float | None:
    return ev.total_energy_pj if ev.models_energy else None


def _tops_per_w(ev: EvalResult) -> float | None:
    return ev.efficiency_tops_per_w if ev.models_energy else None


#: Named metrics usable as summary columns and Pareto objectives.
METRICS: dict[str, Metric] = {
    "cycles": Metric(lambda ev: ev.total_cycles, False, "cycles"),
    "energy": Metric(_energy_pj, False, "energy (pJ)"),
    "runtime": Metric(lambda ev: ev.runtime_s, False, "runtime (s)"),
    "macs": Metric(lambda ev: float(ev.total_macs), True, "MACs"),
    "tops": Metric(lambda ev: ev.effective_tops, True, "eff. TOPS"),
    "tops_per_w": Metric(_tops_per_w, True, "TOPS/W"),
}

_TABLE_COLUMNS = ("cycles", "energy", "runtime", "tops", "tops_per_w")


def _provenance(record: Mapping[str, Any] | None) -> dict[str, Any]:
    """Search provenance carried by a stored record's ``extra`` block.

    Guided runs (:mod:`repro.opt`) stamp every probe with an ``origin``
    (``opt:sh``, ``opt:cosearch``, ...) and the round index that
    produced it; exhaustive-campaign records carry neither and read as
    ``origin=None`` -- so mixed guided+exhaustive stores stay auditable
    from the same JSON rows.
    """
    extra = record.get("extra") if record else None
    if not isinstance(extra, Mapping):
        return {"origin": None, "round": None}
    return {"origin": extra.get("origin"), "round": extra.get("round")}


def point_columns(point: EvalRequest) -> dict[str, Any]:
    """The ``key``/``config``/``network``/``backend``/``arch`` columns
    naming ``point`` in a JSON row."""
    return {
        "key": point.key(),
        "config": point.config_label,
        "network": point.workload,
        "backend": point.backend,
        "arch": point.arch,
    }


def resolve_metric(name: str) -> Metric:
    if name not in METRICS:
        raise ValueError(
            f"unknown metric {name!r}; one of {tuple(METRICS)}")
    return METRICS[name]


def summary_data(
    spec: CampaignSpec,
    store: ResultStore,
    failures: Mapping[str, str] | None = None,
) -> list[dict[str, Any]]:
    """JSON-able per-point metric rows; missing points carry ``null``s.

    ``failures`` (config-hash key -> worker error, e.g.
    ``CampaignRun.failed``) annotates rows for points whose evaluation
    raised in the reporting run; every row carries an ``error`` field
    (``None`` when the point did not fail or no run context is given).
    """
    failures = failures or {}
    rows: list[dict[str, Any]] = []
    for point in spec.points():
        columns = point_columns(point)
        record = store.get(columns["key"])
        result = store.result(columns["key"])
        entry: dict[str, Any] = {
            **columns,
            "stored": result is not None,
            "error": failures.get(columns["key"]),
            **_provenance(record),
        }
        for name in _TABLE_COLUMNS:
            entry[name] = (None if result is None
                           else METRICS[name].extract(result))
        rows.append(entry)
    return rows


def summary_table(
    spec: CampaignSpec,
    store: ResultStore,
    failures: Mapping[str, str] | None = None,
) -> str:
    """Per-point metric table; missing points (and metrics the point's
    backend does not model) show ``-``; points that failed in the
    reporting run show ``FAILED`` -- even when an older record is still
    stored (a ``--force`` re-evaluation that raised), in which case the
    stale metrics stay visible next to the status."""
    rows = []
    for entry in summary_data(spec, store, failures):
        if entry["stored"]:
            cells = [("-" if entry[name] is None else entry[name])
                     for name in _TABLE_COLUMNS]
            cells.append("FAILED" if entry["error"] else "yes")
        else:
            status = "FAILED" if entry["error"] else "missing"
            cells = ["-"] * len(_TABLE_COLUMNS) + [status]
        rows.append([entry["config"], entry["network"], *cells])
    return format_table(
        ["config", "network",
         *(METRICS[name].header for name in _TABLE_COLUMNS), "stored"],
        rows,
        title=f"Campaign {spec.name} -- {len(rows)} points",
    )


def campaign_pareto(
    spec: CampaignSpec,
    store: ResultStore,
    x: str = "cycles",
    y: str = "energy",
) -> list[tuple[float, float, EvalRequest]]:
    """Non-dominated points of the campaign under two named metrics.

    Each objective's sense comes from the metric registry (cycles and
    energy minimize; TOPS/W maximizes).  Points missing from the store
    -- or legacy records genuinely lacking one of the objectives (old
    unpriced sim-energy stores) -- are skipped rather than ranked on a
    fictitious value.
    """
    mx, my = resolve_metric(x), resolve_metric(y)
    points = []
    for point in spec.points():
        result = store.result(point.key())
        if result is None:
            continue
        vx, vy = mx.extract(result), my.extract(result)
        if vx is None or vy is None:
            continue
        points.append((vx, vy, point))
    return pareto_front(points, maximize=(mx.maximize, my.maximize))


def pareto_data(
    spec: CampaignSpec,
    store: ResultStore,
    x: str = "cycles",
    y: str = "energy",
) -> list[dict[str, Any]]:
    """JSON-able Pareto front rows over two named metrics."""
    return [
        {
            **point_columns(point),
            **_provenance(store.get(point.key())),
            x: vx,
            y: vy,
        }
        for vx, vy, point in campaign_pareto(spec, store, x, y)
    ]


def pareto_table(
    spec: CampaignSpec,
    store: ResultStore,
    x: str = "cycles",
    y: str = "energy",
) -> str:
    mx, my = resolve_metric(x), resolve_metric(y)
    front = campaign_pareto(spec, store, x, y)
    rows = [
        [point.config_label, point.workload, vx, vy]
        for vx, vy, point in front
    ]
    sense = tuple("max" if m.maximize else "min" for m in (mx, my))
    return format_table(
        ["config", "network", f"{mx.header} ({sense[0]})",
         f"{my.header} ({sense[1]})"],
        rows,
        title=(f"Campaign {spec.name} -- Pareto front over "
               f"({x}, {y}), {len(rows)} of {len(spec.points())} points"),
    )
