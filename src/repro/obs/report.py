"""Aggregate a trace directory into per-phase latency/counter tables.

The tracer writes one JSONL file per process
(:mod:`repro.obs.tracer`); this module merges every ``trace-*.jsonl``
in a run's directory on read and reduces the event stream to:

- **span stats** per phase name: count, total, mean, p50, p95, max --
  the "where did the wall-clock go" table;
- **counter totals** per name, with a per-attribute breakdown (e.g.
  ``eval.cache`` split by ``result=hit/miss`` and backend);
- **gauge stats** per name: count, min, mean, max;
- the **top-N slowest spans** with their attributes -- the
  "which points were slow" view.

``python -m repro.obs report <dir>`` renders these as aligned tables
or ``--format json`` for scripting; benchmarks attach the same payload
to their ``BENCH_*.json`` ``extra_info``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.obs.tracer import TRACE_FILE_GLOB
from repro.utils.tables import format_table


def iter_events(directory: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every event of every per-process trace file in ``directory``.

    Files merge in name order (deterministic); a torn trailing line
    from a crashed worker is skipped, mirroring the result store's
    loader discipline.  A missing directory yields nothing.
    """
    root = Path(directory).expanduser()
    if not root.is_dir():
        return
    for path in sorted(root.glob(TRACE_FILE_GLOB)):
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a killed worker
                if isinstance(event, dict) and "name" in event:
                    yield event


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _attr_key(attrs: dict[str, Any]) -> str:
    return ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))


def aggregate(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Reduce an event stream to span/counter/gauge statistics."""
    span_durs: dict[str, list[float]] = {}
    span_errors: dict[str, int] = {}
    counters: dict[str, dict[str, Any]] = {}
    gauges: dict[str, list[float]] = {}
    pids: set[int] = set()
    total = 0
    for event in events:
        total += 1
        name = event["name"]
        pid = event.get("pid")
        if pid is not None:
            pids.add(pid)
        kind = event.get("t")
        if kind == "span":
            span_durs.setdefault(name, []).append(
                float(event.get("dur_s", 0.0)))
            if not event.get("ok", True):
                span_errors[name] = span_errors.get(name, 0) + 1
        elif kind == "counter":
            entry = counters.setdefault(name, {"total": 0, "breakdown": {}})
            n = int(event.get("n", 1))
            entry["total"] += n
            attrs = event.get("attrs") or {}
            if attrs:
                key = _attr_key(attrs)
                entry["breakdown"][key] = entry["breakdown"].get(key, 0) + n
        elif kind == "gauge":
            gauges.setdefault(name, []).append(float(event.get("value", 0.0)))

    spans: dict[str, dict[str, Any]] = {}
    for name, durs in span_durs.items():
        durs.sort()
        spans[name] = {
            "count": len(durs),
            "total_s": sum(durs),
            "mean_s": sum(durs) / len(durs),
            "p50_s": percentile(durs, 0.50),
            "p95_s": percentile(durs, 0.95),
            "max_s": durs[-1],
            "errors": span_errors.get(name, 0),
        }
    gauge_stats = {
        name: {
            "count": len(values),
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
        }
        for name, values in gauges.items()
    }
    return {
        "events": total,
        "processes": len(pids),
        "spans": dict(sorted(spans.items())),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauge_stats.items())),
    }


def slowest_spans(events: Iterable[dict[str, Any]],
                  top: int = 10) -> list[dict[str, Any]]:
    """The ``top`` longest individual spans, longest first."""
    spans = [event for event in events if event.get("t") == "span"]
    spans.sort(key=lambda event: float(event.get("dur_s", 0.0)),
               reverse=True)
    return [
        {
            "name": event["name"],
            "dur_s": float(event.get("dur_s", 0.0)),
            "pid": event.get("pid"),
            "attrs": event.get("attrs") or {},
        }
        for event in spans[:top]
    ]


def report_data(directory: str | Path, top: int = 10) -> dict[str, Any]:
    """The full machine-readable report for one trace directory."""
    events = list(iter_events(directory))
    payload = aggregate(events)
    payload["dir"] = str(directory)
    payload["slowest"] = slowest_spans(events, top=top)
    return payload


# -- rendering ------------------------------------------------------------
def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def span_table(spans: dict[str, dict[str, Any]]) -> str:
    rows = [
        [name, stats["count"], f"{stats['total_s']:.3f}",
         _ms(stats["mean_s"]), _ms(stats["p50_s"]), _ms(stats["p95_s"]),
         _ms(stats["max_s"]), stats.get("errors", 0)]
        for name, stats in spans.items()
    ]
    return format_table(
        ["phase", "count", "total s", "mean ms", "p50 ms", "p95 ms",
         "max ms", "errors"],
        rows, title="Per-phase span latency")


def counter_table(counters: dict[str, dict[str, Any]]) -> str:
    rows: list[list[object]] = []
    for name, entry in counters.items():
        rows.append([name, entry["total"]])
        for key, n in sorted(entry["breakdown"].items()):
            rows.append([f"  {name}[{key}]", n])
    return format_table(["counter", "total"], rows, title="Counters")


def gauge_table(gauges: dict[str, dict[str, Any]]) -> str:
    rows = [
        [name, stats["count"], f"{stats['min']:.4g}",
         f"{stats['mean']:.4g}", f"{stats['max']:.4g}"]
        for name, stats in gauges.items()
    ]
    return format_table(["gauge", "count", "min", "mean", "max"], rows,
                        title="Gauges")


def slowest_table(slowest: list[dict[str, Any]]) -> str:
    rows = [
        [entry["name"], _ms(entry["dur_s"]), entry.get("pid", ""),
         _attr_key(entry["attrs"])]
        for entry in slowest
    ]
    return format_table(["phase", "dur ms", "pid", "attrs"], rows,
                        title="Slowest spans")


def render_report(data: dict[str, Any]) -> str:
    """The human-readable multi-table report for ``report_data``."""
    parts = [
        f"trace {data['dir']}: {data['events']} events from "
        f"{data['processes']} process(es)"
    ]
    if data["spans"]:
        parts.append(span_table(data["spans"]))
    if data["counters"]:
        parts.append(counter_table(data["counters"]))
    if data["gauges"]:
        parts.append(gauge_table(data["gauges"]))
    if data["slowest"]:
        parts.append(slowest_table(data["slowest"]))
    if len(parts) == 1:
        parts.append("(no events)")
    return "\n\n".join(parts)
