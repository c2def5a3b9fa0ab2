"""Before/after table of two benchmark result sets.

``python3 perfbench/compare.py BASE CHANGE`` reads the run records
``perfbench/run.py`` writes (``.perfbench/results/*.json``; each side
is a directory or a list of files separated by commas) and prints, per
workload:

- for every end-to-end metric, each side's median and quartiles over
  its ``--trace 0`` runs, the change in the median, and a verdict
  against the bound in ``BENCHMARK.json`` -- ``unresolved`` when the
  base runs spread wider than the bound; serve-skew's throughput and
  latency figures sit among them, marked ``(no bound)``;
- for every per-layer metric of the ``--trace 1`` runs, each side's
  median (counts and self seconds alike) and the difference;
- each side's median CPU drift probe, which tells a slow host from a
  slow program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles, spread  # noqa: E402


def load(side: str) -> list[dict[str, Any]]:
    """Every run record under ``side`` (directory or comma list)."""
    paths: list[Path] = []
    for part in side.split(","):
        path = Path(part)
        paths += sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for path in paths:
        record = json.loads(path.read_text())
        if "manifest" in record and "metrics" in record:
            records.append(record)
    return records


def by_workload(records: list[dict[str, Any]], trace: int
                ) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` of the runs at ``trace``."""
    table: dict[str, dict[str, list[float]]] = {}
    for record in records:
        manifest = record["manifest"]
        if manifest["trace"] != trace:
            continue
        metrics = table.setdefault(manifest["workload"], {})
        for name, entry in {**record["metrics"],
                            **record.get("secondary", {})}.items():
            metrics.setdefault(name, []).append(entry["value"])
        metrics.setdefault("(probe_ms)", []).append(
            statistics.mean(record["probe_ms"].values()))
    return table


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> str:
    if spread(base) > bound:
        return "unresolved"
    b, c = statistics.median(base), statistics.median(change)
    worse = (c - b) / b if better == "lower" else (b - c) / b
    if worse > bound:
        return "WORSE"
    return "better" if worse < -spread(base) else "same"


def render(base: list[dict[str, Any]], change: list[dict[str, Any]],
           benchmark: dict[str, Any]) -> str:
    rules = {m["name"]: m for m in benchmark["end_to_end"]}
    lines = []
    timed_b, timed_c = by_workload(base, 0), by_workload(change, 0)
    for workload in sorted(set(timed_b) | set(timed_c)):
        lines.append(f"== {workload}: end to end "
                     f"({len(timed_b.get(workload, {}).get('(probe_ms)', []))}"
                     f" vs {len(timed_c.get(workload, {}).get('(probe_ms)', []))}"
                     f" runs)")
        lines.append(f"{'metric':<14}{'base q1/med/q3':>30}"
                     f"{'change q1/med/q3':>30}{'delta':>9}  verdict")
        names = sorted(set(timed_b.get(workload, {}))
                       | set(timed_c.get(workload, {})))
        for name in names:
            b = timed_b.get(workload, {}).get(name)
            c = timed_c.get(workload, {}).get(name)
            if not b or not c:
                lines.append(f"{name:<14} missing on one side")
                continue
            qb, qc = quartiles(b), quartiles(c)
            delta = (qc[1] - qb[1]) / qb[1] if qb[1] else 0.0
            rule = rules.get(name)
            if rule:
                mark = verdict(b, c, rule["better"], rule["bound"])
            else:
                mark = "(host)" if name == "(probe_ms)" else "(no bound)"
            lines.append(
                f"{name:<14}{'/'.join(f'{v:.4g}' for v in qb):>30}"
                f"{'/'.join(f'{v:.4g}' for v in qc):>30}"
                f"{delta:>+9.2%}  {mark}")
    traced_b, traced_c = by_workload(base, 1), by_workload(change, 1)
    for workload in sorted(set(traced_b) | set(traced_c)):
        lines.append(f"== {workload}: per layer (medians of traced runs)")
        lines.append(f"{'metric':<46}{'base':>14}{'change':>14}{'diff':>14}")
        b_all, c_all = traced_b.get(workload, {}), traced_c.get(workload, {})
        for name in sorted(set(b_all) | set(c_all)):
            b = statistics.median(b_all.get(name, [0.0]))
            c = statistics.median(c_all.get(name, [0.0]))
            if b == 0 and c == 0:
                continue
            lines.append(f"{name:<46}{b:>14.6g}{c:>14.6g}{c - b:>+14.6g}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/compare.py")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("compare: no run records on one side", file=sys.stderr)
        return 2
    print(render(base, change, benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
