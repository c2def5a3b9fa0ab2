#!/usr/bin/env python
"""Arch-sweep throughput smoke: export ``BENCH_arch.json``.

Runs a small technology-sensitivity campaign -- two archs x two
networks x both evaluation backends (analytical model and vectorized
simulator) -- against a throwaway store and records points/second, so
the perf trajectory of the hardware-description axis is tracked across
PRs::

    PYTHONPATH=src python benchmarks/bench_arch_sweep.py
    PYTHONPATH=src python benchmarks/bench_arch_sweep.py --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The smoke grid: mini workloads keep the sim side interactive.
ARCHS = ("bitwave-16nm", "bitwave-16nm@sram_pj=0.5+group=16")
NETWORKS = ("cnn_lstm@frames=4+bins=64+hidden=64",
            "cnn_lstm@frames=2+bins=32+hidden=32")
BACKENDS = ("model", "sim-vectorized")


def run_sweep(jobs: int) -> dict:
    from repro.dse.executor import run_campaign
    from repro.dse.spec import CampaignSpec
    from repro.dse.store import ResultStore

    spec = CampaignSpec(
        name="bench-arch-sweep",
        accelerators=("BitWave",),
        networks=NETWORKS,
        backends=BACKENDS,
        archs=ARCHS,
    )
    points = spec.points()
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        run = run_campaign(spec, ResultStore(tmp), jobs=jobs)
        elapsed = time.perf_counter() - start
    if run.evaluated != len(points):
        raise RuntimeError(
            f"expected {len(points)} fresh evaluations, got {run.evaluated}")
    priced = sum(1 for result in run.results.values()
                 if result.models_energy)
    if priced != len(points):
        raise RuntimeError(
            f"only {priced}/{len(points)} results price energy; the "
            f"sim-energy epilog regressed")
    return {
        "points": len(points),
        "elapsed_s": elapsed,
        "points_per_s": len(points) / elapsed,
        "jobs": jobs,
        "archs": list(ARCHS),
        "networks": list(NETWORKS),
        "backends": list(BACKENDS),
        # Per-phase breakdown from a second, traced pass over the same
        # grid (fresh store) -- kept out of the timed pass above so
        # tracing overhead never pollutes the points/s trajectory.
        "extra_info": {"obs_phases": traced_phase_breakdown(jobs)},
    }


def traced_phase_breakdown(jobs: int) -> dict:
    """Re-run the sweep grid with repro.obs tracing on; return the
    span phase table (name -> count/total/mean/p50/p95/max)."""
    from repro import obs
    from repro.dse.executor import run_campaign
    from repro.dse.spec import CampaignSpec
    from repro.dse.store import ResultStore
    from repro.obs.report import phase_breakdown

    spec = CampaignSpec(
        name="bench-arch-sweep-traced",
        accelerators=("BitWave",),
        networks=NETWORKS,
        backends=BACKENDS,
        archs=ARCHS,
    )
    with tempfile.TemporaryDirectory() as store_tmp, \
            tempfile.TemporaryDirectory() as trace_tmp:
        obs.configure(trace_tmp)
        try:
            run_campaign(spec, ResultStore(store_tmp), jobs=jobs)
            obs.flush()
            return phase_breakdown(trace_tmp)
        finally:
            obs.configure(None)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_arch.json"),
                        metavar="FILE", help="output path")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="executor worker processes (default 1)")
    args = parser.parse_args(argv)

    sweep = run_sweep(args.jobs)
    payload = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine_info": {"cpu_count": os.cpu_count()},
        "sweep": sweep,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out} ({sweep['points']} points, "
          f"{sweep['points_per_s']:.2f} points/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
