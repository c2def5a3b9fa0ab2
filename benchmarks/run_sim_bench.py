#!/usr/bin/env python
"""Run the simulator benchmarks and export ``BENCH_sim.json``.

A thin wrapper over ``pytest benchmarks/bench_sim_npu.py`` that
condenses the pytest-benchmark output into a small, diff-friendly JSON
the perf trajectory can track across PRs::

    PYTHONPATH=src python benchmarks/run_sim_bench.py            # full
    PYTHONPATH=src python benchmarks/run_sim_bench.py --quick    # CI smoke

``--quick`` runs only the mid-layer comparison (one statistical group,
no reference pass over the whole suite), which is what the CI workflow
executes on every push.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def collect_obs_phases() -> dict:
    """Phase breakdown of one traced sim-backed evaluation.

    Runs *separately* from the timed benchmark pass (tracing must not
    perturb the numbers the perf trajectory compares), on a mini
    workload: the per-phase table (weights/stats/encode/decode) says
    where sim evaluation wall-clock goes, not how much there is of it.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro import obs
    from repro.eval.registry import get_backend
    from repro.eval.request import EvalRequest
    from repro.obs.report import phase_breakdown

    with tempfile.TemporaryDirectory() as tmp:
        obs.configure(tmp)
        try:
            get_backend("sim-vectorized").evaluate(EvalRequest(
                workload="cnn_lstm@frames=2+bins=32+hidden=32",
                accelerator="BitWave",
                backend="sim-vectorized"))
            obs.flush()
            return phase_breakdown(tmp)
        finally:
            obs.configure(None)


def condense(raw: dict) -> dict:
    """Keep the fields future PRs compare: timings + speedups."""
    entries = []
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        entries.append({
            "name": bench["name"],
            "group": bench.get("group"),
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
            "extra_info": bench.get("extra_info", {}),
        })
    speedups = {
        entry["name"]: entry["extra_info"]["speedup"]
        for entry in entries
        if "speedup" in entry["extra_info"]
    }
    headline = (speedups.get("test_validation_suite_speedup")
                or next(iter(speedups.values()), None))
    return {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine_info": {
            "python": raw.get("machine_info", {}).get("python_version"),
            "cpu_count": os.cpu_count(),
        },
        "headline_speedup": headline,
        "speedups": speedups,
        "benchmarks": entries,
        # Where the sim's time goes (repro.obs spans from a separate
        # traced pass), so the trajectory records the phase mix too.
        "extra_info": {"obs_phases": collect_obs_phases()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sim.json"),
                        metavar="FILE", help="condensed output path")
    parser.add_argument("--quick", action="store_true",
                        help="mid-layer smoke only (skip the full-suite "
                             "reference pass)")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)

    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "raw.json"
        cmd = [
            sys.executable, "-m", "pytest",
            str(REPO_ROOT / "benchmarks" / "bench_sim_npu.py"),
            "-q", f"--benchmark-json={raw_path}",
        ]
        if args.quick:
            cmd += ["-k", "mid_layer"]
        result = subprocess.run(cmd, env=env, cwd=REPO_ROOT)
        if result.returncode:
            return result.returncode
        raw = json.loads(raw_path.read_text())

    condensed = condense(raw)
    out = Path(args.out)
    out.write_text(json.dumps(condensed, indent=2) + "\n")
    headline = condensed["headline_speedup"]
    print(f"wrote {out}"
          + (f" (headline speedup: {headline:.1f}x)" if headline else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
