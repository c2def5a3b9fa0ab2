"""The guided-search smoke: the ``repro.dse`` and ``repro.opt`` CLIs
end to end, each call its own process.

One scenario, in order: an exhaustive campaign over the pinned
36-point ``opt-smoke`` space and its (cycles, TOPS/W) Pareto front;
seeded successive halving (``opt sh --smoke``) on a fresh store, which
must recover that front bit-identically from 12 evaluations (33% of
the grid, under the 40% ceiling), with obs counters matching the
halving schedule exactly; a rerun over the exhaustive store, which
must evaluate nothing (the shared-cache contract); and the accuracy x
hardware co-search, which must emit its accuracy-vs-TOPS/W frontier
with no failed probe.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.obs.report import aggregate, iter_events

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

GRID = (
    "--name", "opt-smoke",
    "--accelerators", "SCNN,Stripes,Pragmatic,Bitlet,HUAA,BitWave",
    "--networks", "cnn_lstm@frames=2+bins=32+hidden=32,"
                  "cnn_lstm@frames=32+hidden=256,cnn_lstm@frames=64",
    "--archs", "bitwave-16nm,bitwave-dense-16nm",
)


def _cli(*args: str) -> str:
    """Run ``python -m repro...`` on this tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_TRACE", None)
    return subprocess.run(
        [sys.executable, "-m", *args], env=env, check=True,
        capture_output=True, text=True, timeout=300).stdout


def test_guided_smoke(tmp_path):
    exhaustive, guided = tmp_path / "exhaustive", tmp_path / "guided"
    trace = tmp_path / "trace"
    _cli("repro.dse", "run", *GRID, "--store", str(exhaustive), "--quiet")
    front = json.loads(_cli(
        "repro.dse", "pareto", *GRID, "--store", str(exhaustive),
        "--x", "cycles", "--y", "tops_per_w", "--format", "json"))

    halving = json.loads(_cli(
        "repro.opt", "sh", "--smoke", "--store", str(guided),
        "--trace", str(trace), "--format", "json"))
    assert [row["key"] for row in halving["front"]] \
        == [row["key"] for row in front]
    counts, grid = halving["counts"], halving["grid_size"]
    assert counts["failed"] == 0, counts
    assert counts["evaluated"] / grid <= 0.40, counts
    counters = aggregate(iter_events(trace))["counters"]
    expected = {
        "opt.grid.size": 36,
        "opt.sampled": 12,
        "opt.rounds": 4,
        "opt.probes.evaluated": 12,
        "opt.probes.saved": 11,  # round-2+ survivors re-probed
        "opt.probe_errors": 0,
    }
    assert {name: counters.get(name, {}).get("total", 0)
            for name in expected} == expected

    # Guided over exhaustive shares the cache: zero evaluations.
    warm = json.loads(_cli(
        "repro.opt", "sh", "--smoke", "--store", str(exhaustive),
        "--format", "json"))["counts"]
    assert (warm["evaluated"], warm["saved"], warm["probes"]) == (0, 23, 23)

    cosearch = json.loads(_cli(
        "repro.opt", "cosearch", "--store", str(guided), "--format", "json"))
    assert len(cosearch["front"]) == 4, cosearch["front"]
    assert (cosearch["counts"]["probes"], cosearch["counts"]["failed"]) \
        == (8, 0), cosearch["counts"]
